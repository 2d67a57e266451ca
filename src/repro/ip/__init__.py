"""IP catalogue, hardening and integration modelling."""

from .catalog import (
    Deliverable,
    HARD_IP_CHECKLIST,
    HdlLanguage,
    IpBlock,
    IpCatalog,
    IpSource,
    SOFT_IP_CHECKLIST,
    dsc_block_test_specs,
    dsc_ip_catalog,
)
from .hardening import HardeningResult, harden, hardening_upgrades
from .integration import (
    IntegrationCampaign,
    IntegrationOutcome,
    maturity_vs_revisions_curve,
    run_integration_campaign,
)

__all__ = [
    "Deliverable",
    "HARD_IP_CHECKLIST",
    "HdlLanguage",
    "IpBlock",
    "IpCatalog",
    "IpSource",
    "SOFT_IP_CHECKLIST",
    "dsc_block_test_specs",
    "dsc_ip_catalog",
    "HardeningResult",
    "harden",
    "hardening_upgrades",
    "IntegrationCampaign",
    "IntegrationOutcome",
    "maturity_vs_revisions_curve",
    "run_integration_campaign",
]
