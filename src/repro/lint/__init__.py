"""Static design-rule analysis over the design database.

The sign-off checks the paper's flow runs *without* simulation:
structural netlist lint, clock/reset-domain inference and CDC
detection, static X-source analysis (S2), the scan design rules that
gate DFT insertion (S5), and the SoC memory-map/integration audit
(S16).  Rules plug into a registry, findings carry stable
fingerprints, waivers are first-class, and the engine fans out across
modules deterministically via :mod:`repro.perf`.  No layer below
imports lint: the clock tracer and the scan rules live in
:mod:`repro.netlist.clocks` and :mod:`repro.dft.scan`.
"""

from .core import (
    Finding,
    LINT_STORE_DOMAIN,
    LINT_VERSION,
    LintDelta,
    LintError,
    LintReport,
    Rule,
    Severity,
    Waiver,
    WaiverSet,
    all_rules,
    get_rule,
    lint_modules,
    load_builtin_rules,
    register,
    run_lint,
    select_rules,
)
from .cdc import clock_path_races
from .domains import DomainMap, infer_clock_domains, infer_reset_domains
from .properties import (
    PROP_RULE_IDS,
    findings_from_bmc,
    findings_from_bus,
)
from .sarif import (
    report_to_sarif,
    report_to_sarif_json,
    sarif_fingerprints,
)
from .scandrc import SCAN_RULE_IDS, check_scan_drc
from .socmap import SocView, SocWindow, soc_view
from .dsc import DSC_BUS_BINDING, DscLintTargets, dsc_lint_targets

load_builtin_rules()

__all__ = [
    "Finding",
    "LINT_STORE_DOMAIN",
    "LINT_VERSION",
    "LintDelta",
    "LintError",
    "LintReport",
    "Rule",
    "Severity",
    "Waiver",
    "WaiverSet",
    "all_rules",
    "get_rule",
    "lint_modules",
    "load_builtin_rules",
    "register",
    "run_lint",
    "select_rules",
    "clock_path_races",
    "DomainMap",
    "infer_clock_domains",
    "infer_reset_domains",
    "PROP_RULE_IDS",
    "findings_from_bmc",
    "findings_from_bus",
    "report_to_sarif",
    "report_to_sarif_json",
    "sarif_fingerprints",
    "SCAN_RULE_IDS",
    "check_scan_drc",
    "SocView",
    "SocWindow",
    "soc_view",
    "DSC_BUS_BINDING",
    "DscLintTargets",
    "dsc_lint_targets",
]
