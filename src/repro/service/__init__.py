"""repro.service: the multi-tenant flow-as-a-service front end.

:class:`DesignService` takes a batch of :class:`FlowRequest` objects
(DSC variants x corners x seeds x stage subsets), decomposes each into
the per-block stage DAG, deduplicates identical work units across
requests, and runs the rest on :mod:`repro.perf` pool workers from one
synchronous loop.  Per-request :class:`FlowReport` JSON is
byte-identical for any worker count and submission order.
"""

from .request import (
    DSC_VARIANTS,
    BlockSpec,
    FlowRequest,
    synthetic_tenant_mix,
    variant_blocks,
)
from .service import DesignService, Event, FlowReport, ServiceStats
from .stages import (
    DEFAULT_STAGES,
    STAGE_DEFS,
    STAGE_VERSION,
    StageDef,
    estimated_cost,
    execute_unit,
    execute_unit_guarded,
    make_unit_spec,
    materialize_block,
    stage_closure,
    unit_config,
    unit_fingerprints,
)

__all__ = [
    "DEFAULT_STAGES",
    "DSC_VARIANTS",
    "STAGE_DEFS",
    "STAGE_VERSION",
    "BlockSpec",
    "DesignService",
    "Event",
    "FlowReport",
    "FlowRequest",
    "ServiceStats",
    "StageDef",
    "estimated_cost",
    "execute_unit",
    "execute_unit_guarded",
    "make_unit_spec",
    "materialize_block",
    "stage_closure",
    "synthetic_tenant_mix",
    "unit_config",
    "unit_fingerprints",
    "variant_blocks",
]
