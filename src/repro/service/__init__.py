"""repro.service: the multi-tenant flow-as-a-service front end.

An asyncio :class:`DesignService` accepts a stream of
:class:`FlowRequest` objects (DSC variants x corners x seeds x stage
subsets), decomposes each into the per-block stage DAG, deduplicates
identical work units across requests, and schedules the rest onto
:mod:`repro.perf` pool workers behind a bounded queue.  Per-request
:class:`FlowReport` JSON is byte-identical for any worker count,
submission order and queue depth.
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
    clear_module_cache,
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
    "clear_module_cache",
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
