"""repro.service: the multi-tenant flow-as-a-service front end.

An asyncio :class:`DesignService` accepts a stream of
:class:`FlowRequest` objects (DSC variants x corners x seeds x stage
subsets), decomposes each into the per-block stage DAG, deduplicates
identical work units across requests, and schedules the rest onto
:mod:`repro.perf` pool workers behind a bounded queue.  Per-request
:class:`FlowReport` JSON is byte-identical for any worker count,
submission order and queue depth.

The stage table and the request model load with the package; the
asyncio front end (:class:`DesignService`, :class:`Event`,
:class:`FlowReport`, :class:`ServiceStats`) loads on first use, so the
lifecycle flow reads :data:`STAGE_DEFS` without importing asyncio.
"""

from typing import TYPE_CHECKING, Any

from .request import (
    DSC_VARIANTS,
    BlockSpec,
    FlowRequest,
    synthetic_tenant_mix,
    variant_blocks,
)
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

if TYPE_CHECKING:
    from .service import DesignService, Event, FlowReport, ServiceStats

_FRONT_END = frozenset({"DesignService", "Event", "FlowReport",
                        "ServiceStats"})


def __getattr__(name: str) -> Any:
    if name in _FRONT_END:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
