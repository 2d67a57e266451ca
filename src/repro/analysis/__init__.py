"""Abstract-interpretation dataflow analysis over the netlist IR.

Three abstract domains (:mod:`repro.analysis.domains`: constants,
dual-dialect value pairs and X-source taint), solved cone by cone
through the artifact store (:mod:`repro.analysis.cones`; the
monolithic worklist engine of :mod:`repro.oracles.fixpoint` is its
test oracle), power the semantic analyses of
:mod:`repro.analysis.analyses`: constant propagation with dead-logic
detection, static prediction of where the two simulator dialects of
:mod:`repro.sim` diverge, and order-sensitive multi-driven nets.  The
results surface as the ``CONST-00x`` / ``DEAD-00x`` / ``DIV-00x`` /
``RACE-001`` lint families (:mod:`repro.lint.analysis`) and are
cross-validated against real dual-dialect simulation by
:mod:`repro.verification.crossval`.

The package sits below :mod:`repro.lint` and imports nothing from it;
the structural clock-path races (``RACE-002/003``) live with the CDC
rules in :mod:`repro.lint.cdc`.
"""

from .domains import (
    BINARY,
    BOT,
    ConstantDomain,
    DIVERGENT,
    DualConstantDomain,
    ONE,
    PAIR_TOP,
    TOP,
    TaintDomain,
    XBIT,
    ZERO,
    clear_transfer_tables,
    component_a,
    component_b,
    diagonal,
    format_mask,
    format_pair_mask,
    level_bit,
    mask_levels,
    mask_pairs,
    pair_bit,
)
from .engine import FixpointResult
from .cones import (
    ANALYSIS_VERSION,
    CONE_STORE_DOMAIN,
    Cone,
    ConePartition,
    ConeRunStats,
    cone_partition_fingerprint,
    partition_cones,
    run_fixpoint_cones,
)
from .analyses import (
    ModuleAnalysis,
    analyze_module,
    clear_analysis_memo,
    constant_cones,
    divergent_nets,
    divergent_output_ports,
    multi_driver_races,
    mux_select_x_sites,
    never_toggling_flops,
    observable_nets,
    reconvergent_x_sites,
    stuck_nets,
    unobservable_instances,
)

__all__ = [
    "BINARY",
    "BOT",
    "ConstantDomain",
    "DIVERGENT",
    "DualConstantDomain",
    "ONE",
    "PAIR_TOP",
    "TOP",
    "TaintDomain",
    "XBIT",
    "ZERO",
    "clear_transfer_tables",
    "component_a",
    "component_b",
    "diagonal",
    "format_mask",
    "format_pair_mask",
    "level_bit",
    "mask_levels",
    "mask_pairs",
    "pair_bit",
    "FixpointResult",
    "ANALYSIS_VERSION",
    "CONE_STORE_DOMAIN",
    "Cone",
    "ConePartition",
    "ConeRunStats",
    "cone_partition_fingerprint",
    "partition_cones",
    "run_fixpoint_cones",
    "ModuleAnalysis",
    "analyze_module",
    "clear_analysis_memo",
    "constant_cones",
    "divergent_nets",
    "divergent_output_ports",
    "multi_driver_races",
    "mux_select_x_sites",
    "never_toggling_flops",
    "observable_nets",
    "reconvergent_x_sites",
    "stuck_nets",
    "unobservable_instances",
]
