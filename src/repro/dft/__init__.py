"""Design-for-test: scan insertion, stuck-at fault simulation, ATPG."""

from .scan import (
    ScanChain,
    ScanDrcError,
    ScanReport,
    chain_integrity_test,
    chain_wirelength_um,
    insert_scan,
    placement_aware_chain_order,
    shift_in,
    shift_out,
)
from .faults import Fault, collapse_faults, enumerate_faults
from .faultsim import (
    CombinationalView,
    FaultSimResult,
    random_pattern_fault_sim,
    simulate_single_pattern,
)
from .compiled import (
    FaultProgram,
    clear_fault_program_cache,
    compile_fault_program,
    detection_masks,
    grade_batch,
)
from .atpg import AtpgResult, run_atpg
from .diagnosis import (
    DiagnosisCandidate,
    DiagnosisResult,
    FailureSignature,
    FaultDictionary,
    build_dictionary,
)
from .hierarchical import (
    BlockTestSpec,
    ScheduledBlock,
    TestSchedule,
    schedule_block_tests,
)

__all__ = [
    "ScanChain",
    "ScanDrcError",
    "ScanReport",
    "chain_integrity_test",
    "chain_wirelength_um",
    "insert_scan",
    "placement_aware_chain_order",
    "shift_in",
    "shift_out",
    "Fault",
    "collapse_faults",
    "enumerate_faults",
    "CombinationalView",
    "FaultSimResult",
    "random_pattern_fault_sim",
    "simulate_single_pattern",
    "FaultProgram",
    "clear_fault_program_cache",
    "compile_fault_program",
    "detection_masks",
    "grade_batch",
    "AtpgResult",
    "run_atpg",
    "DiagnosisCandidate",
    "DiagnosisResult",
    "FailureSignature",
    "FaultDictionary",
    "build_dictionary",
    "BlockTestSpec",
    "ScheduledBlock",
    "TestSchedule",
    "schedule_block_tests",
]
