"""Coverage-driven verification: knowing when verification is done.

The paper's Section 3 runs multi-level regression across two vendor
simulators and FPGA emulation but can only argue sign-off readiness
qualitatively.  This subsystem closes that gap with the machinery
coverage-driven flows use:

* **structural coverage** -- net toggle and flop reset/activity
  coverage, accumulated as word masks over the lanes of a compiled
  simulator (:mod:`.closure`) against the universe
  :func:`structural_universe` defines (:mod:`.database`);
* **functional coverage** -- covergroups with value/range bins and
  cross coverage sampled from simulation traces (:mod:`.functional`);
* **constrained-random stimulus** -- weighted, hold-time-constrained
  vector streams on ``SeedSequence``-spawned generators
  (:mod:`.stimulus`);
* a **mergeable coverage database** with per-test attribution, test
  grading, and greedy suite minimisation (:mod:`.database`);
* the **coverage-closure loop** -- generate, fan out over processes,
  merge, repeat until a coverage target or plateau (:mod:`.closure`).

Everything obeys the PR-1 determinism contract: the merged database
is bit-identical for any worker count.
"""

from .functional import (
    CoverBin,
    CoverCross,
    CoverGroup,
    Coverpoint,
    decode_signals,
    range_bins,
    value_bins,
)
from .stimulus import (
    PortConstraint,
    StimulusSpec,
    constrained_stimulus,
    data_input_ports,
    spawn_test_seeds,
)
from .database import (
    CoverageDatabase,
    Hole,
    TestCoverage,
    TestGrade,
    structural_universe,
)
from .closure import (
    ClosureConfig,
    ClosureResult,
    ClosureRound,
    close_coverage,
    dsc_closure_bench,
)

__all__ = [
    "CoverBin",
    "CoverCross",
    "CoverGroup",
    "Coverpoint",
    "decode_signals",
    "range_bins",
    "value_bins",
    "PortConstraint",
    "StimulusSpec",
    "constrained_stimulus",
    "data_input_ports",
    "spawn_test_seeds",
    "CoverageDatabase",
    "Hole",
    "TestCoverage",
    "TestGrade",
    "structural_universe",
    "ClosureConfig",
    "ClosureResult",
    "ClosureRound",
    "close_coverage",
    "dsc_closure_bench",
]
