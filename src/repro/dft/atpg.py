"""ATPG: random-pattern phase plus PODEM deterministic top-up.

The flow mirrors industrial practice on late-1990s control-dominated
designs like the paper's DSC controller: random patterns saturate in
the 80s, a PODEM phase (:mod:`repro.dft.podem`) targets the remaining
random-pattern-resistant faults one by one, proves some untestable
(redundant logic), and whatever aborts at the backtrack limit is
reported as untested.  The paper reports 93% coverage after scan
insertion -- experiment E4 regenerates that number on the synthetic
SoC netlist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..netlist import Module
from ..perf import stage_timer
from .faults import Fault, collapse_faults, enumerate_faults
from .faultsim import (
    CombinationalView,
    FaultSimResult,
    _batch_kernel,
    _BatchKernel,
    random_pattern_fault_sim,
)
from .podem import Podem


@dataclass
class AtpgResult:
    """Final outcome of an ATPG run."""

    total_faults: int
    detected_random: int
    detected_deterministic: int
    undetected: list[Fault] = field(default_factory=list)
    untestable: list[Fault] = field(default_factory=list)
    patterns_random: int = 0
    patterns_deterministic: int = 0
    coverage_curve: list[tuple[int, float]] = field(default_factory=list)

    @property
    def detected(self) -> int:
        return self.detected_random + self.detected_deterministic

    @property
    def coverage(self) -> float:
        """Detected / total (the paper's raw fault-coverage metric)."""
        if self.total_faults == 0:
            return 1.0
        return self.detected / self.total_faults

    @property
    def test_efficiency(self) -> float:
        """Detected / (total - proven untestable)."""
        effective = self.total_faults - len(self.untestable)
        if effective <= 0:
            return 1.0
        return self.detected / effective

    @property
    def total_patterns(self) -> int:
        return self.patterns_random + self.patterns_deterministic

    def format_report(self) -> str:
        lines = [
            "ATPG summary",
            f"  fault universe      : {self.total_faults}",
            f"  random detected     : {self.detected_random}"
            f" ({self.patterns_random} patterns)",
            f"  deterministic extra : {self.detected_deterministic}"
            f" ({self.patterns_deterministic} patterns)",
            f"  proven untestable   : {len(self.untestable)}",
            f"  undetected (abort)  : {len(self.undetected)}",
            f"  fault coverage      : {self.coverage * 100:.1f}%",
            f"  test efficiency     : {self.test_efficiency * 100:.1f}%",
        ]
        return "\n".join(lines)


def _deterministic_phase(
    view: CombinationalView,
    undetected: Sequence[Fault],
    *,
    rng: np.random.Generator,
    grade: _BatchKernel,
    backtrack_limit: int = 256,
) -> tuple[set[Fault], list[Fault], int]:
    """PODEM phase with cross-fault dropping.

    Each PODEM pattern (unassigned inputs filled randomly) is fault-
    simulated against all still-pending faults, so one deterministic
    pattern often pays for several faults -- standard practice.
    ``grade`` is the engine's batch kernel; each pattern is graded as
    a one-pattern batch.
    Returns (detected, proven-untestable, patterns used).
    """
    engine = Podem(view, backtrack_limit=backtrack_limit)
    detected: set[Fault] = set()
    untestable: list[Fault] = []
    patterns_used = 0
    pending = list(undetected)
    while pending:
        fault = pending.pop(0)
        if fault in detected:
            continue
        outcome = engine.generate(fault)
        if outcome.status == "untestable":
            untestable.append(fault)
            continue
        if outcome.status == "aborted" or outcome.pattern is None:
            continue
        bits: dict[str, np.ndarray] = {}
        for net in view.pseudo_inputs:
            value = outcome.pattern.get(net)
            if value is None:
                value = int(rng.integers(0, 2))
            bits[net] = np.array([value], dtype=np.uint8)
        patterns_used += 1
        candidates = [fault] + [f for f in pending if f not in detected]
        detected.update(grade(view, bits, 1, candidates))
        pending = [f for f in pending if f not in detected]
    return detected, untestable, patterns_used


def run_atpg(
    module: Module,
    *,
    seed: int = 0,
    max_random_patterns: int = 2048,
    backtrack_limit: int = 256,
    collapse: bool = True,
    batch_size: int = 64,
    engine: str = "compiled",
    workers: int = 1,
) -> AtpgResult:
    """Full ATPG flow on a (scanned) module.

    The module should already contain scan flops (see
    :func:`repro.dft.insert_scan`); plain-flop modules work too -- the
    combinational view simply treats all flop boundaries as test
    points, which models perfect scan access.

    ``batch_size``, ``engine`` and ``workers`` tune fault simulation
    (see :func:`repro.dft.random_pattern_fault_sim`); PODEM patterns
    are graded on the same engine as the random phase.
    Engine and worker count never change the result; ``batch_size``
    selects how many patterns are drawn per batch, so a different
    width applies a different (equally random) pattern stream.  The
    defaults match the historical behaviour pattern-for-pattern.
    """
    grade = _batch_kernel(engine)
    rng = np.random.default_rng(seed)
    view = CombinationalView(module)
    universe = enumerate_faults(module)
    if collapse:
        universe = collapse_faults(module, universe)

    random_result: FaultSimResult = random_pattern_fault_sim(
        view, universe, rng=rng, max_patterns=max_random_patterns,
        batch_size=batch_size, engine=engine, workers=workers,
    )
    undetected = [f for f in universe if f not in random_result.detected]
    with stage_timer("dft.atpg.podem") as stats:
        det_extra, untestable, det_patterns = _deterministic_phase(
            view, undetected, rng=rng, grade=grade,
            backtrack_limit=backtrack_limit,
        )
        stats.add(patterns=det_patterns, faults=len(undetected))
    still_undetected = [
        f for f in undetected if f not in det_extra and f not in untestable
    ]

    return AtpgResult(
        total_faults=len(universe),
        detected_random=len(random_result.detected),
        detected_deterministic=len(det_extra),
        undetected=still_undetected,
        untestable=untestable,
        patterns_random=random_result.patterns_applied,
        patterns_deterministic=det_patterns,
        coverage_curve=random_result.coverage_curve,
    )
