"""ATPG: random-pattern phase plus SAT-based deterministic top-up.

The flow mirrors industrial practice on late-1990s control-dominated
designs like the paper's DSC controller: random patterns saturate in
the 80s, then a SAT test generator targets the remaining
random-pattern-resistant faults one by one.  It either finds a test,
proves the fault untestable (redundant logic), or gives up when its
per-fault conflict budget runs out; those aborted faults are reported
as untested.  The paper reports 93% coverage after scan insertion --
experiment E4 regenerates that number on the synthetic SoC netlist.

The generator (Larrabee-style) runs on the repository's one CDCL
solver, :class:`repro.sat.Solver`, and its one gate encoder,
:meth:`repro.sat.CnfBuilder.gate`.  The good circuit is encoded
once (:meth:`CombinationalView.encode`).  Each fault adds its faulty
fanout cone and an XOR miter over the pseudo outputs it reaches, as
gates guarded by a fresh activation literal; the solve runs under that
one assumption, then the variables allocated for the fault are pinned,
so clauses learned on one fault keep pruning the next.  Within its
budget the generator is complete: its verdicts are checked against
exhaustive enumeration in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..netlist import Module
from ..netlist.netlist import Instance
from ..perf import stage_timer
from ..sat import XOR2, CnfBuilder, Solver
from .compiled import compiled_batch_hits
from .faults import Fault, collapse_faults, enumerate_faults
from .faultsim import (
    CombinationalView,
    FaultSimResult,
    random_pattern_fault_sim,
)


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


# -- SAT test generation ----------------------------------------------------


@dataclass
class SatTest:
    """Outcome of one SAT test-generation call."""

    fault: Fault
    status: str  # "detected" | "untestable" | "aborted"
    #: On "detected": a 0/1 value for every pseudo input in the fault's
    #: structural support; any fill of the other inputs detects it.
    pattern: dict[str, int] | None = None


class SatTestGenerator:
    """Incremental SAT test generator bound to one combinational view.

    ``conflict_limit`` is the per-fault conflict budget (``None``:
    unbounded, so every verdict is exact).  Results depend only on the
    view and the order of :meth:`generate` calls.
    """

    def __init__(
        self, view: CombinationalView, *, conflict_limit: int | None = None
    ) -> None:
        self.view = view
        self.conflict_limit = conflict_limit
        self.solver = Solver()
        self.cnf = CnfBuilder(self.solver)
        self._good = view.encode(self.cnf, {
            net: self.cnf.new_var() for net in view.pseudo_inputs
        })

    @staticmethod
    def _out_net(inst: Instance) -> str:
        return inst.net_of(inst.cell.output_pins[0])

    def generate(self, fault: Fault) -> SatTest:
        """Find a test for ``fault``, prove it untestable, or abort."""
        view, solver = self.view, self.solver
        cone = view.fanout_cone(fault.instance)
        cone_nets = {self._out_net(member) for member in cone}
        observed = [net for net in dict.fromkeys(view.pseudo_outputs)
                    if net in cone_nets]
        if not observed:
            return SatTest(fault, "untestable")

        # Everything below hangs off ``act``: the faulty cone's gates,
        # fault activation and the miter over the observed outputs.
        act = solver.new_var()
        cnf, good, tables = self.cnf, self._good, view._tables
        site = view.module.instances[fault.instance]
        stuck = cnf.true_lit if fault.stuck_at else cnf.false_lit
        stem = good[site.net_of(fault.pin)]
        solver.add_clause([-act, -stem if fault.stuck_at else stem])
        if fault.pin in site.cell.output_pins:
            faulty = {self._out_net(site): stuck}
        else:
            inputs = [
                stuck if pin == fault.pin else good[site.net_of(pin)]
                for pin in site.cell.input_pins
            ]
            faulty = {self._out_net(site):
                      cnf.gate(tables[site.cell.name], inputs, act)}
        for member in cone:
            if member is not site:
                inputs = [faulty.get(net) or good[net] for net in
                          map(member.net_of, member.cell.input_pins)]
                faulty[self._out_net(member)] = cnf.gate(
                    tables[member.cell.name], inputs, act)
        solver.add_clause([-act] + [
            cnf.gate(XOR2, (good[net], faulty[net]), act)
            for net in observed
        ])

        verdict = solver.solve([act], conflict_limit=self.conflict_limit)
        pattern: dict[str, int] | None = None
        if verdict:
            support = sorted({net for member in cone
                              for net in view.support(member.name)})
            pattern = {net: int(solver.value(good[net])) for net in support}
        # Retire the fault.  With ``act`` false the variables allocated
        # from ``act`` on (never a shared or folded literal) are free,
        # so pinning them at level 0 takes them out of later solves.
        for var in range(act, solver.n_vars + 1):
            solver.add_clause([-var])
        if verdict is None:
            return SatTest(fault, "aborted")
        return SatTest(fault, "detected" if verdict else "untestable", pattern)


def _deterministic_phase(
    view: CombinationalView,
    undetected: Sequence[Fault],
    *,
    rng: np.random.Generator,
    conflict_limit: int | None,
) -> tuple[set[Fault], list[Fault], int, int]:
    """SAT phase with cross-fault dropping.

    Each SAT pattern (inputs outside the fault's support filled from
    ``rng`` in ``view.pseudo_inputs`` order) is fault-simulated against
    all still-pending faults, so one deterministic pattern often pays
    for several faults -- standard practice.  Each pattern is graded
    as a one-pattern batch on the compiled fault kernel.
    Returns (detected, proven-untestable, patterns used, conflicts).
    """
    generator = SatTestGenerator(view, conflict_limit=conflict_limit)
    detected: set[Fault] = set()
    untestable: list[Fault] = []
    patterns_used = 0
    pending = list(undetected)
    while pending:
        fault = pending.pop(0)
        if fault in detected:
            continue
        outcome = generator.generate(fault)
        if outcome.status == "untestable":
            untestable.append(fault)
            continue
        if outcome.pattern is None:
            continue
        bits: dict[str, np.ndarray] = {}
        for net in view.pseudo_inputs:
            value = outcome.pattern.get(net)
            if value is None:
                value = int(rng.integers(0, 2))
            bits[net] = np.array([value], dtype=np.uint8)
        patterns_used += 1
        candidates = [fault] + [f for f in pending if f not in detected]
        detected.update(compiled_batch_hits(view, bits, 1, candidates))
        pending = [f for f in pending if f not in detected]
    return (detected, untestable, patterns_used,
            generator.solver.stats.conflicts)


def run_atpg(
    module: Module,
    *,
    seed: int = 0,
    max_random_patterns: int = 2048,
    conflict_limit: int | None = 10_000,
    batch_size: int = 64,
    workers: int = 1,
) -> AtpgResult:
    """Full ATPG flow on a (scanned) module.

    The module should already contain scan flops (see
    :func:`repro.dft.insert_scan`); plain-flop modules work too -- the
    combinational view simply treats all flop boundaries as test
    points, which models perfect scan access.

    ``conflict_limit`` is the SAT generator's per-fault conflict
    budget; a fault that exhausts it is reported undetected (aborted).
    ``None`` removes the budget.
    ``batch_size`` and ``workers`` tune fault simulation (see
    :func:`repro.dft.random_pattern_fault_sim`); SAT patterns are
    graded on the same compiled kernel as the random phase.
    The worker count never changes the result; ``batch_size``
    selects how many patterns are drawn per batch, so a different
    width applies a different (equally random) pattern stream.  The
    defaults match the historical behaviour pattern-for-pattern.
    """
    rng = np.random.default_rng(seed)
    view = CombinationalView(module)
    universe = collapse_faults(module, enumerate_faults(module))

    random_result: FaultSimResult = random_pattern_fault_sim(
        view, universe, rng=rng, max_patterns=max_random_patterns,
        batch_size=batch_size, workers=workers,
    )
    undetected = [f for f in universe if f not in random_result.detected]
    with stage_timer("dft.atpg.sat") as stats:
        det_extra, untestable, det_patterns, conflicts = _deterministic_phase(
            view, undetected, rng=rng, conflict_limit=conflict_limit,
        )
        still_undetected = [
            f for f in undetected if f not in det_extra and f not in untestable
        ]
        stats.add(patterns=det_patterns, faults=len(undetected),
                  conflicts=conflicts, untestable=len(untestable),
                  aborted=len(still_undetected))

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
