"""Semiformal verification: random drive + bounded exhaustion.

Pure BMC from reset only sees the first ``depth`` cycles; pure
constrained-random simulation reaches deep states but samples their
neighborhoods thinly.  The semiformal loop composes the two:

1. **Drive** -- seeded constrained-random stimulus lanes on a
   :class:`~repro.sim.compiled.BatchSimulator` run the design deep,
   recording the exact stimulus prefix that produced each reached
   flop state;
2. **Exhaust** -- bounded model checking restarts from each frontier
   state (``initial_state``) and *exhaustively* covers its
   ``depth``-cycle neighborhood with the CDCL engine;
3. **Replay** -- every counterexample is spliced onto its lane's
   stimulus prefix, giving a full power-on stimulus that is replayed
   on **both** simulator dialects (the crossval contract) and can be
   banked into the coverage database as a directed test, its
   structural coverage collected as word masks on a one-lane
   compiled sweep, as constrained-random closure collects it.

The whole loop is a pure function of its seeds: lane stimulus comes
from ``numpy`` generators, frontier states are deduplicated in lane
order, and each BMC call inherits the deterministic per-property
solver discipline of :mod:`repro.formal.bmc`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..coverage import CoverageDatabase, TestCoverage
from ..coverage.closure import _LaneCoverage
from ..netlist import Logic, Module
from ..netlist.clocks import CLOCK_PORT
from ..sim import VENDOR_A_SIM
from ..sim.compiled import BatchSimulator, compile_module
from ..sim.simulator import SimulatorConfig
from .bmc import (
    BmcReport,
    Counterexample,
    ReplayResult,
    _plan_inputs,
    check_properties,
    replay_counterexample,
)
from .properties import Property, PropertySet

__all__ = [
    "SemiformalResult",
    "SemiformalTrace",
    "counterexample_to_test",
    "semiformal_verify",
]


@dataclass(frozen=True)
class SemiformalTrace:
    """One counterexample lifted to a full power-on stimulus."""

    property_name: str
    kind: str
    prefix_cycles: int
    frame: int
    counterexample: Counterexample
    replay: ReplayResult

    def to_dict(self) -> dict[str, object]:
        """Canonical JSON-ready form."""
        return {
            "counterexample": self.counterexample.to_dict(),
            "frame": self.frame,
            "kind": self.kind,
            "prefix_cycles": self.prefix_cycles,
            "property": self.property_name,
            "replay": self.replay.to_dict(),
        }


@dataclass(frozen=True)
class SemiformalResult:
    """Outcome of one semiformal run over a property set."""

    module: str
    depth: int
    seed: int
    lanes: int
    drive_cycles: int
    frontier_states: int
    reports: tuple[BmcReport, ...]
    traces: tuple[SemiformalTrace, ...]
    directed_tests: tuple[str, ...] = ()
    wall_s: float = 0.0

    def status_of(self, name: str) -> str:
        """Aggregate verdict for one property across all frontiers.

        ``falsified`` dominates; otherwise a property that proved at
        every explored frontier state reports ``bounded`` -- proven in
        the ``depth``-neighborhood of everything reached, which is a
        semiformal claim, not an unbounded proof.
        """
        statuses = [
            check.status
            for report in self.reports
            for check in report.checks
            if check.name == name
        ]
        if not statuses:
            raise KeyError(f"no property {name!r} in this run")
        if "falsified" in statuses:
            return "falsified"
        if "covered" in statuses:
            return "covered"
        if all(s == "proven" for s in statuses):
            return "bounded"
        if all(s in ("proven", "unreachable") for s in statuses):
            return "bounded"
        return "unknown"

    def to_dict(self) -> dict[str, object]:
        """Canonical JSON-ready form (wall time excluded)."""
        names = sorted({
            check.name
            for report in self.reports
            for check in report.checks
        })
        return {
            "depth": self.depth,
            "directed_tests": list(self.directed_tests),
            "drive_cycles": self.drive_cycles,
            "frontier_states": self.frontier_states,
            "lanes": self.lanes,
            "module": self.module,
            "seed": self.seed,
            "statuses": {name: self.status_of(name) for name in names},
            "traces": [trace.to_dict() for trace in self.traces],
        }


def counterexample_to_test(
    module: Module,
    cex: Counterexample,
    *,
    name: str,
    config: SimulatorConfig | None = None,
) -> TestCoverage:
    """Run a counterexample stimulus as an instrumented directed test.

    The exact counterexample frames drive the one lane of a compiled
    simulator, and its structural coverage accumulates as word masks
    after every clock edge -- the collector of constrained-random
    closure -- so the returned :class:`~repro.coverage.TestCoverage`
    attributes whatever nets, flops and resets the formal trace
    exercises, formal results feeding the same closure machinery as
    constrained-random tests.
    """
    started = time.perf_counter()
    sim = BatchSimulator(module, config or VENDOR_A_SIM, lanes=1)
    cover = _LaneCoverage(sim)
    if cex.clock_port is not None:
        # The last frame is judged, never clocked.
        frames = [{**frame, cex.clock_port: Logic.ZERO}
                  for frame in cex.frames[:-1]]
        sim.run([frames], clock_port=cex.clock_port, watch=(),
                on_edge=cover.observe)
    (test,) = cover.tests([name], cycles=len(cex.frames),
                          duration_s=time.perf_counter() - started)
    return test


def _drive_frontier(
    module: Module,
    config: SimulatorConfig,
    *,
    lanes: int,
    cycles: int,
    seed: int,
    clock_port: str,
    reset_frames: int,
) -> tuple[
    list[tuple[dict[str, Logic], ...]],
    list[dict[str, Logic]],
]:
    """Random-drive ``lanes`` lanes ``cycles`` deep; return frontiers.

    Returns ``(prefixes, states)``: every *distinct, fully binary*
    flop state observed after any clock edge of any lane
    (deduplicated in (cycle, lane) order, shallow states first),
    together with the exact stimulus prefix that reached it (clock
    excluded, one clock edge after every prefix frame) -- the flop
    state is a ``{flop name: Logic}`` map ready for BMC's
    ``initial_state``.
    """
    program = compile_module(module, config)
    plan = _plan_inputs(program, clock_port)
    rng = np.random.default_rng(seed)
    free = plan.free_ports
    bits = rng.integers(0, 2, size=(lanes, cycles, len(free)))

    stimuli: list[list[dict[str, Logic]]] = []
    for lane in range(lanes):
        sequence: list[dict[str, Logic]] = []
        for t in range(cycles):
            vector: dict[str, Logic] = {}
            for port, value in plan.tied:
                vector[port] = value
            for port in plan.reset_ports:
                vector[port] = (
                    Logic.ZERO if t < reset_frames else Logic.ONE
                )
            for k, port in enumerate(free):
                vector[port] = Logic.from_bool(bool(bits[lane, t, k]))
            sequence.append(vector)
        stimuli.append(sequence)

    q_nets = [
        program.net_names[int(slot)] for slot in program.q_slots
    ]
    # Without a clock port the module has no state: its edges only
    # settle the inputs, and every sample is the empty state.
    frames = [
        [{**vector, plan.clock_port: Logic.ZERO} for vector in sequence]
        for sequence in stimuli
    ] if plan.clock_port is not None else stimuli
    traces = BatchSimulator(module, config, lanes=lanes).run(
        frames, clock_port=clock_port, watch=q_nets
    )
    prefixes: list[tuple[dict[str, Logic], ...]] = []
    states: list[dict[str, Logic]] = []
    seen: set[tuple[Logic, ...]] = set()
    for t in range(cycles):
        for lane, trace in enumerate(traces):
            values = trace.samples[t]
            if any(v not in (Logic.ZERO, Logic.ONE) for v in values):
                continue  # an X frontier would not replay dialect-clean
            if values in seen:
                continue
            seen.add(values)
            prefixes.append(tuple(
                dict(sorted(vec.items()))
                for vec in stimuli[lane][: t + 1]
            ))
            states.append(dict(zip(program.flop_names, values)))
    return prefixes, states


def semiformal_verify(
    module: Module,
    properties: PropertySet | Sequence[Property],
    *,
    depth: int,
    config: SimulatorConfig | None = None,
    lanes: int = 32,
    drive_cycles: int = 16,
    max_states: int = 8,
    seed: int = 0,
    workers: int | None = None,
    clock_port: str = CLOCK_PORT,
    reset_frames: int = 1,
    coverage_db: CoverageDatabase | None = None,
) -> SemiformalResult:
    """Random-drive to deep states, then BMC their k-neighborhoods.

    Runs :func:`check_properties` once from reset and once per
    frontier state (up to ``max_states`` distinct binary states from
    ``lanes`` constrained-random lanes run ``drive_cycles`` deep).
    Every counterexample found beyond reset is spliced onto its
    lane's stimulus prefix and replayed on both simulator dialects;
    with ``coverage_db`` given, each replayed trace is banked as a
    directed test named ``bmc_<property>_<fingerprint>``.
    """
    started = time.perf_counter()
    config = config or VENDOR_A_SIM
    props = tuple(properties)
    reports: list[BmcReport] = []
    traces: list[SemiformalTrace] = []
    directed: list[str] = []

    def harvest(
        report: BmcReport, prefix: tuple[dict[str, Logic], ...]
    ) -> None:
        for check in report.checks:
            if check.counterexample is None:
                continue
            if check.status not in ("falsified", "covered"):
                continue
            cex = check.counterexample
            full = Counterexample(
                kind=cex.kind,
                frame=len(prefix) + cex.frame,
                frames=tuple(prefix) + cex.frames,
                nets=cex.nets,
                clock_port=cex.clock_port,
            )
            prop = next(p for p in props if p.name == check.name)
            replay = replay_counterexample(module, prop, full)
            traces.append(SemiformalTrace(
                property_name=check.name,
                kind=cex.kind,
                prefix_cycles=len(prefix),
                frame=full.frame,
                counterexample=full,
                replay=replay,
            ))
            if (coverage_db is not None
                    and check.status == "falsified"):
                test_name = f"bmc_{check.name}_{check.fingerprint}"
                if test_name not in coverage_db.tests:
                    coverage_db.add_test(counterexample_to_test(
                        module, full, name=test_name, config=config
                    ))
                    directed.append(test_name)

    # Round 0: plain BMC from reset.
    base = check_properties(
        module, props, depth=depth, config=config,
        workers=workers, seed=seed, clock_port=clock_port,
        reset_frames=reset_frames,
    )
    reports.append(base)
    harvest(base, ())

    # Rounds 1..n: exhaust the neighborhood of each frontier state.
    prefixes, states = _drive_frontier(
        module, config,
        lanes=lanes, cycles=drive_cycles, seed=seed,
        clock_port=clock_port, reset_frames=reset_frames,
    )
    falsified = {
        c.name for r in reports for c in r.checks
        if c.status == "falsified"
    }
    for prefix, state in zip(
        prefixes[:max_states], states[:max_states]
    ):
        remaining = tuple(
            p for p in props
            if p.kind == "assume" or p.name not in falsified
        )
        if all(p.kind == "assume" for p in remaining):
            break
        report = check_properties(
            module, remaining, depth=depth, config=config,
            workers=workers, seed=seed,
            clock_port=clock_port, reset_frames=0,
            initial_state=state,
        )
        reports.append(report)
        harvest(report, prefix)
        falsified.update(
            c.name for c in report.checks if c.status == "falsified"
        )

    return SemiformalResult(
        module=module.name,
        depth=depth,
        seed=seed,
        lanes=lanes,
        drive_cycles=drive_cycles,
        frontier_states=len(states[:max_states]),
        reports=tuple(reports),
        traces=tuple(traces),
        directed_tests=tuple(directed),
        wall_s=time.perf_counter() - started,
    )
