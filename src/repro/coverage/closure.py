"""The coverage-closure regression loop.

This is the workload the paper's Section 3 never had a number for:
*when is verification done?*  The loop generates constrained-random
tests round by round, fans the simulations out across processes via
:func:`repro.perf.fanout`, merges the per-test coverage into one
:class:`~repro.coverage.database.CoverageDatabase`, and stops when a
configurable toggle+functional target is reached or coverage
plateaus.  The result carries the graded test list, the ranked hole
list, a per-round progression table, and per-stage perf metrics.

Determinism contract (inherited from PR 1): test *i* of the campaign
always simulates with seed stream ``SeedSequence(seed).spawn()[i]``
and results merge in task order, so the final database -- down to its
canonical JSON bytes -- is identical for any ``workers`` value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..netlist import Module, make_default_library, pipeline_block
from ..perf import REGISTRY, fanout, resolve_workers, stage_timer
from ..sim import BatchSimulator, SimulatorConfig, VENDOR_A_SIM, lane_frames
from ..verification import RegressionReport, TestbenchResult
from .database import CoverageDatabase, TestCoverage, structural_universe
from .functional import (
    CoverCross,
    CoverGroup,
    Coverpoint,
    decode_signals,
    range_bins,
)
from .stimulus import (
    PortConstraint,
    StimulusSpec,
    constrained_stimulus,
    spawn_test_seeds,
)


@dataclass(frozen=True)
class ClosureConfig:
    """Knobs of the closure loop.

    The loop stops as soon as toggle *and* functional coverage meet
    their targets, or after ``plateau_rounds`` consecutive rounds add
    no new coverage items, or at ``max_rounds``.
    """

    toggle_target: float = 0.85
    functional_target: float = 1.0
    tests_per_round: int = 8
    cycles_per_test: int = 48
    max_rounds: int = 12
    plateau_rounds: int = 3
    at_least: int = 1


@dataclass
class ClosureRound:
    """Coverage progression after one round of tests."""

    index: int
    tests: int
    new_items: int
    toggle_coverage: float
    functional_coverage: float
    seconds: float


@dataclass
class ClosureResult:
    """Everything the closure loop learned."""

    database: CoverageDatabase
    rounds: list[ClosureRound]
    config: ClosureConfig
    reached: bool
    stop_reason: str
    regression: RegressionReport
    seed: int

    def format_report(self, *, holes_limit: int = 8,
                      grades_limit: int = 8) -> str:
        """Multi-section human-readable closure report."""
        db = self.database
        lines = [
            f"Coverage closure on {db.design!r} (seed {self.seed})",
            f"  target  : toggle >= {self.config.toggle_target * 100:.1f}%"
            f", functional >= {self.config.functional_target * 100:.1f}%",
            f"  outcome : {'TARGET REACHED' if self.reached else 'STOPPED'}"
            f" ({self.stop_reason}) after {len(self.rounds)} rounds, "
            f"{len(db.tests)} tests",
            f"  {db.format_summary()}",
            "",
            "  round  tests  new-items  toggle%  functional%  seconds",
        ]
        for rnd in self.rounds:
            lines.append(
                f"  {rnd.index:5d}  {rnd.tests:5d}  {rnd.new_items:9d}"
                f"  {rnd.toggle_coverage * 100:7.1f}"
                f"  {rnd.functional_coverage * 100:11.1f}"
                f"  {rnd.seconds:7.3f}"
            )
        grades = db.grade_tests()
        keepers = [g for g in grades if g.new_items > 0]
        lines += [
            "",
            f"  graded tests (minimised suite: {len(keepers)}"
            f"/{len(grades)} tests carry all coverage):",
        ]
        for grade in grades[:grades_limit]:
            lines.append(
                f"    {grade.name:16s} +{grade.new_items:5d} items "
                f"-> toggle {grade.cumulative_toggle * 100:5.1f}% "
                f"functional {grade.cumulative_functional * 100:5.1f}%"
            )
        holes = db.holes(limit=holes_limit)
        lines.append("")
        if holes:
            lines.append(f"  top holes ({len(db.holes())} total):")
            for hole in holes:
                marker = "~" if hole.near_miss else " "
                lines.append(
                    f"   {marker} {hole.kind:5s} {hole.name:24s} {hole.note}"
                )
        else:
            lines.append("  no holes: the coverage model is closed.")
        perf_lines = []
        for name, row in REGISTRY.as_dict().items():
            if not name.startswith("coverage."):
                continue
            extras = " ".join(
                f"{key}={row[key]:g}" for key in sorted(row)
                if key not in ("calls", "seconds") and row[key]
            )
            perf_lines.append(
                f"    {name:24s} {int(row['calls']):4d} calls "
                f"{row['seconds']:8.3f} s"
                + (f"  {extras}" if extras else "")
            )
        if perf_lines:
            lines += ["", "  perf stages:"] + perf_lines
        lines += ["", self.regression.format_report()]
        return "\n".join(lines)


class _LaneCoverage:
    """Structural coverage of every lane of one :class:`BatchSimulator`.

    Call :meth:`observe` after each clock edge: one OR per value plane
    folds every lane's net values, flop states and reset levels into
    word masks.  :meth:`tests` unpacks them into each lane's toggled,
    half-toggled, active and reset sets -- what the oracle's per-edge
    observer (:mod:`repro.oracles.coverage`) collects on the event
    simulator.
    """

    def __init__(self, sim: BatchSimulator) -> None:
        self._sim = sim
        program = sim.program
        countable, flops = structural_universe(sim.module)
        self._countable_rows = [
            (i, name) for i, name in enumerate(program.net_names)
            if name in countable
        ]
        self._reset_flops = [
            name for name, _q, reset in flops if reset is not None
        ]
        self._reset_slots = np.array(
            [program.net_index[reset] for _, _q, reset in flops
             if reset is not None],
            dtype=np.intp,
        )
        self._acc0 = np.zeros((program.n_nets, sim.words), dtype=np.uint64)
        self._acc1 = np.zeros_like(self._acc0)
        n_flops = len(program.flop_names)
        self._facc0 = np.zeros((n_flops, sim.words), dtype=np.uint64)
        self._facc1 = np.zeros_like(self._facc0)
        self._racc = np.zeros((len(self._reset_flops), sim.words),
                              dtype=np.uint64)

    def observe(self) -> None:
        """Fold the simulator's current state into the masks."""
        is0, is1 = self._sim.net_value_words()
        self._acc0 |= is0
        self._acc1 |= is1
        f0, f1 = self._sim.flop_state_words()
        self._facc0 |= f0
        self._facc1 |= f1
        if self._reset_slots.size:
            self._racc |= is0[self._reset_slots]

    def tests(
        self,
        names: Sequence[str],
        *,
        cycles: int,
        duration_s: float,
        bin_hits: Sequence[dict[str, int]] | None = None,
    ) -> list[TestCoverage]:
        """One record per lane, lane *i* named ``names[i]`` and carrying
        ``bin_hits[i]`` when given."""
        lanes = self._sim.lanes

        def lanes_of(words: np.ndarray) -> np.ndarray:
            return np.unpackbits(
                words.view(np.uint8), axis=1, bitorder="little"
            )[:, :lanes].astype(bool)

        a0, a1 = lanes_of(self._acc0), lanes_of(self._acc1)
        toggled, half = a0 & a1, a0 ^ a1
        active = lanes_of(self._facc0) & lanes_of(self._facc1)
        reset = lanes_of(self._racc)
        flop_names = self._sim.program.flop_names
        return [
            TestCoverage(
                name=name,
                cycles=cycles,
                duration_s=duration_s,
                toggled=frozenset(
                    net for i, net in self._countable_rows
                    if toggled[i, lane]),
                half_toggled=frozenset(
                    net for i, net in self._countable_rows
                    if half[i, lane]),
                active_flops=frozenset(
                    flop for i, flop in enumerate(flop_names)
                    if active[i, lane]),
                reset_flops=frozenset(
                    flop for i, flop in enumerate(self._reset_flops)
                    if reset[i, lane]),
                bin_hits=bin_hits[lane] if bin_hits is not None else {},
            )
            for lane, name in enumerate(names)
        ]


def simulate_lanes_with_coverage(
    module: Module,
    covergroup: CoverGroup | None,
    *,
    names: list[str],
    seed_seqs: list,
    cycles: int,
    spec: StimulusSpec | None = None,
    config: SimulatorConfig | None = None,
) -> list[TestCoverage]:
    """Run one constrained-random test per lane of a compiled sweep.

    Lane *i* replays test ``names[i]`` with rng stream
    ``seed_seqs[i]``, and every returned :class:`TestCoverage` is
    identical to the one the event-simulator oracle
    :func:`repro.oracles.coverage.simulate_with_coverage` produces for
    that stream.
    Structural coverage accumulates as word masks (:class:`_LaneCoverage`,
    one OR over the value planes after every edge, reset edges
    included); the covergroup decodes each lane's trace of its
    signals after the sweep, past the reset samples, through the same
    :func:`decode_signals` helper.
    """
    lanes = len(names)
    started = time.perf_counter()
    frames = [
        lane_frames(module, constrained_stimulus(
            module, cycles=cycles, rng=np.random.default_rng(seed_seq),
            spec=spec))
        for seed_seq in seed_seqs
    ]
    sim = BatchSimulator(module, config, lanes=lanes)
    cover = _LaneCoverage(sim)
    watch = covergroup.signals_needed if covergroup is not None else ()
    traces = sim.run(frames, watch=watch, on_edge=cover.observe)

    bin_hits: list[dict[str, int]] = [{} for _ in range(lanes)]
    if covergroup is not None:
        points = [p for p in covergroup.coverpoints if p.signals]
        for trace, hits in zip(traces, bin_hits):
            for sample in trace.samples[len(trace) - cycles:]:
                levels = dict(zip(watch, sample))
                values: dict[str, int] = {}
                for point in points:
                    decoded = decode_signals(point.signals,
                                             levels.__getitem__)
                    if decoded is not None:
                        values[point.name] = decoded
                covergroup.sample(values, hits)

    return cover.tests(
        names, cycles=cycles,
        duration_s=(time.perf_counter() - started) / lanes,
        bin_hits=bin_hits,
    )


def _compiled_closure_worker(task) -> list[TestCoverage]:
    """Module-level worker: one lane-packed chunk of a closure round."""
    module, covergroup, names, seed_seqs, cycles, spec, config = task
    return simulate_lanes_with_coverage(
        module, covergroup, names=list(names), seed_seqs=list(seed_seqs),
        cycles=cycles, spec=spec, config=config,
    )


def close_coverage(
    module: Module,
    covergroup: CoverGroup | None = None,
    *,
    seed: int = 0,
    config: ClosureConfig | None = None,
    spec: StimulusSpec | None = None,
    sim_config: SimulatorConfig | None = None,
    workers: int | None = None,
) -> ClosureResult:
    """Drive constrained-random rounds until coverage closes.

    Each round spawns ``tests_per_round`` fresh seed streams (children
    ``total_tests..`` of ``SeedSequence(seed)``), packs the tests into
    lanes of :class:`~repro.sim.BatchSimulator` sweeps -- one chunk
    per worker, fanned out across processes -- and merges in task
    order.  Each test rides its own lane with its own seed stream, so
    the resulting database is bit-identical for any ``workers`` value.
    """
    config = config or ClosureConfig()
    sim_config = sim_config or VENDOR_A_SIM
    database = CoverageDatabase.for_module(
        module, covergroup, at_least=config.at_least)
    rounds: list[ClosureRound] = []
    results: list[TestbenchResult] = []
    reached = False
    stop_reason = "max_rounds"
    stale_rounds = 0
    total_tests = 0

    for round_index in range(config.max_rounds):
        round_started = time.perf_counter()
        seeds = spawn_test_seeds(seed, config.tests_per_round,
                                 spawn_offset=total_tests)
        names = [
            f"r{round_index:02d}_t{test_index:02d}"
            for test_index in range(len(seeds))
        ]
        total_tests += len(seeds)
        before = len(database.covered_items())
        # Pack the round into lane-parallel chunks, one per worker;
        # each test rides its own lane with its own seed stream, so
        # chunking cannot change any test's result.
        n_chunks = min(resolve_workers(workers), len(seeds)) or 1
        bounds = np.linspace(0, len(seeds), n_chunks + 1, dtype=int)
        chunk_tasks = [
            (module, covergroup, tuple(names[lo:hi]),
             tuple(seeds[lo:hi]), config.cycles_per_test, spec,
             sim_config)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        chunked = fanout(_compiled_closure_worker, chunk_tasks,
                         workers=workers, stage="coverage.simulate")
        round_tests = [test for chunk in chunked for test in chunk]
        for test in round_tests:
            with stage_timer("coverage.merge"):
                database.add_test(test)
                results.append(TestbenchResult(
                    name=test.name, passed=True, cycles=test.cycles,
                    duration_s=test.duration_s,
                ))
        new_items = len(database.covered_items()) - before
        rounds.append(ClosureRound(
            index=round_index,
            tests=len(names),
            new_items=new_items,
            toggle_coverage=database.toggle_coverage,
            functional_coverage=database.functional_coverage,
            seconds=time.perf_counter() - round_started,
        ))
        REGISTRY.count("coverage.closure", tests=len(names),
                       cycles=len(names) * config.cycles_per_test)
        if (database.toggle_coverage >= config.toggle_target
                and database.functional_coverage
                >= config.functional_target):
            reached = True
            stop_reason = "target reached"
            break
        stale_rounds = stale_rounds + 1 if new_items == 0 else 0
        if stale_rounds >= config.plateau_rounds:
            stop_reason = (f"plateau ({config.plateau_rounds} rounds "
                           "without new coverage)")
            break

    regression = RegressionReport(dialect=sim_config.name, results=results)
    return ClosureResult(
        database=database,
        rounds=rounds,
        config=config,
        reached=reached,
        stop_reason=stop_reason,
        regression=regression,
        seed=seed,
    )


def _balanced_outputs(module: Module, count: int, *,
                      spec: StimulusSpec | None = None,
                      cycles: int = 512, seed: int = 0) -> list[str]:
    """The ``count`` output ports closest to a 50/50 value split under
    a short constrained-random probe run.

    Random-cloud netlists leave some outputs constant or heavily
    biased; binning such a bit would bake unreachable bins into the
    coverage model.  The bench covergroup is therefore calibrated
    against the most *balanced* bits -- the ones whose value actually
    carries information under the bench's own stimulus.  The probe is
    deterministic (fixed seed), so the selection is too.
    """
    from ..netlist import Logic

    outputs = sorted(
        name for name, port in module.ports.items()
        if port.direction == "output"
    )
    stimulus = constrained_stimulus(module, cycles=cycles,
                                    rng=np.random.default_rng(seed),
                                    spec=spec)
    frames = lane_frames(module, stimulus)
    trace = BatchSimulator(module, lanes=1).run([frames],
                                                watch=outputs)[0]
    del trace.samples[: len(frames) - cycles]  # the reset edge
    total = len(trace)
    ones = {
        name: sum(value is Logic.ONE for value in trace.column(name))
        for name in outputs
    }
    # Most balanced first; name breaks ties so selection is stable.
    ranked = sorted(outputs,
                    key=lambda n: (abs(ones[n] / total - 0.5), n))
    chosen = ranked[:count]
    worst = max(abs(ones[n] / total - 0.5) for n in chosen)
    if worst >= 0.5:
        raise ValueError(
            f"fewer than {count} non-constant outputs under probe "
            f"stimulus (worst bias {worst:.2f})"
        )
    return chosen


def dsc_closure_bench(*, seed: int = 3) -> tuple[Module, CoverGroup,
                                                 StimulusSpec]:
    """The DSC SOC representative bench for coverage closure.

    The same ``dsc_rep`` pipeline block the fault-simulation and
    throughput benchmarks use (the paper's representative-block
    methodology), plus a covergroup over an 8-bit output word -- low
    and high nibbles in coarse range bins and their cross, standing in
    for the JPEG datapath's value coverage -- and a stimulus spec that
    holds the first two inputs in bursts the way control strobes
    behave.  The covered bits are the eight most *balanced* outputs
    under the bench stimulus (see :func:`_balanced_outputs`); the high
    nibble uses coarser half-range bins because its residual bits are
    correlated, which would make fine-grained cross corners
    unreachable.
    """
    library = make_default_library(0.25)
    module = pipeline_block("dsc_rep", library, stages=3, width=24,
                            cloud_gates=120, seed=seed)
    spec = StimulusSpec(constraints={
        "in0": PortConstraint(one_weight=0.7, hold_min=2, hold_max=5),
        "in1": PortConstraint(one_weight=0.3, hold_min=2, hold_max=4),
    })
    bits = _balanced_outputs(module, 8, spec=spec)
    lo = Coverpoint("out_lo", range_bins(0, 15, 4),
                    signals=tuple(bits[:4]))
    hi = Coverpoint("out_hi", range_bins(0, 15, 2),
                    signals=tuple(bits[4:]))
    covergroup = CoverGroup(
        "dsc_out",
        coverpoints=(lo, hi),
        crosses=(CoverCross("out_lo_x_hi", "out_lo", "out_hi"),),
    )
    return module, covergroup, spec
