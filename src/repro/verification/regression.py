"""Regression running and cross-simulator consistency checking.

Experiment E13 lives here: the same suite is executed under both
vendor dialects (:data:`repro.sim.VENDOR_A_SIM` /
:data:`repro.sim.VENDOR_B_SIM`) and per-bench verdicts and traces are
compared.  A bench whose result depends on the simulator is exactly
the "inconsistency between simulators/versions among customer, IP
vendors and us" that cost the paper's team sign-off time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..netlist import Module
from ..perf import fanout, resolve_workers
from ..sim import (
    BatchSimulator,
    SimulatorConfig,
    VENDOR_A_SIM,
    VENDOR_B_SIM,
    diff_traces,
    lane_frames,
)
from .testbench import Testbench, TestbenchResult


@dataclass
class RegressionReport:
    """Suite results under one simulator dialect."""

    dialect: str
    results: list[TestbenchResult] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed(self) -> int:
        return len(self.results) - self.passed

    @property
    def clean(self) -> bool:
        return self.failed == 0

    @property
    def total_duration_s(self) -> float:
        """Wall-clock total across all benches."""
        return sum(r.duration_s for r in self.results)

    def format_report(self) -> str:
        lines = [f"Regression under {self.dialect}: "
                 f"{self.passed}/{len(self.results)} pass "
                 f"({self.total_duration_s * 1e3:.1f} ms)"]
        for result in self.results:
            status = "PASS" if result.passed else "FAIL"
            lines.append(f"  {result.name:30s} {status} "
                         f"{result.duration_s * 1e3:8.1f} ms")
            for mismatch in result.mismatches[:3]:
                lines.append(f"      {mismatch}")
        # Failure-summary footer: the one line a triager reads first.
        if self.clean:
            lines.append(f"  all {len(self.results)} benches passed")
        else:
            failing = [r.name for r in self.results if not r.passed]
            shown = ", ".join(failing[:5])
            if len(failing) > 5:
                shown += f", ... +{len(failing) - 5} more"
            lines.append(f"  FAILURES ({len(failing)}): {shown}")
        return "\n".join(lines)


def _bench_group_worker(task: tuple) -> list[TestbenchResult]:
    """Run a group of benches as lanes of one compiled sweep.

    Every bench in the group shares a clock port and a watch list (the
    grouping of :func:`run_regression`).  Each bench's frames -- its
    own reset preamble, then its stimulus (:func:`repro.sim.lane_frames`)
    -- ride their own lane of one :meth:`BatchSimulator.run`; the
    reset samples are dropped and the checker then reads the trace in
    cycle order.  Verdicts and traces equal the event-simulator oracle
    :func:`repro.oracles.verification.run_testbench` run per bench;
    durations split the group's wall clock evenly (telemetry only).
    """
    module, benches, watch, config = task
    started = time.perf_counter()
    frames = [
        lane_frames(module, bench.stimulus, clock_port=bench.clock_port,
                    reset_port=bench.reset_port,
                    reset_cycles=bench.reset_cycles)
        for bench in benches
    ]
    sim = BatchSimulator(module, config, lanes=len(benches))
    traces = sim.run(frames, clock_port=benches[0].clock_port,
                     watch=watch)
    mismatches: list[list[str]] = []
    for bench, bench_frames, trace in zip(benches, frames, traces):
        del trace.samples[: len(bench_frames) - len(bench.stimulus)]
        mismatches.append([
            f"cycle {cycle}: {error}"
            for cycle, sample in enumerate(trace.samples)
            if (error := bench.checker(cycle, dict(zip(watch, sample))))
        ])
    elapsed = time.perf_counter() - started
    return [
        TestbenchResult(
            name=bench.name,
            passed=not errors,
            cycles=len(bench.stimulus),
            mismatches=errors,
            trace=trace,
            duration_s=elapsed / len(benches),
        )
        for bench, errors, trace in zip(benches, mismatches, traces)
    ]


def run_regression(
    module: Module,
    testbenches: Sequence[Testbench],
    *,
    config: SimulatorConfig | None = None,
    workers: int | None = None,
) -> RegressionReport:
    """Run every bench under one dialect.

    Benches that share a clock port and a watch list form a group,
    and each group's stimuli run as parallel lanes of one
    :class:`~repro.sim.BatchSimulator` sweep.  Verdicts and traces are
    bit-identical to running each bench on the interpreted
    :class:`~repro.sim.LogicSimulator`, the test oracle
    :func:`repro.oracles.verification.run_testbench`.

    ``workers > 1`` splits each group into chunks over the
    deterministic process pool (results merge in suite order, so the
    report is identical to a serial run); benches with unpicklable
    checkers fall back to serial execution automatically.
    """
    config = config or VENDOR_A_SIM
    outputs = tuple(sorted(
        name for name, port in module.ports.items()
        if port.direction == "output"
    ))
    # Group benches by clock and watch list; keep each bench's suite
    # position so results merge back in order.
    groups: dict[tuple, list[int]] = {}
    for index, bench in enumerate(testbenches):
        watch = tuple(bench.watch) if bench.watch is not None else outputs
        groups.setdefault((bench.clock_port, watch), []).append(index)
    # Split each group into at most ``workers`` chunks so the
    # process fan-out still helps when one group dominates.
    n_workers = resolve_workers(workers)
    tasks: list[tuple] = []
    task_indices: list[list[int]] = []
    for (_clock, watch), indices in groups.items():
        n_chunks = min(n_workers, len(indices))
        for chunk in range(n_chunks):
            sel = indices[chunk::n_chunks]
            tasks.append(
                (module, [testbenches[i] for i in sel], watch, config)
            )
            task_indices.append(sel)
    chunked = fanout(_bench_group_worker, tasks, workers=workers,
                     stage="verification.regression")
    ordered: list[TestbenchResult | None] = [None] * len(testbenches)
    for sel, chunk_results in zip(task_indices, chunked):
        for i, result in zip(sel, chunk_results):
            ordered[i] = result
    return RegressionReport(
        dialect=config.name,
        results=[r for r in ordered if r is not None],
    )


@dataclass
class CrossSimReport:
    """Dialect-to-dialect comparison of one suite."""

    report_a: RegressionReport
    report_b: RegressionReport
    verdict_mismatches: list[str] = field(default_factory=list)
    trace_mismatch_counts: dict[str, int] = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return not self.verdict_mismatches and not any(
            count for count in self.trace_mismatch_counts.values()
        )

    @property
    def total_trace_mismatches(self) -> int:
        return sum(self.trace_mismatch_counts.values())

    def format_report(self) -> str:
        lines = [
            "Cross-simulator consistency "
            f"({self.report_a.dialect} vs {self.report_b.dialect})",
            f"  verdict mismatches : {len(self.verdict_mismatches)}",
            f"  trace mismatches   : {self.total_trace_mismatches}",
            f"  consistent         : {self.consistent}",
        ]
        for name in self.verdict_mismatches:
            lines.append(f"    verdict differs: {name}")
        return "\n".join(lines)


def cross_simulator_check(
    module: Module,
    testbenches: Sequence[Testbench],
    *,
    config_a: SimulatorConfig = VENDOR_A_SIM,
    config_b: SimulatorConfig = VENDOR_B_SIM,
    workers: int | None = None,
) -> CrossSimReport:
    """Run the suite under two dialects and reconcile (E13)."""
    report_a = run_regression(module, testbenches, config=config_a,
                              workers=workers)
    report_b = run_regression(module, testbenches, config=config_b,
                              workers=workers)
    cross = CrossSimReport(report_a, report_b)
    for result_a, result_b in zip(report_a.results, report_b.results):
        if result_a.passed != result_b.passed:
            cross.verdict_mismatches.append(result_a.name)
        if result_a.trace is not None and result_b.trace is not None:
            mismatches = diff_traces(result_a.trace, result_b.trace)
            cross.trace_mismatch_counts[result_a.name] = len(mismatches)
    return cross
