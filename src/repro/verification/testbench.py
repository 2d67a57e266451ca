"""Testbench framework.

Section 2's lesson: "We encountered the problem of in-consistent and
in-sufficient test benches.  Therefore, developing test bench as the
project goes is very important."  The framework makes a testbench a
first-class object -- stimulus program, golden reference, pass/fail --
so a regression suite can measure their sufficiency (toggle coverage)
and consistency (same verdict under every simulator dialect).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..netlist import Logic, Module
from ..netlist.clocks import CLOCK_PORT, RESET_PORT, scan_mode_inputs
from ..sim import BatchSimulator, SimulatorConfig, Trace, lane_frames


@dataclass
class TestbenchResult:
    """Verdict of one testbench run."""

    __test__ = False  # not a pytest collection target

    name: str
    passed: bool
    cycles: int
    mismatches: list[str] = field(default_factory=list)
    trace: Trace | None = None
    duration_s: float = 0.0


@dataclass
class Testbench:
    """A reusable stimulus + checker for one module.

    ``stimulus`` is a list of input vectors (one per clock cycle);
    ``checker`` receives (cycle, output values) and returns an error
    string or None.  ``reset_cycles`` (at least one) holds reset low
    first, making the bench dialect-independent (the paper's sign-off
    twist came from benches that were not); ``reset_port=None`` runs
    without reset.  Suites run through
    :func:`~repro.verification.run_regression`.
    """

    name: str
    stimulus: Sequence[Mapping[str, int]]
    checker: Callable[[int, dict[str, Logic]], str | None]
    clock_port: str = CLOCK_PORT
    reset_port: str | None = RESET_PORT
    reset_cycles: int = 1
    watch: tuple[str, ...] | None = None

    __test__ = False  # not a pytest collection target

    def __post_init__(self) -> None:
        if self.reset_cycles < 1:
            raise ValueError("reset_cycles must be >= 1")


def random_stimulus(
    module: Module,
    *,
    cycles: int,
    seed: int,
) -> list[dict[str, int]]:
    """Uniform random vectors over the module's data inputs."""
    rng = np.random.default_rng(seed)
    skip = {CLOCK_PORT, RESET_PORT, *scan_mode_inputs(module)}
    inputs = [
        name
        for name, port in module.ports.items()
        if port.direction == "input" and name not in skip
    ]
    return [
        {name: int(rng.integers(0, 2)) for name in inputs}
        for _ in range(cycles)
    ]


def toggle_coverage(module: Module, testbenches: Sequence[Testbench],
                    config: SimulatorConfig | None = None) -> float:
    """Fraction of nets that toggled (saw both 0 and 1) across a suite.

    The classic cheap sufficiency metric: a bench suite that leaves
    half the design static is "in-sufficient" in exactly the paper's
    sense.  Clock and reset infrastructure nets are excluded from the
    denominator, as coverage tools do.  Each bench runs its frames
    (:func:`~repro.sim.lane_frames`) on a one-lane
    :class:`~repro.sim.BatchSimulator`, sampled after every edge past
    its reset preamble.
    """
    infrastructure = {
        bench.clock_port for bench in testbenches
    } | {
        bench.reset_port for bench in testbenches
        if bench.reset_port is not None
    }
    seen_zero: set[str] = set()
    seen_one: set[str] = set()
    for bench in testbenches:
        frames = lane_frames(module, bench.stimulus,
                             clock_port=bench.clock_port,
                             reset_port=bench.reset_port,
                             reset_cycles=bench.reset_cycles)
        preamble = len(frames) - len(bench.stimulus)
        sim = BatchSimulator(module, config, lanes=1)
        # Lane 0 is bit 0 of each net's word: OR it over the run.
        seen = np.zeros((2, sim.program.n_nets), dtype=np.uint64)

        def observe() -> None:
            if sim.cycle > preamble:
                is0, is1 = sim.net_value_words()
                seen[0] |= is0[:, 0]
                seen[1] |= is1[:, 0]

        sim.run([frames], clock_port=bench.clock_port, watch=(),
                on_edge=observe)
        names = sim.program.net_names
        seen_zero.update(names[i] for i in np.flatnonzero(seen[0] & 1))
        seen_one.update(names[i] for i in np.flatnonzero(seen[1] & 1))
    countable = set(module.nets) - infrastructure
    if not countable:
        return 0.0
    return len(seen_zero & seen_one & countable) / len(countable)
