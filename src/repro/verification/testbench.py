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
from ..sim import BatchSimulator, SimulatorConfig, Trace


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
    string or None.  ``reset_cycles`` holds reset low first, making the
    bench dialect-independent (the paper's sign-off twist came from
    benches that were not).  Suites run through
    :func:`~repro.verification.run_regression`.
    """

    name: str
    stimulus: Sequence[Mapping[str, int]]
    checker: Callable[[int, dict[str, Logic]], str | None]
    clock_port: str = "clk"
    reset_port: str | None = "rst_n"
    reset_cycles: int = 1
    watch: tuple[str, ...] | None = None

    __test__ = False  # not a pytest collection target


def random_stimulus(
    module: Module,
    *,
    cycles: int,
    seed: int,
    exclude: tuple[str, ...] = ("clk", "rst_n", "scan_en"),
) -> list[dict[str, int]]:
    """Uniform random vectors over the module's data inputs."""
    rng = np.random.default_rng(seed)
    inputs = [
        name
        for name, port in module.ports.items()
        if port.direction == "input" and name not in exclude
        and not name.startswith("scan_in")
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
    denominator, as coverage tools do.  Each bench runs on a one-lane
    :class:`~repro.sim.BatchSimulator`.
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
        sim = BatchSimulator(module, config, lanes=1)
        ties = {bench.clock_port: 0}
        if bench.reset_port and bench.reset_port in module.ports:
            sim.set_inputs({**ties, bench.reset_port: 0})
            sim.evaluate()
            sim.clock_edge(bench.clock_port)
            sim.set_input(bench.reset_port, 1)
        # Lane 0 is bit 0 of each net's word: OR it over the run.
        zero = np.zeros(sim.program.n_nets, dtype=np.uint64)
        one = np.zeros_like(zero)
        for vector in bench.stimulus:
            filtered = {k: v for k, v in vector.items()
                        if k in module.ports
                        and module.ports[k].direction == "input"}
            sim.set_inputs(filtered)
            sim.clock_edge(bench.clock_port)
            is0, is1 = sim.net_value_words()
            zero |= is0[:, 0]
            one |= is1[:, 0]
        names = sim.program.net_names
        seen_zero.update(names[i] for i in np.flatnonzero(zero & 1))
        seen_one.update(names[i] for i in np.flatnonzero(one & 1))
    countable = set(module.nets) - infrastructure
    if not countable:
        return 0.0
    return len(seen_zero & seen_one & countable) / len(countable)
