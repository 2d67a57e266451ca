"""Event-simulator regression and divergence: the oracles of the
compiled verification sweeps.

:func:`run_testbench` runs one :class:`~repro.verification.Testbench`
on the interpreted :class:`~repro.sim.LogicSimulator`.
:func:`repro.verification.run_regression`, which runs a suite as lanes
of one :class:`~repro.sim.BatchSimulator` sweep, must reproduce every
bench's verdict, mismatch list and trace.

:func:`observed_divergent_nets` runs one interpreted simulator pair,
one per dialect, on one seed's stimulus.  Its union over seeds is what
:func:`repro.verification.crossval.observed_divergent_nets_lanes`, the
observation behind :func:`repro.verification.cross_validate_divergence`,
must return.
"""

from __future__ import annotations

import time
from typing import Set

import numpy as np

from ..netlist import Module
from ..sim import (
    LogicSimulator,
    SimulatorConfig,
    Trace,
    VENDOR_A_SIM,
    VENDOR_B_SIM,
)
from ..verification import Testbench, TestbenchResult

__all__ = ["observed_divergent_nets", "run_testbench"]


def run_testbench(
    bench: Testbench,
    module: Module,
    config: SimulatorConfig | None = None,
) -> TestbenchResult:
    """Execute ``bench`` against a module under one simulator dialect."""
    started = time.perf_counter()
    sim = LogicSimulator(module, config)
    ties = {bench.clock_port: 0}
    for port_name, port in module.ports.items():
        if port.direction != "input":
            continue
        if port_name.startswith("scan_") or port_name == "scan_en":
            ties[port_name] = 0
    if bench.reset_port and bench.reset_port in module.ports:
        sim.set_inputs({**ties, bench.reset_port: 0})
        sim.evaluate()
        for _ in range(bench.reset_cycles):
            sim.clock_edge(bench.clock_port)
        sim.set_input(bench.reset_port, 1)

    watch = bench.watch
    if watch is None:
        watch = tuple(sorted(
            name for name, port in module.ports.items()
            if port.direction == "output"
        ))
    trace = Trace(signals=watch)
    mismatches: list[str] = []
    for cycle, vector in enumerate(bench.stimulus):
        sim.set_inputs({**ties, **vector})
        if bench.reset_port and bench.reset_port in module.ports:
            sim.set_input(bench.reset_port, 1)
        sim.clock_edge(bench.clock_port)
        outputs = {s: sim.read(s) for s in watch}
        trace.record(outputs)
        error = bench.checker(cycle, outputs)
        if error:
            mismatches.append(f"cycle {cycle}: {error}")
    return TestbenchResult(
        name=bench.name,
        passed=not mismatches,
        cycles=len(bench.stimulus),
        mismatches=mismatches,
        trace=trace,
        duration_s=time.perf_counter() - started,
    )


def observed_divergent_nets(
    module: Module,
    *,
    cycles: int = 8,
    settle_vectors: int = 4,
    seed: int = 0,
    clock_port: str = "clk",
    reset_port: str = "rst_n",
    config_a: SimulatorConfig = VENDOR_A_SIM,
    config_b: SimulatorConfig = VENDOR_B_SIM,
) -> Set[str]:
    """Nets that actually differed between the two dialects.

    Follows the stimulus protocol of :mod:`repro.verification.crossval`
    for one seed.
    """
    sim_a = LogicSimulator(module, config_a)
    sim_b = LogicSimulator(module, config_b)
    rng = np.random.default_rng(seed)

    ties = {}
    if clock_port in module.ports:
        ties[clock_port] = 0
    for name, port in module.ports.items():
        if port.direction == "input" and (
            name.startswith("scan_") or name == "scan_en"
        ):
            ties[name] = 0
    data_ports = [
        name
        for name, port in module.ports.items()
        if port.direction == "input"
        and name not in ties and name != reset_port
    ]
    has_reset = (
        reset_port in module.ports
        and module.ports[reset_port].direction == "input"
    )

    divergent: Set[str] = set()

    def snapshot() -> None:
        values_a, values_b = sim_a.net_values, sim_b.net_values
        for net in module.nets:
            if values_a[net] is not values_b[net]:
                divergent.add(net)

    def apply(vector: dict) -> None:
        for sim in (sim_a, sim_b):
            sim.set_inputs(vector)
            sim.evaluate()

    # Power-on settle phase: reset discipline first, then a few data
    # vectors sampled before any clock edge.
    for index in range(max(1, settle_vectors)):
        vector = {name: int(rng.integers(0, 2)) for name in data_ports}
        vector.update(ties)
        if has_reset:
            vector[reset_port] = 0 if index == 0 else 1
        apply(vector)
        snapshot()

    # Clocked phase.
    can_clock = (
        clock_port in module.ports
        and module.ports[clock_port].direction == "input"
    )
    for _ in range(cycles):
        vector = {name: int(rng.integers(0, 2)) for name in data_ports}
        vector.update(ties)
        if has_reset:
            vector[reset_port] = 1
        apply(vector)
        if can_clock:
            sim_a.clock_edge(clock_port)
            sim_b.clock_edge(clock_port)
        snapshot()
    return divergent
