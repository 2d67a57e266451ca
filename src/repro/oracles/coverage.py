"""Event-simulator coverage collection: the oracle of lane-packed
closure.

:func:`simulate_with_coverage` runs one constrained-random test on the
interpreted :class:`~repro.sim.LogicSimulator` with a
:class:`~repro.coverage.StructuralObserver` attached and the
covergroup sampled every cycle.
:func:`repro.coverage.closure.simulate_lanes_with_coverage`, the
engine of :func:`repro.coverage.close_coverage`, must return the same
:class:`~repro.coverage.TestCoverage` for every test it packs into a
lane.
"""

from __future__ import annotations

import time

import numpy as np

from ..coverage import (
    CoverGroup,
    StimulusSpec,
    StructuralObserver,
    TestCoverage,
    constrained_stimulus,
    decode_signals,
)
from ..coverage.observer import DEFAULT_EXCLUDE
from ..netlist import Module
from ..sim import LogicSimulator, SimulatorConfig

__all__ = ["simulate_with_coverage"]


def simulate_with_coverage(
    module: Module,
    covergroup: CoverGroup | None,
    *,
    name: str,
    rng: np.random.Generator,
    cycles: int,
    spec: StimulusSpec | None = None,
    config: SimulatorConfig | None = None,
    clock_port: str = "clk",
    reset_port: str | None = "rst_n",
    exclude: tuple[str, ...] = DEFAULT_EXCLUDE,
) -> TestCoverage:
    """Run one constrained-random test with full coverage collection.

    The instrumented counterpart of a bare
    :meth:`~repro.sim.LogicSimulator.run`: a structural observer rides
    the simulator and the covergroup is sampled every cycle from its
    coverpoints' signals.  Returns the test's attribution record.
    """
    started = time.perf_counter()
    stimulus = constrained_stimulus(module, cycles=cycles, rng=rng,
                                    spec=spec)
    sim = LogicSimulator(module, config)
    observer = StructuralObserver(module, exclude=exclude)
    sim.attach_observer(observer)
    bin_hits: dict[str, int] = {}

    ties = {clock_port: 0}
    for port_name, port in module.ports.items():
        if port.direction == "input" and (
                port_name.startswith("scan_") or port_name == "scan_en"):
            ties[port_name] = 0
    has_reset = reset_port is not None and reset_port in module.ports
    if has_reset:
        sim.set_inputs({**ties, reset_port: 0})
        sim.evaluate()
        sim.clock_edge(clock_port)
        sim.set_input(reset_port, 1)

    for vector in stimulus:
        sim.set_inputs({**ties, **vector})
        if has_reset:
            sim.set_input(reset_port, 1)
        sim.clock_edge(clock_port)
        if covergroup is not None:
            values: dict[str, int] = {}
            for point in covergroup.coverpoints:
                if not point.signals:
                    continue
                decoded = decode_signals(point.signals, sim.read)
                if decoded is not None:
                    values[point.name] = decoded
            covergroup.sample(values, bin_hits)

    return TestCoverage(
        name=name,
        cycles=len(stimulus),
        duration_s=time.perf_counter() - started,
        toggled=observer.toggled_nets,
        half_toggled=observer.half_toggled_nets,
        active_flops=observer.active_flops,
        reset_flops=observer.reset_exercised_flops,
        bin_hits=bin_hits,
    )
