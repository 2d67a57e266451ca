"""Event-simulator coverage collection: the oracle of word-mask
coverage.

:class:`StructuralObserver` samples one
:class:`~repro.sim.LogicSimulator` after every clock edge, a set
update per net and flop.  :func:`simulate_with_coverage` runs one
constrained-random test on the interpreted simulator, calls the
observer after each edge and samples the covergroup every cycle.
Production collects structural coverage only as word masks over the
lanes of a compiled simulator: every :class:`~repro.coverage.TestCoverage`
that :func:`repro.coverage.closure.simulate_lanes_with_coverage` (the
engine of :func:`repro.coverage.close_coverage`) returns for a lane,
and the one :func:`repro.formal.counterexample_to_test` returns for a
counterexample, must equal what this observer collects on the same
stimulus.
"""

from __future__ import annotations

import time

import numpy as np

from ..coverage import (
    CoverGroup,
    StimulusSpec,
    TestCoverage,
    constrained_stimulus,
    decode_signals,
)
from ..netlist import Logic, Module
from ..sim import LogicSimulator, SimulatorConfig

__all__ = ["StructuralObserver", "simulate_with_coverage"]

#: Clock, reset and scan enable: nets left out of the toggle
#: denominator (with every ``scan_*`` net), as coverage tools do.
DEFAULT_EXCLUDE = ("clk", "rst_n", "scan_en")


class StructuralObserver:
    """Per-simulation collector of toggle and flop coverage.

    Call it with the simulator after every clock edge: it records
    which nets have been seen at 0 and at 1 (net *toggle* coverage),
    which flip-flops have actually changed state (flop *activity*),
    and which resettable flops have had their asynchronous reset
    exercised (flop *reset* coverage).  One instance accumulates over
    however many edges it sees; use a fresh one per test for per-test
    attribution.
    """

    def __init__(
        self,
        module: Module,
        *,
        exclude: tuple[str, ...] = DEFAULT_EXCLUDE,
    ) -> None:
        excluded = set(exclude)
        excluded.update(name for name in module.nets
                        if name.startswith("scan_"))
        #: Nets counting toward the toggle denominator.
        self.countable: frozenset[str] = frozenset(
            set(module.nets) - excluded
        )
        self._flops = tuple(
            (inst.name, inst.net_of("Q"),
             inst.net_of(inst.cell.reset_pin)
             if inst.cell.reset_pin is not None else None)
            for inst in module.sequential_instances
        )
        #: All flop instance names (the activity denominator).
        self.flop_universe: frozenset[str] = frozenset(
            name for name, _, _ in self._flops
        )
        #: Flops that have an asynchronous reset pin (reset denominator).
        self.reset_flop_universe: frozenset[str] = frozenset(
            name for name, _, rst in self._flops if rst is not None
        )
        self.seen_zero: set[str] = set()
        self.seen_one: set[str] = set()
        self.flop_seen_zero: set[str] = set()
        self.flop_seen_one: set[str] = set()
        self.flops_reset: set[str] = set()
        self.edges_observed = 0

    def __call__(self, sim: LogicSimulator) -> None:
        """Sample the simulator state (call after each clock edge)."""
        seen_zero = self.seen_zero
        seen_one = self.seen_one
        for net, value in sim.net_values.items():
            if value is Logic.ZERO:
                seen_zero.add(net)
            elif value is Logic.ONE:
                seen_one.add(net)
        net_values = sim.net_values
        flop_state = sim.flop_state
        for name, _q_net, reset_net in self._flops:
            state = flop_state[name]
            if state is Logic.ZERO:
                self.flop_seen_zero.add(name)
            elif state is Logic.ONE:
                self.flop_seen_one.add(name)
            if reset_net is not None and \
                    net_values[reset_net] is Logic.ZERO:
                self.flops_reset.add(name)
        self.edges_observed += 1

    # -- results -----------------------------------------------------

    @property
    def toggled_nets(self) -> frozenset[str]:
        """Countable nets observed at both 0 and 1."""
        return frozenset(self.seen_zero & self.seen_one & self.countable)

    @property
    def half_toggled_nets(self) -> frozenset[str]:
        """Countable nets seen at exactly one of the two levels --
        'near miss' evidence used to rank coverage holes."""
        return frozenset(
            (self.seen_zero ^ self.seen_one) & self.countable
        )

    @property
    def active_flops(self) -> frozenset[str]:
        """Flops whose state visited both 0 and 1."""
        return frozenset(self.flop_seen_zero & self.flop_seen_one)

    @property
    def reset_exercised_flops(self) -> frozenset[str]:
        """Resettable flops that saw their reset asserted."""
        return frozenset(self.flops_reset)

    def toggle_coverage(self) -> float:
        """Fraction of countable nets that toggled."""
        if not self.countable:
            return 0.0
        return len(self.toggled_nets) / len(self.countable)


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
    :meth:`~repro.sim.LogicSimulator.run`: a :class:`StructuralObserver`
    samples the simulator after every clock edge and the covergroup is
    sampled every cycle from its coverpoints' signals.  Returns the
    test's attribution record.
    """
    started = time.perf_counter()
    stimulus = constrained_stimulus(module, cycles=cycles, rng=rng,
                                    spec=spec)
    sim = LogicSimulator(module, config)
    observer = StructuralObserver(module, exclude=exclude)
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
        observer(sim)
        sim.set_input(reset_port, 1)

    for vector in stimulus:
        sim.set_inputs({**ties, **vector})
        if has_reset:
            sim.set_input(reset_port, 1)
        sim.clock_edge(clock_port)
        observer(sim)
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
