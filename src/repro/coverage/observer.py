"""Structural coverage collection via simulator observers.

A :class:`StructuralObserver` attaches to one lane of a
:class:`repro.sim.BatchSimulator` (``sim.attach_observer(obs,
lane=i)``) or to a :class:`repro.sim.LogicSimulator`
(``sim.attach_observer(obs)``) and, after every clock edge, records
which nets have been seen at 0 and at 1 (net *toggle* coverage),
which flip-flops have actually changed state (flop *activity*), and
which resettable flops have had their asynchronous reset exercised
(flop *reset* coverage).

The un-instrumented simulator pays only an empty-list check per clock
edge; all bookkeeping cost is borne by the observer, and the
instrumented/bare throughput ratio is tracked by
``benchmarks/run_bench.py`` (see PERFORMANCE.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..netlist import Logic, Module

if TYPE_CHECKING:
    from ..sim import LogicSimulator

#: Ports/nets excluded from the toggle denominator by default -- the
#: clock/reset/scan infrastructure coverage tools also exclude.
DEFAULT_EXCLUDE = ("clk", "rst_n", "scan_en")


class StructuralObserver:
    """Per-simulation collector of toggle and flop coverage.

    One observer instance accumulates over however many clock edges it
    sees; attach a fresh instance per test to get per-test attribution
    (:class:`repro.coverage.database.TestCoverage`).
    """

    def __init__(
        self,
        module: Module,
        *,
        exclude: tuple[str, ...] = DEFAULT_EXCLUDE,
    ) -> None:
        excluded = set(exclude)
        excluded.update(
            name for name in module.nets
            if name.startswith("scan_") or name == "scan_en"
        )
        #: Nets counting toward the toggle denominator.
        self.countable: frozenset[str] = frozenset(
            set(module.nets) - excluded
        )
        self._flops = [
            (inst.name, inst.net_of("Q"),
             inst.net_of(inst.cell.reset_pin)
             if inst.cell.reset_pin is not None else None)
            for inst in module.sequential_instances
        ]
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

    # -- the observer protocol ---------------------------------------

    def __call__(self, sim: LogicSimulator) -> None:
        """Sample the simulator state (fired after each clock edge).

        ``sim`` is a ``LogicSimulator`` or a batch lane view, which
        exposes the same ``net_values`` and ``flop_state``.
        """
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
