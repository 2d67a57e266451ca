"""Monolithic worklist fixpoint: the oracle of the cone-by-cone solve.

:class:`FixpointEngine` runs one abstract domain of
:mod:`repro.analysis.domains` to its least fixpoint over a whole module
in one worklist, calling the per-instance forms of the
:class:`~repro.analysis.engine.AbstractDomain` protocol.  Production
solves the same fixpoint cone by cone
(:func:`repro.analysis.run_fixpoint_cones`); the tests require both to
agree on every net value and flop state.

An instance re-enters the worklist only when one of its input nets
changed, so the engine terminates and the result is the unique least
fixpoint.  The initial worklist is seeded in topological combinational
order (falling back to name order when the module has a combinational
loop) followed by the flops sorted by name: topological seeding means
most gates are visited exactly once before their value is final.
"""

from __future__ import annotations

from collections import deque
from typing import Dict

from ..analysis.engine import AbstractDomain, FixpointResult, Value
from ..netlist import Module
from ..netlist.netlist import NetlistError

__all__ = ["FixpointEngine", "run_fixpoint"]


class FixpointEngine:
    """Runs one abstract domain to fixpoint over one module."""

    def __init__(self, module: Module, domain: AbstractDomain) -> None:
        self.module = module
        self.domain = domain

    def run(self) -> FixpointResult:
        module, domain = self.module, self.domain
        bottom = domain.bottom
        values: Dict[str, Value] = {name: bottom for name in module.nets}
        state: Dict[str, Value] = {}

        consumers: Dict[str, list[str]] = {}
        for inst in module.instances.values():
            for pin in inst.cell.input_pins:
                consumers.setdefault(inst.net_of(pin), []).append(inst.name)

        work: deque[str] = deque()
        in_work: set[str] = set()

        def push(name: str) -> None:
            if name not in in_work:
                in_work.add(name)
                work.append(name)

        def raise_net(name: str, value: Value) -> None:
            joined = values[name] | value
            if joined != values[name]:
                values[name] = joined
                for consumer in consumers.get(name, ()):
                    push(consumer)

        # Boundary seeds: driven ports, then floating-but-loaded nets.
        for name, port in module.ports.items():
            if port.direction in ("input", "inout"):
                raise_net(name, domain.input_value(name))
        for net in module.nets.values():
            if not net.is_driven and net.fanout > 0:
                raise_net(net.name, domain.undriven_value(net))

        # Sequential state seeds: power-on values drive the Q nets.
        flops = sorted(module.sequential_instances, key=lambda i: i.name)
        for flop in flops:
            state[flop.name] = state.get(flop.name, bottom) | \
                domain.flop_initial(flop)
            for pin in flop.cell.output_pins:
                raise_net(flop.net_of(pin), state[flop.name])

        # Initial schedule: combinational logic in topological order
        # (every instance once, even those a seed did not reach -- tie
        # cells and spares have no inputs to wake them), then flops.
        try:
            ordered = module.topological_combinational_order()
        except NetlistError:
            ordered = sorted(
                module.combinational_instances, key=lambda i: i.name
            )
        for inst in ordered:
            push(inst.name)
        for flop in flops:
            push(flop.name)

        visits = 0
        while work:
            name = work.popleft()
            in_work.discard(name)
            visits += 1
            inst = module.instances[name]
            cell = inst.cell
            if cell.is_sequential:
                pins = {
                    pin: values[inst.net_of(pin)] for pin in cell.input_pins
                }
                nxt = domain.flop_next(inst, pins, state[name])
                joined = state[name] | nxt
                if joined != state[name]:
                    state[name] = joined
                    for pin in cell.output_pins:
                        raise_net(inst.net_of(pin), joined)
                    # State feeds back into next-state (e.g. a latch
                    # holding): revisit until stable.
                    push(name)
            else:
                inputs = tuple(
                    values[inst.net_of(pin)] for pin in cell.input_pins
                )
                result = domain.transfer(inst, inputs)
                for pin in cell.output_pins:
                    raise_net(inst.net_of(pin), result)

        return FixpointResult(
            net_values=values, flop_state=state, visits=visits
        )


def run_fixpoint(module: Module, domain: AbstractDomain) -> FixpointResult:
    """Convenience wrapper: one engine run."""
    return FixpointEngine(module, domain).run()
