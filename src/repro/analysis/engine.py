"""Worklist fixpoint engine over the flat netlist IR.

The engine computes, for one module and one abstract domain, the least
fixpoint of the domain's transfer functions: a value per net and a
state value per sequential instance.  Domains plug in through a small
protocol (see :mod:`repro.analysis.domains`):

* ``bottom`` -- the least element; values join with ``|``;
* ``input_value(port)`` / ``undriven_value(net)`` -- boundary seeds;
* ``transfer(inst, input_values)`` -- combinational cells (tie cells
  and spares are the zero-input case);
* ``flop_initial(inst)`` / ``flop_next(inst, pins, current)`` -- the
  sequential cells, mirroring the simulator's sample-then-update edge
  semantics (scan-enable mux, asynchronous reset);
* ``cell_transfer(cell)`` / ``cell_next(cell)`` -- the same two
  functions for one cell type, over input values in
  ``cell.input_pins`` order: what the compiled cone solve
  (:mod:`repro.analysis.cones`) calls.  This engine calls the
  per-instance forms and stays the reference the cone solve is tested
  against.

Values only ever grow (monotone joins on finite lattices), and an
instance re-enters the worklist only when one of its input nets
changed, so the engine terminates and the result is the unique least
fixpoint -- independent of visit order.  That order-independence is
what makes module-level fan-out byte-identical for any worker count.

The initial worklist is seeded in topological combinational order
(falling back to name order when the module has a combinational loop)
followed by the flops sorted by name: topological seeding means most
gates are visited exactly once before their value is final.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Protocol, Tuple

from ..netlist import Module
from ..netlist.library import Cell
from ..netlist.netlist import Instance, Net, NetlistError

Value = Any


class AbstractDomain(Protocol):
    """Structural protocol every abstract domain satisfies."""

    bottom: Value

    def input_value(self, port: str) -> Value: ...

    def undriven_value(self, net: Net) -> Value: ...

    def transfer(self, inst: Instance, inputs: Tuple[Value, ...]) -> Value: ...

    def flop_initial(self, inst: Instance) -> Value: ...

    def flop_next(
        self, inst: Instance, pins: Dict[str, Value], current: Value
    ) -> Value: ...

    def cell_transfer(
        self, cell: Cell
    ) -> Callable[[Tuple[Value, ...]], Value]: ...

    def cell_next(
        self, cell: Cell
    ) -> Callable[[Tuple[Value, ...]], Value]: ...


@dataclass
class FixpointResult:
    """Least fixpoint of one domain over one module."""

    net_values: Dict[str, Value] = field(default_factory=dict)
    flop_state: Dict[str, Value] = field(default_factory=dict)
    #: Instance evaluations performed; a cheap effort metric for the
    #: benchmark (topological seeding keeps it close to one visit per
    #: instance on loop-free logic).
    visits: int = 0


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
