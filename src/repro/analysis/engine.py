"""The abstract-domain protocol and the fixpoint result type.

A fixpoint solve computes, for one module and one abstract domain, the
least fixpoint of the domain's transfer functions: a value per net and
a state value per sequential instance.  Domains plug in through a
small protocol (see :mod:`repro.analysis.domains`):

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
  (:mod:`repro.analysis.cones`) calls.  The monolithic worklist engine
  of :mod:`repro.oracles.fixpoint`, the test oracle of the cone solve,
  calls the per-instance forms.

Values only ever grow (monotone joins on finite lattices), so the
result is the unique least fixpoint -- independent of visit order.
That order-independence is what makes module-level fan-out
byte-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Protocol, Tuple

from ..netlist.library import Cell
from ..netlist.netlist import Instance, Net

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
