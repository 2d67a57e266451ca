"""Abstract domains for the netlist dataflow engine.

Every domain assigns each net an element of a finite join-semilattice;
the cone solve (:mod:`repro.analysis.cones`) computes the least
fixpoint of the transfer functions.  Three domains are provided:

* :class:`ConstantDomain` -- the value of a net is a *set* of possible
  four-value logic levels, encoded as a 3-bit mask over ``{0, 1, X}``
  (``Z`` folds into ``X``, exactly as gate inputs do).  The classic
  flat constant lattice ``0 / 1 / X / top`` embeds into this powerset:
  ``{0}`` and ``{1}`` are the constants, ``{X}`` is "unknown", and any
  larger set is top-like.  Keeping the full set preserves precision
  through joins (``{0} | {1}`` stays distinguishable from ``{X}``).

* :class:`DualConstantDomain` -- the value of a net is a set of
  *pairs* ``(value under dialect A, value under dialect B)``, encoded
  as a 9-bit mask.  Both components are driven by the *same* stimulus;
  they can differ only where the dialects' semantics differ (today:
  the power-on value of an un-reset flop, and ``x_pessimism``).  A net
  whose reachable set contains an off-diagonal pair is a *divergence
  candidate*: the two simulators can print different values for it.

* :class:`TaintDomain` -- the value of a net is a frozen set of
  X-source labels, unioned through every gate and carried across
  flops: which power-on X generators (un-reset flops, floating nets)
  can ever reach the net.

All transfer functions enumerate concrete input combinations through
:func:`repro.sim.evaluate_cell` -- the same code the simulator runs --
so the abstraction is correct by construction with respect to the
simulator, not a hand-written re-statement of gate semantics.

Each domain hands out one function per cell type: ``cell_transfer(cell)``
for combinational cells and ``cell_next(cell)`` for sequential ones,
both over the input values in ``cell.input_pins`` order.  The cone
solve (:mod:`repro.analysis.cones`) looks them up once per cell type
and run; ``transfer`` and ``flop_next``, the per-instance protocol the
monolithic engine calls, route through the same functions.  For the
constant and dual domains these functions are **process-wide transfer
tables**: one memo per ``(cell, dialect configs)``, filled on demand,
so every module, domain instance and run in a process enumerates a
given gate input combination once.  Tables are keyed by the
:class:`~repro.netlist.library.Cell` object and the
:class:`~repro.sim.SimulatorConfig` objects, never by cell name, so two
libraries or two dialects that share a cell name never share a table.
:func:`clear_transfer_tables` empties them.

Modelling assumptions (shared with the cross-validation harness in
:mod:`repro.verification.crossval`):

* **binary stimulus** -- input and inout ports are driven to 0/1 by
  the testbench, never X/Z, and identically under both dialects;
* **reset discipline** -- a flop whose reset net *can* assert is reset
  before observation starts, so its dialect pair starts at ``(0, 0)``.
  A flop with no reset pin, or whose reset is tied off, powers up at
  ``(uninit_A, uninit_B)`` -- the paper's Section-3 divergence source.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from typing import Any, Callable, FrozenSet, Mapping, Tuple

from ..netlist import Logic
from ..netlist.library import Cell
from ..netlist.netlist import Instance, Net
from ..sim import SimulatorConfig, VENDOR_A_SIM, VENDOR_B_SIM, evaluate_cell

# -- value encodings --------------------------------------------------------

#: Concrete levels a settled net can hold, in mask-bit order (Z folds
#: into X on every gate input, so three levels suffice).
LEVELS: Tuple[Logic, Logic, Logic] = (Logic.ZERO, Logic.ONE, Logic.X)

_LEVEL_INDEX: dict[Logic, int] = {
    Logic.ZERO: 0, Logic.ONE: 1, Logic.X: 2, Logic.Z: 2,
}

#: Single-dialect masks.
BOT: int = 0
ZERO: int = 1 << 0
ONE: int = 1 << 1
XBIT: int = 1 << 2
TOP: int = ZERO | ONE | XBIT
BINARY: int = ZERO | ONE

#: Dual-dialect pair masks (bit ``a * 3 + b`` is the pair ``(a, b)``).
PAIR_TOP: int = (1 << 9) - 1
#: Off-diagonal pairs: dialect A and dialect B disagree.
DIVERGENT: int = sum(
    1 << (a * 3 + b) for a in range(3) for b in range(3) if a != b
)


def level_bit(value: Logic) -> int:
    """Mask bit for one concrete logic level."""
    return 1 << _LEVEL_INDEX[value]


def pair_bit(a: Logic, b: Logic) -> int:
    """Mask bit for one (dialect A, dialect B) value pair."""
    return 1 << (_LEVEL_INDEX[a] * 3 + _LEVEL_INDEX[b])


def mask_levels(mask: int) -> Tuple[Logic, ...]:
    """Concrete levels present in a single-dialect mask, in bit order."""
    return tuple(LEVELS[i] for i in range(3) if mask & (1 << i))


def mask_pairs(mask: int) -> Tuple[Tuple[Logic, Logic], ...]:
    """Concrete (A, B) pairs present in a pair mask, in bit order."""
    return tuple(
        (LEVELS[i // 3], LEVELS[i % 3]) for i in range(9) if mask & (1 << i)
    )


def component_a(mask: int) -> int:
    """Project a pair mask onto the dialect-A levels."""
    out = 0
    for i in range(9):
        if mask & (1 << i):
            out |= 1 << (i // 3)
    return out


def component_b(mask: int) -> int:
    """Project a pair mask onto the dialect-B levels."""
    out = 0
    for i in range(9):
        if mask & (1 << i):
            out |= 1 << (i % 3)
    return out


def diagonal(mask: int) -> int:
    """Lift a single-dialect mask onto identical (v, v) pairs."""
    out = 0
    for i in range(3):
        if mask & (1 << i):
            out |= 1 << (i * 3 + i)
    return out


def format_mask(mask: int) -> str:
    """Human-readable single-dialect mask, e.g. ``{0,x}``."""
    return "{" + ",".join(str(v) for v in mask_levels(mask)) + "}"


def format_pair_mask(mask: int) -> str:
    """Human-readable pair mask, e.g. ``{(x,0),(1,1)}``."""
    return "{" + ",".join(
        f"({a},{b})" for a, b in mask_pairs(mask)
    ) + "}"


# -- process-wide transfer tables -------------------------------------------

class _Table(dict):
    """One cell's abstract function: input values -> output value.

    A dict filled on demand by ``compute``, so a hit is one C-level
    lookup; a cone solve calls ``table.__getitem__`` directly.
    """

    __slots__ = ("compute",)

    def __init__(self, compute: Callable[[Tuple[Any, ...]], Any]) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, key: Tuple[Any, ...]) -> Any:
        value = self[key] = self.compute(key)
        return value


#: ``(kind, cell, *configs)`` -> table, shared by every domain instance.
_TABLES: dict[tuple, _Table] = {}


def _table(key: tuple, compute: Callable[[Tuple[Any, ...]], Any]
           ) -> Callable[[Tuple[Any, ...]], Any]:
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _Table(compute)
    return table.__getitem__


def clear_transfer_tables() -> None:
    """Empty the process-wide transfer tables (tests, benchmarks)."""
    _TABLES.clear()


def _pins(cell: Cell, values: Tuple[Any, ...]) -> dict[str, Any]:
    return dict(zip(cell.input_pins, values))


def _const_transfer(
    cell: Cell, config: SimulatorConfig, input_masks: Tuple[int, ...]
) -> int:
    pins = cell.input_pins
    out = BOT
    for combo in product(*(mask_levels(m) for m in input_masks)):
        result = evaluate_cell(cell, dict(zip(pins, combo)), config)
        out |= level_bit(result)
    return out


def _const_next(cell: Cell, values: Tuple[int, ...]) -> int:
    pins = _pins(cell, values)
    if cell.is_latch:
        # Transparent or holding: D now, or held state (the engine
        # joins ``current`` in, so returning D covers both).
        return pins.get(cell.data_pin or "", TOP)
    data = BOT
    se_mask = pins[cell.scan_enable_pin] if cell.scan_enable_pin else ZERO
    for se in mask_levels(se_mask):
        if se is Logic.ONE:
            data |= pins.get(cell.scan_in_pin or "", BOT)
        elif se is Logic.ZERO:
            data |= pins.get(cell.data_pin or "", BOT)
        else:
            data |= XBIT
    if cell.reset_pin is None:
        return data
    out = BOT
    for reset in mask_levels(pins[cell.reset_pin]):
        if reset is Logic.ZERO:
            out |= ZERO
        elif reset is Logic.X:
            out |= XBIT
        else:
            out |= data
    return out


def _dual_transfer(
    cell: Cell,
    config_a: SimulatorConfig,
    config_b: SimulatorConfig,
    input_masks: Tuple[int, ...],
) -> int:
    pins = cell.input_pins
    out = BOT
    for combo in product(*(mask_pairs(m) for m in input_masks)):
        result_a = evaluate_cell(
            cell, {p: v[0] for p, v in zip(pins, combo)}, config_a
        )
        result_b = evaluate_cell(
            cell, {p: v[1] for p, v in zip(pins, combo)}, config_b
        )
        out |= pair_bit(result_a, result_b)
    return out


def _captured_pairs(se_mask: int, d_mask: int, si_mask: int) -> int:
    """Pairs capturable through the scan-enable mux."""
    data = BOT
    x_pair = pair_bit(Logic.X, Logic.X)
    for se_a, se_b in mask_pairs(se_mask):
        if se_a is se_b:
            if se_a is Logic.ONE:
                data |= si_mask
            elif se_a is Logic.ZERO:
                data |= d_mask
            else:
                data |= x_pair
        else:
            # The dialects select different sources: correlation is
            # lost, so take the component-wise cross product.
            src = {Logic.ZERO: d_mask, Logic.ONE: si_mask}
            comp_a = (component_a(src[se_a]) if se_a in src else XBIT)
            comp_b = (component_b(src[se_b]) if se_b in src else XBIT)
            for va in mask_levels(comp_a):
                for vb in mask_levels(comp_b):
                    data |= pair_bit(va, vb)
    return data


def _dual_next(cell: Cell, values: Tuple[int, ...]) -> int:
    pins = _pins(cell, values)
    if cell.is_latch:
        return pins.get(cell.data_pin or "", PAIR_TOP)
    se_mask = (
        pins[cell.scan_enable_pin]
        if cell.scan_enable_pin
        else pair_bit(Logic.ZERO, Logic.ZERO)
    )
    data = _captured_pairs(
        se_mask,
        pins.get(cell.data_pin or "", BOT),
        pins.get(cell.scan_in_pin or "", BOT),
    )
    if cell.reset_pin is None:
        return data
    out = BOT
    for rn_a, rn_b in mask_pairs(pins[cell.reset_pin]):
        for da, db in mask_pairs(data):
            na = Logic.ZERO if rn_a is Logic.ZERO else (
                Logic.X if rn_a is Logic.X else da)
            nb = Logic.ZERO if rn_b is Logic.ZERO else (
                Logic.X if rn_b is Logic.X else db)
            out |= pair_bit(na, nb)
    return out


# -- domains ----------------------------------------------------------------

class ConstantDomain:
    """Powerset-of-levels constant propagation for one dialect policy.

    ``uninit_mask`` is the power-on value set of an un-reset flop
    (default: both dialects' power-on levels, so derived facts hold
    under either simulator).
    """

    bottom: int = BOT

    def __init__(
        self,
        config: SimulatorConfig | None = None,
        *,
        uninit_mask: int = XBIT | ZERO,
        port_mask: int = BINARY,
    ) -> None:
        self.config = config or SimulatorConfig()
        self.uninit_mask = uninit_mask
        self.port_mask = port_mask

    def input_value(self, port: str) -> int:
        return self.port_mask

    def undriven_value(self, net: Net) -> int:
        return XBIT

    def cell_transfer(self, cell: Cell) -> Callable[[Tuple[int, ...]], int]:
        return _table(
            ("const", cell, self.config),
            partial(_const_transfer, cell, self.config),
        )

    def cell_next(self, cell: Cell) -> Callable[[Tuple[int, ...]], int]:
        return _table(("const.next", cell), partial(_const_next, cell))

    def transfer(self, inst: Instance, input_masks: Tuple[int, ...]) -> int:
        return self.cell_transfer(inst.cell)(input_masks)

    def flop_initial(self, inst: Instance) -> int:
        return self.uninit_mask

    def flop_next(
        self, inst: Instance, pins: Mapping[str, int], current: int
    ) -> int:
        cell = inst.cell
        return self.cell_next(cell)(tuple(pins[p] for p in cell.input_pins))


class DualConstantDomain:
    """Reachable (dialect A, dialect B) value pairs under one stimulus.

    ``reset_assured`` names the flops whose reset net can assert; by
    the reset-discipline assumption those start at ``(0, 0)``.  Every
    other flop starts at the dialects' respective power-on values --
    the only place an off-diagonal pair can enter the system.
    """

    bottom: int = BOT

    def __init__(
        self,
        config_a: SimulatorConfig = VENDOR_A_SIM,
        config_b: SimulatorConfig = VENDOR_B_SIM,
        *,
        reset_assured: FrozenSet[str] = frozenset(),
    ) -> None:
        self.config_a = config_a
        self.config_b = config_b
        self.reset_assured = reset_assured

    def input_value(self, port: str) -> int:
        # Binary stimulus, identical under both dialects.
        return pair_bit(Logic.ZERO, Logic.ZERO) | pair_bit(Logic.ONE, Logic.ONE)

    def undriven_value(self, net: Net) -> int:
        # Both dialects read a floating net as X: identical, benign.
        return pair_bit(Logic.X, Logic.X)

    def cell_transfer(self, cell: Cell) -> Callable[[Tuple[int, ...]], int]:
        return _table(
            ("dual", cell, self.config_a, self.config_b),
            partial(_dual_transfer, cell, self.config_a, self.config_b),
        )

    def cell_next(self, cell: Cell) -> Callable[[Tuple[int, ...]], int]:
        return _table(("dual.next", cell), partial(_dual_next, cell))

    def transfer(self, inst: Instance, input_masks: Tuple[int, ...]) -> int:
        return self.cell_transfer(inst.cell)(input_masks)

    def flop_initial(self, inst: Instance) -> int:
        if inst.name in self.reset_assured:
            return pair_bit(Logic.ZERO, Logic.ZERO)
        return pair_bit(
            self.config_a.uninitialized_flop, self.config_b.uninitialized_flop
        )

    def flop_next(
        self, inst: Instance, pins: Mapping[str, int], current: int
    ) -> int:
        cell = inst.cell
        return self.cell_next(cell)(tuple(pins[p] for p in cell.input_pins))


Taint = FrozenSet[str]

_EMPTY: Taint = frozenset()


class TaintDomain:
    """Set-union X-source tracking: flops and floating nets seed the
    labels, every gate unions them and every flop carries them."""

    bottom: Taint = _EMPTY

    def __init__(
        self,
        *,
        flop_seed: Callable[[Instance], Taint] = lambda inst: _EMPTY,
        undriven_seed: Callable[[Net], Taint] = lambda net: _EMPTY,
    ) -> None:
        self.flop_seed = flop_seed
        self.undriven_seed = undriven_seed

    def input_value(self, port: str) -> Taint:
        return _EMPTY

    def undriven_value(self, net: Net) -> Taint:
        return self.undriven_seed(net)

    def cell_transfer(
        self, cell: Cell
    ) -> Callable[[Tuple[Taint, ...]], Taint]:
        return _union

    def cell_next(self, cell: Cell) -> Callable[[Tuple[Taint, ...]], Taint]:
        carried = (cell.data_pin, cell.scan_in_pin, cell.scan_enable_pin,
                   cell.reset_pin)
        return partial(_union_at, tuple(
            i for i, pin in enumerate(cell.input_pins) if pin in carried
        ))

    def transfer(self, inst: Instance, input_masks: Tuple[Taint, ...]) -> Taint:
        return _union(input_masks)

    def flop_initial(self, inst: Instance) -> Taint:
        return self.flop_seed(inst)

    def flop_next(
        self, inst: Instance, pins: Mapping[str, Taint], current: Taint
    ) -> Taint:
        cell = inst.cell
        return self.cell_next(cell)(tuple(pins[p] for p in cell.input_pins))


def _union(taints: Tuple[Taint, ...]) -> Taint:
    return _EMPTY.union(*taints)


def _union_at(positions: Tuple[int, ...], taints: Tuple[Taint, ...]) -> Taint:
    return _EMPTY.union(*[taints[i] for i in positions])
