"""Compiled word-parallel simulation backend.

:class:`~repro.sim.LogicSimulator` *interprets* the netlist: every
cycle walks every gate in Python, one four-value tuple at a time
(~225 cycles/s on the 456-gate E4 block).  This module takes the
classic compiled-code simulation route instead: the module is
levelized **once** into a flat numpy program, and four-value logic is
packed into ``uint64`` bit-planes so one kernel sweep evaluates 64
independent stimulus lanes per word -- the same literal-matrix idiom
:mod:`repro.dft.faultsim` proved out for stuck-at patterns, now
generalised to full four-value sequential simulation.

Encoding
--------
Per net the state holds three *indicator planes* -- ``is0``, ``is1``,
``isX`` -- each an array of ``words`` uint64 values whose bit *b* of
word *w* belongs to lane ``64*w + b``.  Exactly one plane bit is set
per (net, lane).  ``Z`` collapses to ``X`` inside the kernel (gates
read a floating input as unknown, and only input-port nets can carry
``Z`` in this netlist model -- the library has no tristate drivers);
a per-input-port mask restores ``Z`` on read-back so reads see the
exact event-simulator value.  Two extra plane rows, ``ALWAYS``
(all ones) and ``NEVER`` (all zeros), serve as padding literals, and
two pseudo-net slots hold constant 0/1 for absent flop pins.

Program
-------
Compilation enumerates every cell's {0,1,X}^n truth table through
:func:`repro.sim.evaluate_cell` -- the same single source of truth
the interpreter and the static analysis use, so dialect knobs
(``x_pessimism``) cannot drift between engines -- and flattens each
topological level into

* a literal matrix of ``(class, net-slot)`` index pairs (one row per
  minterm, padded with ``ALWAYS`` literals),
* ``reduceat`` segment boundaries grouping rows per instance, and
* an output-slot vector.

One level then evaluates in three vectorised steps: fancy-index the
planes, ``bitwise_and.reduce`` across literals, ``bitwise_or.reduceat``
across each instance's minterms.  Because a concrete lane matches
exactly one row of the three-valued table, the ``is1``/``is0`` results
are disjoint and ``isX`` is their complement.

Programs are cached per ``(module fingerprint, config)`` in a
module-level cache; :class:`BatchSimulator` instances of any lane
count share one program.  The backend is drop-in bit-identical to the
event-driven reference under both dialects -- power-on policy,
async-reset settle fixpoint (same ``max_settle_rounds`` bound and
error), scan-enable muxing and clock gating through ICGs -- enforced
by the randomized property tests in ``tests/test_sim_compiled.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..netlist import Logic, Module
from ..netlist.clocks import CLOCK_PORT, RESET_PORT, scan_mode_inputs
from ..netlist.library import Cell
from ..netlist.netlist import Instance, NetlistError
from ..perf import stage_timer
from .simulator import (
    SimulatorConfig,
    Trace,
    evaluate_cell,
    resolve_clock_connection,
)

__all__ = [
    "BatchSimulator",
    "CompileError",
    "CompiledProgram",
    "compile_module",
    "levelize_combinational",
]

WORD_BITS = 64

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

# Plane classes (axis 0 of the state array).  The first three encode
# net values; ALWAYS/NEVER are constant literal planes for padding.
_IS0, _IS1, _ISX, _ALWAYS, _NEVER = 0, 1, 2, 3, 4

_LOGIC_BY_CODE = (Logic.ZERO, Logic.ONE, Logic.X, Logic.Z)


class CompileError(NetlistError):
    """A cell or module cannot be lowered to the bit-plane kernel."""


def _logic_of(value: Logic | int | bool) -> Logic:
    if isinstance(value, bool):
        return Logic.from_bool(value)
    if isinstance(value, Logic):
        return value
    return Logic(value)


def _pack_lane_bools(bools: np.ndarray, words: int) -> np.ndarray:
    """Pack a per-lane boolean vector into ``words`` uint64 words."""
    bits = np.zeros(words * WORD_BITS, dtype=np.uint8)
    bits[: bools.size] = bools
    return np.packbits(bits, bitorder="little").view(np.uint64)


def _words_of_int(mask: int, words: int) -> np.ndarray:
    """A Python int bit-mask as a little-endian uint64 word vector."""
    return np.frombuffer(
        mask.to_bytes(words * 8, "little"), dtype="<u8"
    ).astype(np.uint64)


def levelize_combinational(
    module: Module,
) -> tuple[dict[str, int], list[list[Instance]]]:
    """Levelize the combinational network of ``module``.

    Returns ``(net_level, levels)``: the topological level of every
    gate-driven net (primary and pseudo inputs are level 0, a gate's
    output is one past its deepest input) and the combinational
    instances grouped per level in ascending order.  This is the
    single levelization both flat-program compilers build on -- the
    functional bit-plane backend here and the fused fault-cone
    programs in :mod:`repro.dft.compiled` -- so level boundaries (the
    points where fault forces are injected) are identical across
    engines by construction.
    """
    order = module.topological_combinational_order()
    net_level: dict[str, int] = {}
    by_level: dict[int, list[Instance]] = {}
    for inst in order:
        level = 1 + max(
            (net_level.get(inst.net_of(pin), 0)
             for pin in inst.cell.input_pins),
            default=0,
        )
        net_level[inst.net_of(inst.cell.output_pins[0])] = level
        by_level.setdefault(level, []).append(inst)
    return net_level, [by_level[level] for level in sorted(by_level)]


def lane_valid_words(lanes: int, words: int) -> np.ndarray:
    """Word mask with a bit set for every valid lane (tail bits clear)."""
    bits = np.zeros(words * WORD_BITS, dtype=np.uint8)
    bits[:lanes] = 1
    return np.packbits(bits, bitorder="little").view(np.uint64)


# ---------------------------------------------------------------------------
# Cell truth tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CellTable:
    """Three-valued truth table of one cell as literal-class rows."""

    n_inputs: int
    #: minterms whose output is ONE; each row maps input position ->
    #: plane class (_IS0/_IS1/_ISX).
    rows1: tuple[tuple[int, ...], ...]
    #: minterms whose output is ZERO.
    rows0: tuple[tuple[int, ...], ...]
    #: every binary input combination yields a binary output, so
    #: binary inputs can never drive the output to X.
    binary: bool


_TABLE_CACHE: dict[tuple[Cell, bool], _CellTable] = {}

_TABLE_LEVELS = (Logic.ZERO, Logic.ONE, Logic.X)


def _cell_table(cell: Cell, config: SimulatorConfig) -> _CellTable:
    """Truth table of ``cell`` under ``config``, via ``evaluate_cell``.

    Enumerating {0,1,X}^n through the interpreter's own cell evaluator
    makes the compiled kernel correct by construction against every
    dialect knob that affects gate semantics.  Also verifies that the
    cell treats ``Z`` inputs exactly like ``X`` (the kernel collapses
    them), raising :class:`CompileError` for exotic cells that do not.
    """
    key = (cell, config.x_pessimism)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    if len(cell.output_pins) != 1:
        raise CompileError(
            f"cell {cell.name} has {len(cell.output_pins)} outputs; the "
            "compiled backend supports single-output cells only"
        )
    pins = cell.input_pins
    n = len(pins)
    rows1: list[tuple[int, ...]] = []
    rows0: list[tuple[int, ...]] = []
    binary = True
    for combo in itertools.product(_TABLE_LEVELS, repeat=n):
        out = evaluate_cell(cell, dict(zip(pins, combo)), config)
        if out is Logic.Z:
            raise CompileError(
                f"cell {cell.name} outputs Z; the bit-plane encoding "
                "has no tristate representation"
            )
        classes = tuple(int(v) for v in combo)  # ZERO/ONE/X == 0/1/2
        if out is Logic.ONE:
            rows1.append(classes)
        elif out is Logic.ZERO:
            rows0.append(classes)
        elif Logic.X not in combo:
            binary = False
    for combo in itertools.product(tuple(Logic), repeat=n):
        if Logic.Z not in combo:
            continue
        collapsed = tuple(
            Logic.X if v is Logic.Z else v for v in combo
        )
        if (evaluate_cell(cell, dict(zip(pins, combo)), config)
                is not evaluate_cell(cell, dict(zip(pins, collapsed)),
                                     config)):
            raise CompileError(
                f"cell {cell.name} distinguishes Z from X on an input; "
                "it cannot be compiled"
            )
    table = _CellTable(n, tuple(rows1), tuple(rows0), binary)
    _TABLE_CACHE[key] = table
    return table


# ---------------------------------------------------------------------------
# Program
# ---------------------------------------------------------------------------


@dataclass
class _Level:
    """One topological level, flattened for the kernel."""

    cls: np.ndarray  # (rows, n_max) plane-class indices
    net: np.ndarray  # (rows, n_max) net-slot indices
    seg: np.ndarray  # (2 * n_insts,) reduceat boundaries (rows1|rows0)
    out: np.ndarray  # (n_insts,) output net slots
    binary: np.ndarray  # (n_insts,) bool: the cell's _CellTable.binary
    n_insts: int


@dataclass
class _ClockPlan:
    """Flop subset driven by one clock port, as index arrays."""

    sel: np.ndarray  # indices into the flop state arrays
    d: np.ndarray    # data-net slots
    si: np.ndarray   # scan-in slots (const-0 slot when absent)
    se: np.ndarray   # scan-enable slots (const-0 slot when absent)
    rn: np.ndarray   # reset-net slots (const-1 slot when absent)
    en: np.ndarray   # (n, max_en) ICG enable slots, const-1 padded


class CompiledProgram:
    """A module levelized into flat numpy index arrays.

    Immutable once built; shared by every :class:`BatchSimulator`
    with the same ``(module fingerprint, config)``.
    """

    def __init__(self, module: Module, config: SimulatorConfig) -> None:
        self.module = module
        self.config = config
        self.net_names: tuple[str, ...] = tuple(module.nets)
        self.n_nets = len(self.net_names)
        self.net_index: dict[str, int] = {
            name: i for i, name in enumerate(self.net_names)
        }
        # Two pseudo-net slots holding constant 0 / constant 1.
        self.const0_slot = self.n_nets
        self.const1_slot = self.n_nets + 1
        self.n_slots = self.n_nets + 2

        self.input_ports: tuple[str, ...] = tuple(
            name for name, port in module.ports.items()
            if port.direction == "input"
        )
        self.input_row: dict[str, int] = {
            name: i for i, name in enumerate(self.input_ports)
        }
        self.input_slots = np.array(
            [self.net_index[name] for name in self.input_ports],
            dtype=np.intp,
        )
        self.output_ports: tuple[str, ...] = tuple(sorted(
            name for name, port in module.ports.items()
            if port.direction == "output"
        ))

        flops = module.sequential_instances
        self._flop_insts: list[Instance] = flops
        self.flop_names: tuple[str, ...] = tuple(f.name for f in flops)
        self.q_slots = np.array(
            [self.net_index[f.net_of("Q")] for f in flops], dtype=np.intp
        )
        reset_sel: list[int] = []
        reset_rn: list[int] = []
        for i, flop in enumerate(flops):
            if flop.cell.reset_pin is not None:
                reset_sel.append(i)
                reset_rn.append(
                    self.net_index[flop.net_of(flop.cell.reset_pin)]
                )
        self.reset_sel = np.array(reset_sel, dtype=np.intp)
        self.reset_rn = np.array(reset_rn, dtype=np.intp)

        self.levels: list[_Level] = self._build_levels(module, config)
        self._clock_plans: dict[str, _ClockPlan] = {}

    # -- build --------------------------------------------------------

    def _build_levels(
        self, module: Module, config: SimulatorConfig
    ) -> list[_Level]:
        by_level = levelize_combinational(module)[1]

        levels: list[_Level] = []
        for insts in by_level:
            tables = [_cell_table(inst.cell, config) for inst in insts]
            n_max = 1
            for table in tables:
                for row in table.rows1 + table.rows0:
                    n_max = max(n_max, len(row))

            cls_rows: list[list[int]] = []
            net_rows: list[list[int]] = []

            def emit(
                rows: tuple[tuple[int, ...], ...],
                in_slots: list[int],
                seg: list[int],
            ) -> None:
                seg.append(len(cls_rows))
                if not rows:
                    # An instance whose output is never this polarity
                    # still needs one row so its reduceat segment is
                    # non-empty; a NEVER literal kills every lane.
                    cls_rows.append([_NEVER] + [_ALWAYS] * (n_max - 1))
                    net_rows.append([0] * n_max)
                    return
                for row in rows:
                    pad = n_max - len(row)
                    cls_rows.append(list(row) + [_ALWAYS] * pad)
                    net_rows.append(in_slots + [0] * pad)

            seg1: list[int] = []
            seg0: list[int] = []
            rows0_spec: list[tuple[tuple[tuple[int, ...], ...],
                                   list[int]]] = []
            out_slots: list[int] = []
            for inst, table in zip(insts, tables):
                in_slots = [
                    self.net_index[inst.net_of(pin)]
                    for pin in inst.cell.input_pins
                ]
                emit(table.rows1, in_slots, seg1)
                rows0_spec.append((table.rows0, in_slots))
                out_slots.append(
                    self.net_index[inst.net_of(inst.cell.output_pins[0])]
                )
            for rows0, in_slots in rows0_spec:
                emit(rows0, in_slots, seg0)

            levels.append(_Level(
                cls=np.array(cls_rows, dtype=np.intp),
                net=np.array(net_rows, dtype=np.intp),
                seg=np.array(seg1 + seg0, dtype=np.intp),
                out=np.array(out_slots, dtype=np.intp),
                binary=np.array([t.binary for t in tables], dtype=bool),
                n_insts=len(insts),
            ))
        return levels

    # -- clock plans --------------------------------------------------

    def clock_plan(self, clock_port: str) -> _ClockPlan:
        """Index arrays for the flops clocked by ``clock_port``.

        Resolution matches ``LogicSimulator.clock_edge``: through
        buffers and ICGs via :func:`resolve_clock_connection`.
        """
        plan = self._clock_plans.get(clock_port)
        if plan is not None:
            return plan
        sel: list[int] = []
        d: list[int] = []
        si: list[int] = []
        se: list[int] = []
        rn: list[int] = []
        en_lists: list[list[int]] = []
        for i, flop in enumerate(self._flop_insts):
            clock_pin = flop.cell.clock_pin
            if clock_pin is None:
                continue
            enables = resolve_clock_connection(
                self.module, flop.net_of(clock_pin), clock_port
            )
            if enables is None:
                continue
            cell = flop.cell
            sel.append(i)
            d.append(self.net_index[flop.net_of(cell.data_pin)])
            si.append(
                self.net_index[flop.net_of(cell.scan_in_pin)]
                if cell.scan_in_pin is not None else self.const0_slot
            )
            se.append(
                self.net_index[flop.net_of(cell.scan_enable_pin)]
                if cell.scan_enable_pin is not None else self.const0_slot
            )
            rn.append(
                self.net_index[flop.net_of(cell.reset_pin)]
                if cell.reset_pin is not None else self.const1_slot
            )
            en_lists.append(
                [self.net_index[name] for name in enables]
            )
        max_en = max((len(e) for e in en_lists), default=0)
        en = np.full((len(sel), max_en), self.const1_slot, dtype=np.intp)
        for row, enables_row in enumerate(en_lists):
            en[row, : len(enables_row)] = enables_row
        plan = _ClockPlan(
            sel=np.array(sel, dtype=np.intp),
            d=np.array(d, dtype=np.intp),
            si=np.array(si, dtype=np.intp),
            se=np.array(se, dtype=np.intp),
            rn=np.array(rn, dtype=np.intp),
            en=en,
        )
        self._clock_plans[clock_port] = plan
        return plan


_PROGRAM_CACHE: dict[tuple[str, SimulatorConfig], CompiledProgram] = {}


def compile_module(
    module: Module, config: SimulatorConfig | None = None
) -> CompiledProgram:
    """Levelize ``module`` under ``config`` (cached).

    The cache key is ``(module.fingerprint(), config)``: structurally
    identical modules share one program, and editing a module yields
    a new fingerprint (and hence a fresh compile) automatically.
    """
    config = config or SimulatorConfig()
    key = (module.fingerprint(), config)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        with stage_timer("sim.compiled.compile") as stats:
            program = CompiledProgram(module, config)
            stats.add(gates=len(module.instances),
                      nets=len(module.nets))
        _PROGRAM_CACHE[key] = program
    return program


# ---------------------------------------------------------------------------
# Batch simulator
# ---------------------------------------------------------------------------


class BatchSimulator:
    """Compiled-backend simulator running N stimulus lanes at once.

    Mirrors the :class:`~repro.sim.LogicSimulator` API lane-wise:
    ``set_input`` broadcasts a scalar to every lane or takes a
    per-lane sequence, ``evaluate`` / ``clock_edge`` advance all lanes
    together, and ``read(net, lane)`` observes one lane.  Vectorised
    consumers -- coverage accumulation, divergence checks -- read
    every lane at once through :meth:`net_value_words` and
    :meth:`flop_state_words`.  Every lane behaves bit-identically to a
    dedicated ``LogicSimulator`` fed the same stimulus.
    """

    def __init__(
        self,
        module: Module,
        config: SimulatorConfig | None = None,
        *,
        lanes: int = WORD_BITS,
    ) -> None:
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self.module = module
        self.config = config or SimulatorConfig()
        self.lanes = lanes
        self.words = (lanes + WORD_BITS - 1) // WORD_BITS
        self.program = compile_module(module, self.config)
        program = self.program

        planes = np.zeros((5, program.n_slots, self.words),
                          dtype=np.uint64)
        planes[_ALWAYS] = _FULL
        planes[_ISX, : program.n_nets] = _FULL  # all nets power up X
        planes[_IS0, program.const0_slot] = _FULL
        planes[_ISX, program.const0_slot] = 0
        planes[_IS1, program.const1_slot] = _FULL
        self._planes = planes

        n_flops = len(program.flop_names)
        self._flop0 = np.zeros((n_flops, self.words), dtype=np.uint64)
        self._flop1 = np.zeros((n_flops, self.words), dtype=np.uint64)
        # The event engine stores a captured Z verbatim in flop state
        # (gates normalise it, but reads and traces surface it), so a
        # Z plane rides along: a set bit refines that lane's X.
        self._flopz = np.zeros((n_flops, self.words), dtype=np.uint64)
        if self.config.uninitialized_flop is Logic.ZERO:
            self._flop0[:] = _FULL
        elif self.config.uninitialized_flop is Logic.ONE:
            self._flop1[:] = _FULL

        n_inputs = len(program.input_ports)
        self._in0 = np.zeros((n_inputs, self.words), dtype=np.uint64)
        self._in1 = np.zeros((n_inputs, self.words), dtype=np.uint64)
        self._inx = np.full((n_inputs, self.words), _FULL,
                            dtype=np.uint64)
        self._inz = np.zeros((n_inputs, self.words), dtype=np.uint64)
        # Per-slot Z refinement of the X plane.  Only input-port nets
        # and flop Q nets can carry Z (gates normalise it away); the
        # sweep refreshes those rows, everything else stays zero.
        self._znet = np.zeros((program.n_slots, self.words),
                              dtype=np.uint64)

        self.cycle = 0
        self.evaluate()

    # -- stimulus -----------------------------------------------------

    def _input_row(self, port: str) -> int:
        row = self.program.input_row.get(port)
        if row is None:
            raise KeyError(
                f"{port!r} is not an input port of {self.module.name}"
            )
        return row

    def set_input(
        self,
        port: str,
        value: Logic | int | bool | Sequence[Logic | int | bool],
    ) -> None:
        """Drive one input port: a scalar broadcasts to every lane, a
        sequence gives one value per lane (propagates on evaluate)."""
        row = self._input_row(port)
        if isinstance(value, (list, tuple, np.ndarray)):
            if len(value) != self.lanes:
                raise ValueError(
                    f"expected {self.lanes} per-lane values for "
                    f"{port!r}, got {len(value)}"
                )
            codes = np.full(self.words * WORD_BITS, int(Logic.X),
                            dtype=np.uint8)
            for lane, item in enumerate(value):
                codes[lane] = int(_logic_of(item))
            self._in0[row] = _pack_lane_bools(codes == 0, self.words)
            self._in1[row] = _pack_lane_bools(codes == 1, self.words)
            self._inx[row] = _pack_lane_bools(codes >= 2, self.words)
            self._inz[row] = _pack_lane_bools(codes == 3, self.words)
            return
        code = _logic_of(value)
        self._in0[row] = _FULL if code is Logic.ZERO else 0
        self._in1[row] = _FULL if code is Logic.ONE else 0
        self._inx[row] = 0 if code.is_known else _FULL
        self._inz[row] = _FULL if code is Logic.Z else 0

    def set_inputs(
        self,
        values: Mapping[str, Logic | int | bool
                        | Sequence[Logic | int | bool]],
    ) -> None:
        """Drive several input ports at once."""
        for port, value in values.items():
            self.set_input(port, value)

    def set_lane_inputs(
        self, vectors: Sequence[Mapping[str, Logic | int | bool]]
    ) -> None:
        """Apply one input vector per lane (like per-lane set_inputs).

        Ports absent from a lane's vector keep that lane's previous
        value -- exactly the hold semantics of running N independent
        ``LogicSimulator.set_inputs`` calls.
        """
        if len(vectors) != self.lanes:
            raise ValueError(
                f"expected {self.lanes} vectors, got {len(vectors)}"
            )
        updates: dict[str, dict[int, Logic]] = {}
        for lane, vector in enumerate(vectors):
            for port, value in vector.items():
                updates.setdefault(port, {})[lane] = _logic_of(value)
        for port, pairs in updates.items():
            row = self._input_row(port)
            touched = bits0 = bits1 = bitsx = bitsz = 0
            for lane, code in pairs.items():
                bit = 1 << lane
                touched |= bit
                if code is Logic.ZERO:
                    bits0 |= bit
                elif code is Logic.ONE:
                    bits1 |= bit
                else:
                    bitsx |= bit
                    if code is Logic.Z:
                        bitsz |= bit
            keep = ~_words_of_int(touched, self.words)
            self._in0[row] = ((self._in0[row] & keep)
                              | _words_of_int(bits0, self.words))
            self._in1[row] = ((self._in1[row] & keep)
                              | _words_of_int(bits1, self.words))
            self._inx[row] = ((self._inx[row] & keep)
                              | _words_of_int(bitsx, self.words))
            self._inz[row] = ((self._inz[row] & keep)
                              | _words_of_int(bitsz, self.words))

    # -- evaluation ---------------------------------------------------

    def _sweep(self) -> None:
        """One full combinational propagation of every lane."""
        planes = self._planes
        program = self.program
        if program.input_slots.size:
            planes[_IS0, program.input_slots] = self._in0
            planes[_IS1, program.input_slots] = self._in1
            planes[_ISX, program.input_slots] = self._inx
            self._znet[program.input_slots] = self._inz
        if program.q_slots.size:
            planes[_IS0, program.q_slots] = self._flop0
            planes[_IS1, program.q_slots] = self._flop1
            planes[_ISX, program.q_slots] = ~(self._flop0 | self._flop1)
            self._znet[program.q_slots] = self._flopz
        for level in program.levels:
            lit = planes[level.cls, level.net]
            terms = np.bitwise_and.reduce(lit, axis=1)
            acc = np.bitwise_or.reduceat(terms, level.seg, axis=0)
            r1 = acc[: level.n_insts]
            r0 = acc[level.n_insts:]
            planes[_IS1, level.out] = r1
            planes[_IS0, level.out] = r0
            planes[_ISX, level.out] = ~(r1 | r0)

    def _apply_async_resets(self) -> bool:
        """Force reset flops low; True if any lane's state changed."""
        program = self.program
        if not program.reset_sel.size:
            return False
        rn0 = self._planes[_IS0, program.reset_rn]
        state0 = self._flop0[program.reset_sel]
        mask = rn0 & ~state0
        if not mask.any():
            return False
        self._flop0[program.reset_sel] = state0 | mask
        self._flop1[program.reset_sel] &= ~mask
        self._flopz[program.reset_sel] &= ~mask
        return True

    def evaluate(self) -> None:
        """Propagate inputs and state to a fixpoint (every lane).

        Same contract as ``LogicSimulator.evaluate``: combinational
        sweep and async-reset application iterate until settled,
        bounded by ``max_settle_rounds``.
        """
        for _ in range(self.config.max_settle_rounds):
            self._sweep()
            if not self._apply_async_resets():
                return
        raise NetlistError(
            f"simulation of {self.module.name} did not settle within "
            f"{self.config.max_settle_rounds} rounds"
        )

    def clock_edge(self, clock_port: str = CLOCK_PORT) -> None:
        """One rising edge of ``clock_port`` across every lane.

        Scan-enable muxing, ICG gating and async-reset override follow
        ``LogicSimulator.clock_edge`` bit for bit: gate all-ONE
        captures, any-ZERO holds, otherwise the state goes X; an
        asserted reset wins over everything.
        """
        with stage_timer("sim.compiled.edge") as stats:
            self.evaluate()  # propagate pending input changes first
            plan = self.program.clock_plan(clock_port)
            if plan.sel.size:
                planes = self._planes
                d0 = planes[_IS0, plan.d]
                d1 = planes[_IS1, plan.d]
                si0 = planes[_IS0, plan.si]
                si1 = planes[_IS1, plan.si]
                se0 = planes[_IS0, plan.se]
                se1 = planes[_IS1, plan.se]
                data1 = (se1 & si1) | (se0 & d1)
                data0 = (se1 & si0) | (se0 & d0)
                dataz = ((se1 & self._znet[plan.si])
                         | (se0 & self._znet[plan.d]))
                # Effective clock gate: AND of the ICG enables.
                all1 = np.bitwise_and.reduce(planes[_IS1, plan.en],
                                             axis=1)
                any0 = np.bitwise_or.reduce(planes[_IS0, plan.en],
                                            axis=1)
                gate_x = ~(all1 | any0)
                captured = all1 | gate_x
                data1 &= ~gate_x  # unknown edge: state becomes X
                data0 &= ~gate_x
                dataz &= ~gate_x
                rn0 = planes[_IS0, plan.rn]
                rn_x = planes[_ISX, plan.rn]
                data0 = (data0 | rn0) & ~rn_x
                data1 = data1 & ~rn0 & ~rn_x
                dataz = dataz & ~rn0 & ~rn_x
                hold1 = self._flop1[plan.sel]
                hold0 = self._flop0[plan.sel]
                holdz = self._flopz[plan.sel]
                self._flop1[plan.sel] = ((captured & data1)
                                         | (~captured & hold1))
                self._flop0[plan.sel] = ((captured & data0)
                                         | (~captured & hold0))
                self._flopz[plan.sel] = ((captured & dataz)
                                         | (~captured & holdz))
            self.cycle += 1
            self.evaluate()
            stats.add(cycles=self.lanes)

    # -- observation --------------------------------------------------

    def read(self, net: str, lane: int = 0) -> Logic:
        """Current value of a net on one lane."""
        slot = self.program.net_index.get(net)
        if slot is None:
            raise KeyError(f"no net {net!r} in {self.module.name}")
        word, bit = divmod(lane, WORD_BITS)
        if (int(self._planes[_IS1, slot, word]) >> bit) & 1:
            return Logic.ONE
        if (int(self._planes[_IS0, slot, word]) >> bit) & 1:
            return Logic.ZERO
        if (int(self._znet[slot, word]) >> bit) & 1:
            return Logic.Z
        return Logic.X

    def read_vector(self, prefix: str, width: int,
                    lane: int = 0) -> list[Logic]:
        """Read ``prefix0..prefix{width-1}`` LSB-first on one lane."""
        return [self.read(f"{prefix}{i}", lane) for i in range(width)]

    def read_outputs(self, lane: int = 0) -> dict[str, Logic]:
        """Snapshot of every output port value on one lane."""
        return {
            name: self.read(name, lane)
            for name in self.program.output_ports
        }

    def net_value_words(self) -> tuple[np.ndarray, np.ndarray]:
        """``(is0, is1)`` uint64 views over (real nets, words).

        Read-only accessors for vectorised consumers (coverage
        accumulation, divergence checks); bit *b* of word *w* is lane
        ``64*w + b``.  Do not mutate.
        """
        n = self.program.n_nets
        return self._planes[_IS0, :n], self._planes[_IS1, :n]

    def flop_state_words(self) -> tuple[np.ndarray, np.ndarray]:
        """``(is0, is1)`` uint64 views over (flops, words)."""
        return self._flop0, self._flop1

    def divergence_words(self, other: "BatchSimulator") -> np.ndarray:
        """Per-net word mask of lanes where two sims disagree.

        Compares the value planes (including the Z refinement, so a
        flop holding Z in one dialect and X in the other counts, just
        as the event engine's identity comparison would).
        """
        if self.program.net_names != other.program.net_names:
            raise ValueError("divergence requires identical netlists")
        mine0, mine1 = self.net_value_words()
        theirs0, theirs1 = other.net_value_words()
        n = self.program.n_nets
        return ((mine0 ^ theirs0) | (mine1 ^ theirs1)
                | (self._znet[:n] ^ other._znet[:n]))

    # -- batch run ----------------------------------------------------

    def _input_codes(self, row: int) -> np.ndarray:
        """Current per-lane value codes (0/1/2/3) of one input row."""
        bits0 = np.unpackbits(self._in0[row].view(np.uint8),
                              bitorder="little")
        bits1 = np.unpackbits(self._in1[row].view(np.uint8),
                              bitorder="little")
        bitsz = np.unpackbits(self._inz[row].view(np.uint8),
                              bitorder="little")
        return np.where(
            bitsz == 1, 3,
            np.where(bits1 == 1, 1, np.where(bits0 == 1, 0, 2)),
        ).astype(np.uint8)

    def run(
        self,
        stimuli: Sequence[Sequence[Mapping[str, Logic | int | bool]]],
        *,
        clock_port: str = CLOCK_PORT,
        watch: Iterable[str] | None = None,
        on_edge: Callable[[], None] | None = None,
    ) -> list[Trace]:
        """Run one stimulus sequence per lane, returning per-lane traces.

        The lane-wise counterpart of ``LogicSimulator.run``: each
        lane's vector *t* is applied before rising edge *t* and the
        watched signals (default: all output ports, sorted) are
        sampled after the edge.  Lanes may have different stimulus
        lengths; a shorter lane's trace simply stops early (its inputs
        hold their last values while other lanes finish).  Stimulus is
        pre-packed into bit-plane columns, so the per-cycle cost is a
        handful of numpy ops regardless of lane count.  ``on_edge``,
        when given, is called after every edge, before the sample.
        """
        if len(stimuli) != self.lanes:
            raise ValueError(
                f"expected {self.lanes} stimulus sequences, "
                f"got {len(stimuli)}"
            )
        if watch is None:
            watch_t: tuple[str, ...] = self.program.output_ports
        else:
            watch_t = tuple(watch)
        for signal in watch_t:
            if signal not in self.program.net_index:
                raise KeyError(
                    f"no net {signal!r} in {self.module.name}"
                )
        cycles = max((len(s) for s in stimuli), default=0)
        if cycles == 0:
            return [Trace(signals=watch_t) for _ in stimuli]
        watch_slots = np.array(
            [self.program.net_index[s] for s in watch_t], dtype=np.intp
        )

        # Pre-pack the stimulus: per driven port, a (cycles, words)
        # word matrix per plane, with per-lane hold-previous-value
        # resolution done once up front.
        ports_used = sorted({
            port for seq in stimuli for vector in seq for port in vector
        })
        lanes_pad = self.words * WORD_BITS
        packed: list[tuple[int, np.ndarray, np.ndarray,
                           np.ndarray, np.ndarray]] = []
        for port in ports_used:
            row = self._input_row(port)
            current = self._input_codes(row)
            matrix = np.empty((cycles, lanes_pad), dtype=np.uint8)
            for t in range(cycles):
                for lane, seq in enumerate(stimuli):
                    if t < len(seq):
                        value = seq[t].get(port)
                        if value is not None:
                            current[lane] = int(_logic_of(value))
                matrix[t] = current

            def pack(mask: np.ndarray) -> np.ndarray:
                return np.packbits(
                    mask, axis=1, bitorder="little"
                ).view(np.uint64)

            packed.append((row, pack(matrix == 0), pack(matrix == 1),
                           pack(matrix >= 2), pack(matrix == 3)))

        hist0 = np.empty((cycles, len(watch_t), self.words),
                         dtype=np.uint64)
        hist1 = np.empty_like(hist0)
        histz = np.empty_like(hist0)

        with stage_timer("sim.compiled.run") as stats:
            for t in range(cycles):
                for row, m0, m1, mx, mz in packed:
                    self._in0[row] = m0[t]
                    self._in1[row] = m1[t]
                    self._inx[row] = mx[t]
                    self._inz[row] = mz[t]
                self.clock_edge(clock_port)
                if on_edge is not None:
                    on_edge()
                hist0[t] = self._planes[_IS0, watch_slots]
                hist1[t] = self._planes[_IS1, watch_slots]
                histz[t] = self._znet[watch_slots]
            stats.add(cycles=cycles * self.lanes, lanes=self.lanes,
                      runs=1)

        bits0 = np.unpackbits(hist0.view(np.uint8), axis=-1,
                              bitorder="little")
        bits1 = np.unpackbits(hist1.view(np.uint8), axis=-1,
                              bitorder="little")
        bitsz = np.unpackbits(histz.view(np.uint8), axis=-1,
                              bitorder="little")
        codes = np.where(
            bitsz == 1, 3,
            np.where(bits1 == 1, 1, np.where(bits0 == 1, 0, 2)),
        ).astype(np.uint8)

        traces: list[Trace] = []
        for lane, seq in enumerate(stimuli):
            lane_codes = codes[: len(seq), :, lane].tolist()
            trace = Trace(signals=watch_t)
            trace.samples = [
                tuple(_LOGIC_BY_CODE[c] for c in sample)
                for sample in lane_codes
            ]
            traces.append(trace)
        return traces


def lane_frames(
    module: Module,
    stimulus: Sequence[Mapping[str, Logic | int | bool]],
    *,
    clock_port: str = CLOCK_PORT,
    reset_port: str | None = RESET_PORT,
    reset_cycles: int = 1,
) -> list[dict[str, Logic | int | bool]]:
    """One lane's frames under the functional-mode protocol.

    ``reset_cycles`` frames hold ``reset_port`` low, then each
    stimulus vector follows with the reset held high; the clock and
    the scan-mode inputs are low in every frame unless a vector drives
    them.  A module without ``reset_port`` gets no reset frames.
    :meth:`BatchSimulator.run` clocks one edge per frame, so a lane's
    first ``len(frames) - len(stimulus)`` samples are reset edges.
    """
    ties: dict[str, Logic | int | bool] = dict.fromkeys(
        (clock_port, *scan_mode_inputs(module)), 0
    )
    if reset_port is None or reset_port not in module.ports:
        return [{**ties, **vector} for vector in stimulus]
    return [{**ties, reset_port: 0} for _ in range(reset_cycles)] + [
        {**ties, **vector, reset_port: 1} for vector in stimulus
    ]


def clear_program_cache() -> None:
    """Drop every cached compiled program (mainly for tests)."""
    _PROGRAM_CACHE.clear()
    _TABLE_CACHE.clear()
