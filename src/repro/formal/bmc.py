"""Bounded model checking over the compiled simulation program.

The unroller Tseitin-encodes the *levelized program* of
:mod:`repro.sim.compiled` -- the same literal-class tables the
bit-plane kernel sweeps -- frame by frame into CNF, with every net's
four-value state carried as a :data:`~repro.sat.Pair`
``(is1, is0)``.  Because the tables are enumerated through
:func:`repro.sim.evaluate_cell`, dialect semantics (``x_pessimism``,
``uninitialized_flop``, the async-reset settle fixpoint, scan-enable
muxing, ICG gating) hold in the CNF **by construction**: a satisfying
assignment of the unrolled formula is, literal for literal, a trace
the simulator would produce.

The encoding is X-aware.  A gate whose cell maps every binary input
row to 0/1 and whose inputs are all binary pairs (``is0 == -is1``)
gets one rail, ``(is1, -is1)``: one
:meth:`~repro.sat.CnfBuilder.gate` of its boolean on-set.  Two
independent rails remain on nets that X can reach (power-on X flops
without reset, X initial states) and on ICG-gated flop state,
whose hold-or-capture formula does not fold to complementary literals
(correct, only slower).  Binary values therefore pass through levels
and frames by literal identity, and the ``x AND -x`` fold of
:meth:`~repro.sat.CnfBuilder.lit_and` makes every ``Known`` or
X test over such a net a constant while the CNF is built: a
reset-settle proof is decided before the solver searches.

Frame convention (matches a testbench loop over the event simulator)::

    for t in range(depth):
        sim.set_inputs(frames[t]); sim.evaluate()   # <- frame t
        ...properties are judged on these settled values...
        if t < depth - 1:
            sim.clock_edge(clock_port)

Inputs are binary decision variables per (free port, frame); the
clock and scan ports are tied low and the reset follows a
reset-then-release protocol, so every counterexample is a concrete
binary stimulus that replays on **both** simulator dialects
(:func:`replay_counterexample` -- the crossval discipline of PR 4
applied to formal results).

Per-property solving uses a **fresh seeded solver**, so verdicts,
models and statistics are a pure function of (module, property,
depth, seed) -- independent of worker count or which process solved
which property.  :func:`check_properties` fans properties out via
:func:`repro.perf.fanout` and merges in task order; report JSON is
byte-identical for any worker count.

The SAT path's test oracle, the ``lanes`` checker of
:mod:`repro.oracles.bmc`, decides the same properties with the
compiled simulator itself: exhaustive stimulus enumeration on a
:class:`~repro.sim.compiled.BatchSimulator` when the free-input space
is small, seeded random lanes otherwise.

:func:`check_bus_exclusivity` is the pure-CNF member of the family:
address-window comparators prove (or give a witness address against)
the MAP-rule claim that decode windows never overlap.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from ..netlist import Logic, Module
from ..netlist.clocks import CLOCK_PORT, scan_mode_inputs
from ..netlist.netlist import NetlistError
from ..perf import fanout
from ..sim import VENDOR_A_SIM, VENDOR_B_SIM, LogicSimulator
from ..sim.compiled import (
    _ALWAYS,
    _IS0,
    _IS1,
    _ISX,
    _NEVER,
    CompiledProgram,
    compile_module,
)
from ..sim.simulator import SimulatorConfig
from ..sat import CnfBuilder, Pair, Solver
from .properties import Property, PropertySet
from .properties import PropertyError as PropertyError

__all__ = [
    "BmcError",
    "BmcReport",
    "BusExclusivityResult",
    "Counterexample",
    "PropertyCheck",
    "ReplayResult",
    "Unroller",
    "check_bus_exclusivity",
    "check_properties",
    "counterexample_stimulus",
    "replay_counterexample",
]


class BmcError(NetlistError):
    """The module or property cannot be bounded-model-checked."""


# ---------------------------------------------------------------------------
# Input protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _InputPlan:
    """How each input port is driven during BMC (the unroller and the
    lanes oracle share it)."""

    clock_port: str | None
    reset_ports: tuple[str, ...]
    tied: tuple[tuple[str, Logic], ...]
    free_ports: tuple[str, ...]


def _plan_inputs(program: CompiledProgram, clock_port: str) -> _InputPlan:
    """Classify input ports into clock / reset / tied / free."""
    tied = dict.fromkeys(scan_mode_inputs(program.module), Logic.ZERO)

    input_slots = {int(s) for s in program.input_slots}
    reset_slots = {int(s) for s in program.reset_rn}
    for slot in sorted(reset_slots):
        if slot not in input_slots:
            raise BmcError(
                f"reset net {program.net_names[slot]!r} of "
                f"{program.module.name} is gate-driven; BMC models "
                "input-driven resets only"
            )
    reset_ports = tuple(sorted(
        port for port in program.input_ports
        if program.net_index[port] in reset_slots and port not in tied
    ))

    clock: str | None = clock_port if clock_port in program.input_row \
        else None
    if clock is None and program.q_slots.size:
        raise BmcError(
            f"{program.module.name} has state but no input port "
            f"{clock_port!r} to clock it"
        )
    free = tuple(
        port for port in program.input_ports
        if port != clock and port not in tied
        and port not in reset_ports
    )
    return _InputPlan(
        clock_port=clock,
        reset_ports=reset_ports,
        tied=tuple(sorted(tied.items())),
        free_ports=free,
    )


def _protocol_value(
    plan: _InputPlan, port: str, frame: int, reset_frames: int
) -> Logic | None:
    """Fixed value of a non-free port at ``frame`` (None = free)."""
    if port == plan.clock_port:
        return Logic.ZERO
    for tied_port, value in plan.tied:
        if port == tied_port:
            return value
    if port in plan.reset_ports:
        return Logic.ZERO if frame < reset_frames else Logic.ONE
    return None


# ---------------------------------------------------------------------------
# Unroller
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Gate:
    """One combinational instance of the program, ready to encode.

    ``pins`` are the input slots in pin order and ``table`` the cell's
    boolean on-set over them, as :meth:`CnfBuilder.gate` takes it.
    Rows are the cell table's minterms as ``(class, slot)`` literals,
    padding dropped.
    """

    out: int
    pins: tuple[int, ...]
    binary: bool
    table: int
    rows1: tuple[tuple[tuple[int, int], ...], ...]
    rows0: tuple[tuple[tuple[int, int], ...], ...]


#: Gates per compiled program, shared by every :class:`Unroller` over
#: it; weak keys, so :func:`clear_program_cache` frees them too.
_PROGRAM_GATES: weakref.WeakKeyDictionary[
    CompiledProgram, tuple[_Gate, ...]
] = weakref.WeakKeyDictionary()


def _program_gates(program: CompiledProgram) -> tuple[_Gate, ...]:
    """Every combinational instance of ``program``, in level order."""
    cached = _PROGRAM_GATES.get(program)
    if cached is not None:
        return cached
    gates: list[_Gate] = []
    for level in program.levels:
        cls_rows = level.cls.tolist()
        net_rows = level.net.tolist()
        n = level.n_insts
        bounds = level.seg.tolist() + [len(cls_rows)]

        def rows(block: int) -> tuple[tuple[tuple[int, int], ...], ...]:
            # A NEVER row only pads an empty block; no rows is the same
            # constant-false rail.
            return tuple(
                tuple(
                    (c, s) for c, s in zip(cls_rows[r], net_rows[r])
                    if c != _ALWAYS
                )
                for r in range(bounds[block], bounds[block + 1])
                if cls_rows[r][0] != _NEVER
            )

        for index, out in enumerate(level.out.tolist()):
            rows1, rows0 = rows(index), rows(n + index)
            gates.append(_Gate(
                out=out,
                # Every row lists the input slots in pin order.
                pins=tuple(s for _, s in next(iter(rows1 + rows0), ())),
                binary=bool(level.binary[index]),
                table=sum(
                    1 << sum((c == _IS1) << k for k, (c, _) in enumerate(row))
                    for row in rows1 if _ISX not in (c for c, _ in row)
                ),
                rows1=rows1,
                rows0=rows0,
            ))
    _PROGRAM_GATES[program] = cached = tuple(gates)
    return cached


class Unroller:
    """Frame-by-frame Tseitin encoding of one compiled program.

    Builds, per frame ``t``, a pair for every net slot -- the settled
    combinational values after applying frame ``t`` inputs, including
    the async-reset fixpoint -- and threads flop state through the
    exact ``clock_edge`` capture formulas of
    :class:`~repro.sim.compiled.BatchSimulator` between frames.  A
    net X cannot reach is one literal and its negation; see
    :meth:`_combinational`.
    """

    def __init__(
        self,
        module: Module,
        config: SimulatorConfig,
        builder: CnfBuilder,
        *,
        clock_port: str = CLOCK_PORT,
        reset_frames: int = 1,
        initial_state: Mapping[str, Logic] | None = None,
    ) -> None:
        if reset_frames < 0:
            raise BmcError("reset_frames must be >= 0")
        self.module = module
        self.config = config
        self.builder = builder
        self.program = compile_module(module, config)
        self.plan = _plan_inputs(self.program, clock_port)
        self._gates = _program_gates(self.program)
        self.reset_frames = reset_frames
        #: Per-frame slot pairs (settled combinational values).
        self.slots: list[list[Pair]] = []
        #: Per-frame input pairs by port name (clock port included).
        self.inputs: list[dict[str, Pair]] = []
        init = dict(initial_state or {})
        unknown = sorted(set(init) - set(self.program.flop_names))
        if unknown:
            raise BmcError(f"unknown flops in initial state: {unknown}")
        self._state: list[Pair] = [
            builder.pair_const(init.get(name, config.uninitialized_flop))
            for name in self.program.flop_names
        ]

    @property
    def depth(self) -> int:
        """Number of frames built so far."""
        return len(self.slots)

    def pair_of(self, frame: int, net: str) -> Pair:
        """The ``(is1, is0)`` pair of ``net`` at ``frame``."""
        slot = self.program.net_index.get(net)
        if slot is None:
            raise BmcError(
                f"no net {net!r} in {self.module.name}"
            )
        return self.slots[frame][slot]

    def extend(self, depth: int) -> None:
        """Build frames until ``depth`` frames exist."""
        while self.depth < depth:
            self._build_frame()

    # -- internals ----------------------------------------------------

    def _frame_inputs(self, frame: int) -> dict[str, Pair]:
        builder = self.builder
        pairs: dict[str, Pair] = {}
        for port in self.program.input_ports:
            value = _protocol_value(
                self.plan, port, frame, self.reset_frames
            )
            if value is None:
                pairs[port] = builder.pair_free()
            else:
                pairs[port] = builder.pair_const(value)
        return pairs

    def _adjust_resets(
        self, state: list[Pair], inputs: dict[str, Pair]
    ) -> list[Pair]:
        """Async-reset fixpoint: force reset-asserted flops low.

        Mirrors ``_apply_async_resets``: ``mask = rn0 & ~state0``,
        then ``state0 |= mask`` / ``state1 &= ~mask``.  Reset nets are
        input-driven (checked at plan time), so one application
        settles, exactly like the simulator's fixpoint does.
        """
        builder = self.builder
        program = self.program
        adjusted = list(state)
        for sel, rn_slot in zip(program.reset_sel, program.reset_rn):
            port = program.net_names[rn_slot]
            rn0 = inputs[port][1]
            s1, s0 = adjusted[sel]
            mask = builder.lit_and((rn0, -s0))
            adjusted[sel] = (
                builder.lit_and((s1, -mask)),
                builder.lit_or((s0, mask)),
            )
        return adjusted

    def _combinational(
        self, state: list[Pair], inputs: dict[str, Pair]
    ) -> list[Pair]:
        """One settled sweep: slot pairs from state + input pairs.

        A gate whose cell is binary-closed and whose input pairs are
        all binary (``is0 == -is1``) encodes only its ``is1`` rail (one
        :meth:`CnfBuilder.gate`) and takes ``is0 = -is1``; X cannot
        reach it, so the second rail would only restate the first.
        Every other gate encodes both rails from its rows.
        """
        builder = self.builder
        program = self.program
        lit_and = builder.lit_and
        lit_or = builder.lit_or
        pairs: list[Pair] = [builder.pair_x] * program.n_slots
        pairs[program.const0_slot] = builder.pair_zero
        pairs[program.const1_slot] = builder.pair_one
        for port in program.input_ports:
            pairs[program.net_index[port]] = inputs[port]
        for slot, pair in zip(program.q_slots, state):
            pairs[int(slot)] = pair

        def literal(cls: int, slot: int) -> int:
            pair = pairs[slot]
            if cls == _IS1:
                return pair[0]
            if cls == _IS0:
                return pair[1]
            return builder.pair_is_x(pair)

        for gate in self._gates:
            if gate.binary and all(
                pairs[s][1] == -pairs[s][0] for s in gate.pins
            ):
                is1 = builder.gate(
                    gate.table, [pairs[s][0] for s in gate.pins]
                )
                pairs[gate.out] = (is1, -is1)
                continue
            pairs[gate.out] = (
                lit_or(
                    lit_and(literal(c, s) for c, s in row)
                    for row in gate.rows1
                ),
                lit_or(
                    lit_and(literal(c, s) for c, s in row)
                    for row in gate.rows0
                ),
            )
        return pairs

    def _clock_edge(
        self, slots: list[Pair], state: list[Pair]
    ) -> list[Pair]:
        """Capture formulas of ``BatchSimulator.clock_edge`` in CNF."""
        builder = self.builder
        program = self.program
        assert self.plan.clock_port is not None
        plan = program.clock_plan(self.plan.clock_port)
        next_state = list(state)
        for k in range(len(plan.sel)):
            d = slots[int(plan.d[k])]
            si = slots[int(plan.si[k])]
            se = slots[int(plan.se[k])]
            rn = slots[int(plan.rn[k])]
            data1 = builder.lit_or((
                builder.lit_and((se[0], si[0])),
                builder.lit_and((se[1], d[0])),
            ))
            data0 = builder.lit_or((
                builder.lit_and((se[0], si[1])),
                builder.lit_and((se[1], d[1])),
            ))
            all1 = builder.lit_and(
                slots[int(s)][0] for s in plan.en[k]
            )
            any0 = builder.lit_or(
                slots[int(s)][1] for s in plan.en[k]
            )
            gate_x = -builder.lit_or((all1, any0))
            captured = builder.lit_or((all1, gate_x))
            data1 = builder.lit_and((data1, -gate_x))
            data0 = builder.lit_and((data0, -gate_x))
            rn0 = rn[1]
            rn_x = builder.pair_is_x(rn)
            data0 = builder.lit_and(
                (builder.lit_or((data0, rn0)), -rn_x)
            )
            data1 = builder.lit_and((data1, -rn0, -rn_x))
            hold1, hold0 = state[int(plan.sel[k])]
            next_state[int(plan.sel[k])] = (
                builder.lit_or((
                    builder.lit_and((captured, data1)),
                    builder.lit_and((-captured, hold1)),
                )),
                builder.lit_or((
                    builder.lit_and((captured, data0)),
                    builder.lit_and((-captured, hold0)),
                )),
            )
        return next_state

    def _build_frame(self) -> None:
        frame = self.depth
        inputs = self._frame_inputs(frame)
        state = self._adjust_resets(self._state, inputs)
        slots = self._combinational(state, inputs)
        self.inputs.append(inputs)
        self.slots.append(slots)
        if self.plan.clock_port is not None and self.program.q_slots.size:
            # State for the next frame: capture on the rising edge,
            # then the post-edge evaluate re-applies this frame's
            # async resets (matters for held, reset-asserted flops).
            captured = self._clock_edge(slots, state)
            self._state = self._adjust_resets(captured, inputs)
        else:
            self._state = state

    # -- model extraction ---------------------------------------------

    def stimulus_from_model(
        self, solver: Solver
    ) -> tuple[dict[str, Logic], ...]:
        """Per-frame input vectors realized by a satisfying model.

        Includes every input port except the clock (the replay loop
        owns the clock), so the vectors drive a simulator directly.
        """
        def lit_logic(pair: Pair) -> Logic:
            if solver.value(pair[0]):
                return Logic.ONE
            if solver.value(pair[1]):
                return Logic.ZERO
            return Logic.X

        frames: list[dict[str, Logic]] = []
        for inputs in self.inputs:
            frames.append({
                port: lit_logic(pair)
                for port, pair in sorted(inputs.items())
                if port != self.plan.clock_port
            })
        return tuple(frames)

    def net_value_from_model(
        self, solver: Solver, frame: int, net: str
    ) -> Logic:
        """A net's four-value model value at one frame."""
        pair = self.pair_of(frame, net)
        if solver.value(pair[0]):
            return Logic.ONE
        if solver.value(pair[1]):
            return Logic.ZERO
        return Logic.X


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    """A concrete stimulus falsifying an assert (or hitting a cover).

    ``frames[t]`` is the input vector applied before frame ``t``;
    ``frame`` is where the violation completes (for ``within=n``
    asserts the window ``frame-n+1 .. frame`` is all-violating) or
    where the cover witness holds.  ``nets`` records the four-value
    model values of the property's nets at that frame.
    """

    kind: str  # "violation" | "witness"
    frame: int
    frames: tuple[dict[str, Logic], ...]
    nets: tuple[tuple[str, str], ...]
    clock_port: str | None

    def to_dict(self) -> dict[str, object]:
        """Canonical JSON-ready form (Logic as 0/1/x/z chars)."""
        return {
            "clock_port": self.clock_port,
            "frame": self.frame,
            "frames": [
                {port: str(value) for port, value in sorted(f.items())}
                for f in self.frames
            ],
            "kind": self.kind,
            "nets": {net: value for net, value in self.nets},
        }


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one property under one BMC run."""

    name: str
    kind: str
    fingerprint: str
    expr: str
    within: int
    status: str  # proven|falsified|covered|unreachable|unknown
    depth: int
    engine: str
    used_assumptions: tuple[str, ...] = ()
    vacuous: bool = False
    counterexample: Counterexample | None = None
    solver_stats: tuple[tuple[str, int], ...] = ()
    message: str = ""

    def to_dict(self) -> dict[str, object]:
        """Canonical JSON-ready form."""
        return {
            "counterexample": (
                self.counterexample.to_dict()
                if self.counterexample is not None else None
            ),
            "depth": self.depth,
            "engine": self.engine,
            "expr": self.expr,
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "message": self.message,
            "name": self.name,
            "solver_stats": dict(self.solver_stats),
            "status": self.status,
            "used_assumptions": list(self.used_assumptions),
            "vacuous": self.vacuous,
            "within": self.within,
        }


@dataclass(frozen=True)
class BmcReport:
    """All property checks of one module at one depth."""

    module: str
    depth: int
    engine: str
    seed: int
    config: str
    checks: tuple[PropertyCheck, ...] = field(default_factory=tuple)

    def counts(self) -> dict[str, int]:
        """Status histogram plus the vacuous-pass count."""
        out = {
            "covered": 0, "falsified": 0, "proven": 0,
            "unknown": 0, "unreachable": 0, "vacuous": 0,
        }
        for check in self.checks:
            out[check.status] += 1
            if check.vacuous:
                out["vacuous"] += 1
        return out

    def to_dict(self) -> dict[str, object]:
        """Canonical JSON-ready form (no wall time anywhere)."""
        return {
            "checks": [c.to_dict() for c in self.checks],
            "config": self.config,
            "counts": self.counts(),
            "depth": self.depth,
            "engine": self.engine,
            "module": self.module,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        """Byte-stable JSON: sorted keys, no whitespace drift."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def format_report(self) -> str:
        """Human-readable summary table."""
        counts = self.counts()
        lines = [
            f"BMC {self.module} depth={self.depth} "
            f"engine={self.engine}: "
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())
                        if v)
        ]
        for check in self.checks:
            marker = {
                "falsified": "FAIL", "unreachable": "FAIL",
                "proven": "ok", "covered": "ok", "unknown": "?",
            }[check.status]
            extra = ""
            if check.counterexample is not None:
                extra = f" @frame {check.counterexample.frame}"
            if check.vacuous:
                extra += " (vacuous)"
            if check.used_assumptions:
                extra += f" [assumes: "\
                         f"{', '.join(check.used_assumptions)}]"
            lines.append(
                f"  [{marker}] {check.kind} {check.name}: "
                f"{check.status}{extra}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# CDCL engine
# ---------------------------------------------------------------------------


def _encode_assumes(
    builder: CnfBuilder,
    unroller: Unroller,
    assumes: Sequence[Property],
    depth: int,
) -> list[tuple[int, str]]:
    """Selector-guarded assume constraints: one selector per assume.

    With selector ``s`` asserted, the assume expression is forced to
    ``ONE`` at every frame.  Solving under selector assumptions makes
    the CDCL failed-assumption core name exactly the assumes a proof
    used (unsat-core-lite).
    """
    selectors: list[tuple[int, str]] = []
    for prop in assumes:
        selector = builder.new_var()
        for t in range(depth):
            pair = prop.expr.encode(
                builder, lambda net, _t=t: unroller.pair_of(_t, net)
            )
            builder.add_clause([-selector, pair[0]])
        selectors.append((selector, prop.name))
    return selectors


def _check_one_cdcl(
    task: tuple[
        Module, SimulatorConfig, Property, tuple[Property, ...], int,
        int, str, int, tuple[tuple[str, Logic], ...] | None,
    ],
) -> PropertyCheck:
    """Worker: solve one property with a fresh seeded solver."""
    (module, config, prop, assumes, depth, seed, clock_port,
     reset_frames, initial_state) = task
    solver = Solver(seed=seed)
    builder = CnfBuilder(solver)
    unroller = Unroller(
        module, config, builder,
        clock_port=clock_port, reset_frames=reset_frames,
        initial_state=(
            dict(initial_state) if initial_state is not None else None
        ),
    )
    unroller.extend(depth)
    selectors = _encode_assumes(builder, unroller, assumes, depth)

    def frame_pair(t: int) -> Pair:
        return prop.expr.encode(
            builder, lambda net, _t=t: unroller.pair_of(_t, net)
        )

    if prop.kind == "assert":
        frame_pairs = [frame_pair(t) for t in range(depth)]
        windows = [
            (start + prop.within - 1, builder.lit_and(
                frame_pairs[t][1]
                for t in range(start, start + prop.within)
            ))
            for start in range(depth - prop.within + 1)
        ]
        target = builder.lit_or(lit for _, lit in windows)
        sat = solver.solve([s for s, _ in selectors] + [target])
        if sat:
            frame = next(
                end for end, lit in windows if solver.value(lit)
            )
            cex = Counterexample(
                kind="violation",
                frame=frame,
                frames=unroller.stimulus_from_model(solver),
                nets=tuple(
                    (net, str(unroller.net_value_from_model(
                        solver, frame, net)))
                    for net in prop.expr.nets()
                ),
                clock_port=unroller.plan.clock_port,
            )
            status, used = "falsified", ()
        else:
            cex = None
            status = "proven"
            core = set(solver.core)
            used = tuple(
                name for s, name in selectors if s in core
            )
    elif prop.kind == "cover":
        bound = depth if prop.within == 1 else min(prop.within, depth)
        frame_pairs = [frame_pair(t) for t in range(bound)]
        target = builder.lit_or(p[0] for p in frame_pairs)
        sat = solver.solve([s for s, _ in selectors] + [target])
        if sat:
            frame = next(
                t for t, p in enumerate(frame_pairs)
                if solver.value(p[0])
            )
            cex = Counterexample(
                kind="witness",
                frame=frame,
                frames=unroller.stimulus_from_model(solver)[:frame + 1],
                nets=tuple(
                    (net, str(unroller.net_value_from_model(
                        solver, frame, net)))
                    for net in prop.expr.nets()
                ),
                clock_port=unroller.plan.clock_port,
            )
            status, used = "covered", ()
        else:
            cex = None
            status = "unreachable"
            core = set(solver.core)
            used = tuple(
                name for s, name in selectors if s in core
            )
    else:  # pragma: no cover - filtered by check_properties
        raise BmcError(f"cannot check a {prop.kind!r} property")

    return PropertyCheck(
        name=prop.name,
        kind=prop.kind,
        fingerprint=prop.fingerprint,
        expr=prop.expr.describe(),
        within=prop.within,
        status=status,
        depth=depth,
        engine="cdcl",
        used_assumptions=used,
        counterexample=cex,
        solver_stats=tuple(sorted(solver.stats.to_dict().items())),
        message=prop.message,
    )


def _assumes_satisfiable(
    module: Module,
    config: SimulatorConfig,
    assumes: tuple[Property, ...],
    depth: int,
    seed: int,
    clock_port: str,
    reset_frames: int,
    initial_state: tuple[tuple[str, Logic], ...] | None,
) -> bool:
    """Does any execution satisfy every assume at every frame?"""
    solver = Solver(seed=seed)
    builder = CnfBuilder(solver)
    unroller = Unroller(
        module, config, builder,
        clock_port=clock_port, reset_frames=reset_frames,
        initial_state=(
            dict(initial_state) if initial_state is not None else None
        ),
    )
    unroller.extend(depth)
    selectors = _encode_assumes(builder, unroller, assumes, depth)
    return bool(solver.solve([s for s, _ in selectors]))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _split_properties(
    module: Module,
    properties: PropertySet | Sequence[Property],
    depth: int,
) -> tuple[tuple[Property, ...], tuple[Property, ...]]:
    """Validate a BMC run's arguments; return (assumes, targets)."""
    if depth < 1:
        raise BmcError("depth must be >= 1")
    if isinstance(properties, PropertySet):
        if properties.module != module.name:
            raise BmcError(
                f"property set targets {properties.module!r}, "
                f"module is {module.name!r}"
            )
    props = tuple(properties)
    assumes = tuple(p for p in props if p.kind == "assume")
    targets = tuple(p for p in props if p.kind != "assume")
    for prop in targets:
        if prop.kind == "assert" and depth < prop.within:
            raise BmcError(
                f"property {prop.name!r} needs depth >= {prop.within}"
            )
    return assumes, targets


def check_properties(
    module: Module,
    properties: PropertySet | Sequence[Property],
    *,
    depth: int,
    config: SimulatorConfig | None = None,
    workers: int | None = None,
    seed: int = 0,
    clock_port: str = CLOCK_PORT,
    reset_frames: int = 1,
    initial_state: Mapping[str, Logic] | None = None,
) -> BmcReport:
    """Bounded-model-check a property set against ``module``.

    Assume properties constrain every check; assert and cover
    properties are checked one fresh CDCL solver each, fanned out over
    ``workers`` processes with task-order merging -- the report (and
    its :meth:`BmcReport.to_json`) is byte-identical for any worker
    count.

    A counterexample's stimulus replays on both simulator dialects via
    :func:`replay_counterexample`.  When every assume together is
    unsatisfiable, proven asserts are flagged *vacuous*.

    Bad arguments -- among them an assert whose ``within`` window is
    deeper than ``depth`` -- raise :class:`BmcError` here, before any
    property is fanned out.
    """
    assumes, targets = _split_properties(module, properties, depth)
    config = config or VENDOR_A_SIM
    init_t = (
        tuple(sorted(initial_state.items()))
        if initial_state is not None else None
    )
    tasks = [
        (module, config, prop, assumes, depth, seed, clock_port,
         reset_frames, init_t)
        for prop in targets
    ]
    checks = list(fanout(
        _check_one_cdcl, tasks, workers=workers, stage="formal.bmc"
    ))

    if assumes and any(
        c.status in ("proven", "unreachable") for c in checks
    ):
        if not _assumes_satisfiable(
            module, config, assumes, depth, seed, clock_port,
            reset_frames, init_t,
        ):
            checks = [
                (
                    replace(check, vacuous=True)
                    if check.status in ("proven", "unreachable")
                    else check
                )
                for check in checks
            ]

    return BmcReport(
        module=module.name,
        depth=depth,
        engine="cdcl",
        seed=seed,
        config=config.name,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# Counterexample replay (crossval discipline)
# ---------------------------------------------------------------------------


def counterexample_stimulus(
    cex: Counterexample,
) -> list[dict[str, Logic]]:
    """The counterexample as a per-frame stimulus vector list.

    Ready for ``BatchSimulator.set_lane_inputs`` /
    ``LogicSimulator.set_inputs`` -- the exact vectors the BMC model
    realized, clock excluded (the replay loop toggles it).
    """
    return [dict(frame) for frame in cex.frames]


@dataclass(frozen=True)
class ReplayResult:
    """Cross-dialect replay outcome of one counterexample."""

    property_name: str
    kind: str
    frame: int
    outcomes: tuple[tuple[str, bool], ...]  # (dialect name, reproduced)

    @property
    def reproduced_everywhere(self) -> bool:
        """True when every dialect reproduced the result."""
        return all(ok for _, ok in self.outcomes)

    def to_dict(self) -> dict[str, object]:
        """Canonical JSON-ready form."""
        return {
            "frame": self.frame,
            "kind": self.kind,
            "outcomes": dict(self.outcomes),
            "property": self.property_name,
            "reproduced_everywhere": self.reproduced_everywhere,
        }


def replay_counterexample(
    module: Module,
    prop: Property,
    cex: Counterexample,
    *,
    configs: Sequence[SimulatorConfig] = (VENDOR_A_SIM, VENDOR_B_SIM),
) -> ReplayResult:
    """Replay a counterexample on the event simulator per dialect.

    The stimulus is applied frame by frame (inputs, settle, judge,
    clock) exactly as the unroller modeled it; the violation (or
    cover witness) must reappear at the recorded frame.  This is the
    formal-engine version of PR 4's crossval contract: a BMC result
    that does not reproduce on *both* dialects is a modeling bug, and
    the tests treat it as such.
    """
    outcomes: list[tuple[str, bool]] = []
    for config in configs:
        sim = LogicSimulator(module, config)
        seen: list[Logic] = []
        for t, frame in enumerate(cex.frames):
            vector: dict[str, Logic] = dict(frame)
            if cex.clock_port is not None:
                vector[cex.clock_port] = Logic.ZERO
            sim.set_inputs(vector)
            sim.evaluate()
            seen.append(prop.expr.evaluate(sim.read))
            if t < len(cex.frames) - 1 and cex.clock_port is not None:
                sim.clock_edge(cex.clock_port)
        if cex.kind == "violation":
            window = range(
                cex.frame - prop.within + 1, cex.frame + 1
            )
            reproduced = all(
                0 <= t < len(seen) and seen[t] is Logic.ZERO
                for t in window
            )
        else:
            reproduced = (
                cex.frame < len(seen)
                and seen[cex.frame] is Logic.ONE
            )
        outcomes.append((config.name, reproduced))
    return ReplayResult(
        property_name=prop.name,
        kind=cex.kind,
        frame=cex.frame,
        outcomes=tuple(outcomes),
    )


# ---------------------------------------------------------------------------
# Bus-window exclusivity (pure CNF)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BusExclusivityResult:
    """Verdict of the decode-window overlap check."""

    windows: tuple[str, ...]
    address_bits: int
    exclusive: bool
    witness_address: int | None = None
    overlapping: tuple[str, str] | None = None

    def to_dict(self) -> dict[str, object]:
        """Canonical JSON-ready form."""
        return {
            "address_bits": self.address_bits,
            "exclusive": self.exclusive,
            "overlapping": (
                list(self.overlapping)
                if self.overlapping is not None else None
            ),
            "windows": list(self.windows),
            "witness_address": self.witness_address,
        }


def check_bus_exclusivity(
    windows: Iterable[tuple[str, int, int]] | object,
    *,
    address_bits: int = 32,
    seed: int = 0,
) -> BusExclusivityResult:
    """Prove decode windows disjoint, or find a doubly-decoded address.

    ``windows`` is ``(name, base, size)`` rows or a
    :class:`repro.soc.SystemBus` (its ``iter_windows`` rows are
    used).  Each window becomes a pure-CNF comparator circuit
    ``base <= addr < base+size`` over a shared symbolic address; the
    solver then searches for an address inside two windows at once --
    the formal twin of the MAP-001 structural overlap rule, but
    through the same decode arithmetic a bus fabric would implement.
    """
    if hasattr(windows, "iter_windows"):
        rows = [
            (name, window.base, window.size)
            for name, window, _ in windows.iter_windows()  # type: ignore[attr-defined]
        ]
    else:
        rows = [(name, base, size) for name, base, size in windows]  # type: ignore[misc]
    names = tuple(name for name, _, _ in rows)
    if len(set(names)) != len(names):
        raise BmcError("window names must be unique")

    solver = Solver(seed=seed)
    builder = CnfBuilder(solver)
    bits = [solver.new_var() for _ in range(address_bits)]
    inside: list[int] = []
    for name, base, size in rows:
        if base < 0 or size <= 0:
            raise BmcError(f"window {name!r} must have positive size")
        inside.append(builder.lit_and((
            builder.ge_const(bits, base),
            builder.lt_const(bits, base + size),
        )))
    pair_hits = [
        (i, j, builder.lit_and((inside[i], inside[j])))
        for i in range(len(rows)) for j in range(i + 1, len(rows))
    ]
    overlap = builder.lit_or(lit for _, _, lit in pair_hits)
    if not solver.solve([overlap]):
        return BusExclusivityResult(
            windows=names, address_bits=address_bits, exclusive=True
        )
    address = sum(
        1 << k for k, bit in enumerate(bits) if solver.value(bit)
    )
    i, j = next(
        (i, j) for i, j, lit in pair_hits if solver.value(lit)
    )
    return BusExclusivityResult(
        windows=names,
        address_bits=address_bits,
        exclusive=False,
        witness_address=address,
        overlapping=(names[i], names[j]),
    )
