"""Cycle-accurate four-value logic simulation of netlist modules.

The simulator evaluates a flat :class:`~repro.netlist.Module`:
combinational logic is propagated in topological order each delta
round, flip-flops are updated on explicit clock edges, and asynchronous
resets are honoured between rounds.

Two *dialects* are provided (:data:`VENDOR_A_SIM`, :data:`VENDOR_B_SIM`)
that differ in how uninitialised flip-flops and unknown values are
treated.  This reproduces the paper's Section-3 pain point: the
customer simulated with a PC-based Verilog/ModelSim setup while the
design service used NC-Verilog, and the differing X semantics caused
"extra twist during ASIC sign-off".  Running the same netlist and
stimulus under both dialects and diffing the traces is experiment E13.

In production this interpreter only replays BMC counterexamples;
otherwise it is the test oracle of the compiled
:class:`~repro.sim.BatchSimulator`.  It has no observer hook: the
coverage oracle (:mod:`repro.oracles.coverage`) reads its state after
each clock edge itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..netlist import Logic, Module
from ..netlist.clocks import CLOCK_PORT, trace_control_source
from ..netlist.library import Cell
from ..netlist.logic import logic_and
from ..netlist.netlist import Instance, NetlistError
from ..perf import stage_timer


@dataclass(frozen=True)
class SimulatorConfig:
    """Dialect knobs for the logic simulator.

    ``uninitialized_flop`` -- power-on value of a flip-flop that has
    not been reset: true Verilog semantics use ``X``; some flows
    initialise to ``0`` (e.g. FPGA-targeted RTL or two-state modes).

    ``x_pessimism`` -- when True, an ``X`` on a mux select poisons the
    output even if both data inputs agree (pessimistic X propagation);
    when False the standard optimistic semantics apply.

    ``max_settle_rounds`` -- bound on async-reset/evaluate iterations.
    """

    name: str = "default"
    uninitialized_flop: Logic = Logic.X
    x_pessimism: bool = False
    max_settle_rounds: int = 8


#: NC-Verilog-style four-state simulation: flops power up unknown.
VENDOR_A_SIM = SimulatorConfig(name="vendor_a_4state", uninitialized_flop=Logic.X)

#: PC/ModelSim-style two-state-leaning setup: flops power up at zero.
VENDOR_B_SIM = SimulatorConfig(
    name="vendor_b_2state", uninitialized_flop=Logic.ZERO
)


def evaluate_cell(
    cell: Cell, inputs: Mapping[str, Logic], config: SimulatorConfig
) -> Logic:
    """Evaluate one combinational cell under a dialect's X policy.

    This is the single source of truth for dialect-sensitive gate
    semantics: the simulator's inner loop and the static analysis
    engine (:mod:`repro.analysis`) both call it, so a policy change
    (e.g. ``x_pessimism``) cannot drift between the two.
    """
    if config.x_pessimism and cell.footprint == "MUX2":
        if not inputs["S"].is_known:
            return Logic.X
    return cell.evaluate(inputs)


@dataclass
class Trace:
    """Per-cycle recording of selected signals (a tiny VCD substitute)."""

    signals: tuple[str, ...]
    samples: list[tuple[Logic, ...]] = field(default_factory=list)

    def __post_init__(self) -> None:
        # signal -> tuple position, so column() is O(1) per sample
        # instead of a linear signal scan.
        self._index = {s: i for i, s in enumerate(self.signals)}

    def record(self, values: Mapping[str, Logic]) -> None:
        self.samples.append(tuple(values[s] for s in self.signals))

    def column(self, signal: str) -> list[Logic]:
        index = self._index.get(signal)
        if index is None:
            raise ValueError(
                f"trace does not record signal {signal!r}"
            )
        return [sample[index] for sample in self.samples]

    def __len__(self) -> int:
        return len(self.samples)


def diff_traces(
    a: Trace, b: Trace, *, limit: int | None = None
) -> list[tuple[int, str, Logic, Logic]]:
    """All (cycle, signal, value_a, value_b) points where two traces differ.

    Traces must cover the same signals; the comparison runs over the
    common cycle prefix.  ``limit`` caps how many mismatches are
    materialised (None keeps them all): diffing long, widely divergent
    traces otherwise builds millions of tuples just to learn "they
    differ".
    """
    if a.signals != b.signals:
        raise ValueError("traces record different signal sets")
    mismatches: list[tuple[int, str, Logic, Logic]] = []
    for cycle in range(min(len(a), len(b))):
        for signal, va, vb in zip(a.signals, a.samples[cycle], b.samples[cycle]):
            if va is not vb:
                mismatches.append((cycle, signal, va, vb))
                if limit is not None and len(mismatches) >= limit:
                    return mismatches
    return mismatches


def resolve_clock_connection(
    module: Module, net_name: str, clock_port: str
) -> tuple[str, ...] | None:
    """Enable nets between ``clock_port`` and a clock-pin net, or None.

    A flop is driven by ``clock_port``'s rising edge iff its clock net
    traces back -- through buffers, pads and integrated clock gates --
    to that input port with even inverter parity.  The returned tuple
    lists the EN nets of every ICG crossed (empty when the pin sees
    the port through buffers only); ``None`` means the pin is not
    clocked by this port at all (another port, an inverted/derived
    clock, a flop-driven ripple clock, ...).
    """
    trace = trace_control_source(module, net_name)
    if trace.kind != "port" or trace.root != clock_port or trace.inverted:
        return None
    enables: list[str] = []
    for inst_name in trace.path:
        inst = module.instances[inst_name]
        if inst.cell.is_clock_gate:
            enables.extend(
                inst.net_of(pin)
                for pin in inst.cell.input_pins
                if pin != "CK"
            )
    return tuple(enables)


class LogicSimulator:
    """Four-value, cycle-driven simulator for one flat module."""

    def __init__(self, module: Module,
                 config: SimulatorConfig | None = None) -> None:
        self.module = module
        self.config = config or SimulatorConfig()
        self._order = module.topological_combinational_order()
        self._flops = module.sequential_instances
        self.net_values: dict[str, Logic] = {
            name: Logic.X for name in module.nets
        }
        self.flop_state: dict[str, Logic] = {
            flop.name: self.config.uninitialized_flop for flop in self._flops
        }
        self._input_values: dict[str, Logic] = {
            name: Logic.X
            for name, port in module.ports.items()
            if port.direction == "input"
        }
        self.cycle = 0
        # clock port -> [(flop, ICG enable nets)], resolved lazily.
        self._clock_plans: dict[
            str, list[tuple[Instance, tuple[str, ...]]]
        ] = {}
        self.evaluate()

    # -- stimulus -----------------------------------------------------

    def set_input(self, port: str, value: Logic | int | bool) -> None:
        """Drive one input port (does not propagate until evaluate)."""
        if port not in self._input_values:
            raise KeyError(f"{port!r} is not an input port of {self.module.name}")
        if isinstance(value, bool):
            value = Logic.from_bool(value)
        elif isinstance(value, int) and not isinstance(value, Logic):
            value = Logic(value)
        self._input_values[port] = value

    def set_inputs(self, values: Mapping[str, Logic | int | bool]) -> None:
        """Drive several input ports at once."""
        for port, value in values.items():
            self.set_input(port, value)

    # -- evaluation ---------------------------------------------------

    def _evaluate_instance(self, inst: Instance) -> Logic:
        cell = inst.cell
        inputs = {
            pin: self.net_values[inst.net_of(pin)] for pin in cell.input_pins
        }
        return evaluate_cell(cell, inputs, self.config)

    def _propagate_combinational(self) -> None:
        values = self.net_values
        # Input ports drive their named nets.
        for port, value in self._input_values.items():
            values[port] = value
        # Flop outputs drive their Q nets.
        for flop in self._flops:
            q_net = flop.net_of("Q")
            values[q_net] = self.flop_state[flop.name]
        for inst in self._order:
            out_pin = inst.cell.output_pins[0]
            values[inst.net_of(out_pin)] = self._evaluate_instance(inst)

    def _apply_async_resets(self) -> bool:
        """Force reset flops low; returns True if any state changed."""
        changed = False
        for flop in self._flops:
            reset_pin = flop.cell.reset_pin
            if reset_pin is None:
                continue
            if self.net_values[flop.net_of(reset_pin)] is Logic.ZERO:
                if self.flop_state[flop.name] is not Logic.ZERO:
                    self.flop_state[flop.name] = Logic.ZERO
                    changed = True
        return changed

    def evaluate(self) -> None:
        """Propagate inputs and state through combinational logic.

        Iterates evaluation and asynchronous-reset application until a
        fixpoint (bounded by ``max_settle_rounds``).
        """
        for _ in range(self.config.max_settle_rounds):
            self._propagate_combinational()
            if not self._apply_async_resets():
                return
        raise NetlistError(
            f"simulation of {self.module.name} did not settle within "
            f"{self.config.max_settle_rounds} rounds"
        )

    def _clock_plan(
        self, clock_port: str
    ) -> list[tuple[Instance, tuple[str, ...]]]:
        plan = self._clock_plans.get(clock_port)
        if plan is None:
            plan = []
            for flop in self._flops:
                clock_pin = flop.cell.clock_pin
                if clock_pin is None:
                    continue
                enables = resolve_clock_connection(
                    self.module, flop.net_of(clock_pin), clock_port
                )
                if enables is not None:
                    plan.append((flop, enables))
            self._clock_plans[clock_port] = plan
        return plan

    def clock_edge(self, clock_port: str = CLOCK_PORT) -> None:
        """Apply one rising edge on ``clock_port``: sample D, update Q.

        A flop is clocked iff its clock pin traces back to
        ``clock_port`` (through buffers and clock gates -- see
        :func:`resolve_clock_connection`); other flops are left
        untouched, which supports simple multi-clock designs.  For a
        gated clock the ICG enables decide: all ONE captures, any ZERO
        holds, otherwise whether an edge reached the flop is unknown
        and its state goes X.
        """
        with stage_timer("sim.event.edge") as stats:
            self.evaluate()  # propagate any pending input changes first
            next_state: dict[str, Logic] = {}
            for flop, enable_nets in self._clock_plan(clock_port):
                gate = Logic.ONE
                for net in enable_nets:
                    gate = logic_and(gate, self.net_values[net])
                if gate is Logic.ZERO:
                    continue  # clock gated off: the flop holds
                cell = flop.cell
                if cell.scan_enable_pin is not None:
                    scan_enable = self.net_values[
                        flop.net_of(cell.scan_enable_pin)
                    ]
                else:
                    scan_enable = Logic.ZERO
                if scan_enable is Logic.ONE:
                    data = self.net_values[flop.net_of(cell.scan_in_pin)]
                elif scan_enable is Logic.ZERO:
                    data = self.net_values[flop.net_of(cell.data_pin)]
                else:
                    data = Logic.X
                if gate is not Logic.ONE:
                    data = Logic.X  # gate unknown: edge may have fired
                if cell.reset_pin is not None:
                    reset = self.net_values[flop.net_of(cell.reset_pin)]
                    if reset is Logic.ZERO:
                        data = Logic.ZERO
                    elif not reset.is_known:
                        data = Logic.X
                next_state[flop.name] = data
            self.flop_state.update(next_state)
            self.cycle += 1
            self.evaluate()
            stats.add(cycles=1)

    # -- observation ----------------------------------------------------

    def read(self, net: str) -> Logic:
        """Current value of a net (or port, which shares its net name)."""
        try:
            return self.net_values[net]
        except KeyError:
            raise KeyError(f"no net {net!r} in {self.module.name}") from None

    def read_vector(self, prefix: str, width: int) -> list[Logic]:
        """Read ``prefix0..prefix{width-1}`` as an LSB-first vector."""
        return [self.read(f"{prefix}{i}") for i in range(width)]

    def read_outputs(self) -> dict[str, Logic]:
        """Snapshot of every output port value."""
        return {
            name: self.net_values[name]
            for name, port in self.module.ports.items()
            if port.direction == "output"
        }

    def run(
        self,
        stimulus: Sequence[Mapping[str, Logic | int | bool]],
        *,
        clock_port: str = CLOCK_PORT,
        watch: Iterable[str] | None = None,
    ) -> Trace:
        """Run a clocked stimulus sequence, returning a trace.

        Each element of ``stimulus`` is applied before one rising clock
        edge; watched signals (default: all output ports) are sampled
        after each edge.
        """
        if watch is None:
            watch = sorted(
                name
                for name, port in self.module.ports.items()
                if port.direction == "output"
            )
        trace = Trace(signals=tuple(watch))
        for vector in stimulus:
            self.set_inputs(vector)
            self.evaluate()
            self.clock_edge(clock_port)
            trace.record({s: self.read(s) for s in trace.signals})
        return trace
