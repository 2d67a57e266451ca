"""Static timing analysis.

Implements the classic block-based STA the paper's sign-off flow uses
("timing-driven placement and routing, physical synthesis, formal
verification and STA QoR check"):

* a linear delay model -- gate delay = intrinsic + Rdrive * Cload,
  with load from pin capacitances plus (estimated or placed) wire
  capacitance;
* forward max/min arrival propagation from launch points (input ports
  and flop clock-to-Q);
* required times from capture points (flop setup/hold and output
  ports);
* worst negative slack (WNS), total negative slack (TNS), per-endpoint
  slack, and critical-path extraction for ECO fixing;
* incremental re-timing of one cell swap (:meth:`TimingAnalyzer.swap_cell`)
  for swap-and-check loops such as multi-Vt leakage recovery.

All times are picoseconds; capacitances femtofarads; resistance
kiloohms (1 kOhm * 1 fF = 1 ps).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping

from ..netlist import Module
from ..netlist.netlist import Instance


@dataclass(frozen=True)
class TimingConstraints:
    """Clock and boundary constraints for one analysis run."""

    clock_period_ps: float
    clock_port: str = "clk"
    setup_ps: float = 120.0
    hold_ps: float = 40.0
    input_delay_ps: float = 0.0
    output_delay_ps: float = 0.0
    clock_uncertainty_ps: float = 50.0
    #: Estimated extra wire capacitance per fanout pin when no placed
    #: wire capacitances are supplied.
    wire_cap_per_fanout_ff: float = 3.0
    #: Transition time assumed at input ports (NLDM table lookups).
    input_slew_ps: float = 40.0
    #: Clock edge transition at flop clock pins (NLDM table lookups).
    clock_slew_ps: float = 30.0

    def __post_init__(self) -> None:
        if self.clock_period_ps <= 0:
            raise ValueError("clock period must be positive")


@dataclass
class PathPoint:
    """One hop on a timing path."""

    instance: str
    cell: str
    net: str
    arrival_ps: float
    delay_ps: float


@dataclass
class PathReport:
    """A complete endpoint timing path."""

    endpoint: str
    endpoint_kind: str  # "flop" | "port"
    slack_ps: float
    arrival_ps: float
    required_ps: float
    points: list[PathPoint] = field(default_factory=list)

    def format_report(self) -> str:
        lines = [
            f"Path to {self.endpoint} ({self.endpoint_kind})",
            f"  arrival {self.arrival_ps:8.1f} ps   required "
            f"{self.required_ps:8.1f} ps   slack {self.slack_ps:8.1f} ps",
        ]
        for point in self.points:
            lines.append(
                f"    {point.instance:24s} {point.cell:12s} -> {point.net:20s}"
                f" +{point.delay_ps:7.1f} @ {point.arrival_ps:8.1f}"
            )
        return "\n".join(lines)


@dataclass
class TimingReport:
    """QoR summary of one STA run."""

    clock_period_ps: float
    wns_ps: float
    tns_ps: float
    violating_endpoints: int
    total_endpoints: int
    hold_wns_ps: float
    hold_violating_endpoints: int
    critical_path: PathReport | None = None

    @property
    def setup_clean(self) -> bool:
        return self.wns_ps >= 0.0

    @property
    def hold_clean(self) -> bool:
        return self.hold_wns_ps >= 0.0

    @property
    def max_frequency_mhz(self) -> float:
        """Highest clock frequency this logic supports."""
        limiting = self.clock_period_ps - self.wns_ps
        if limiting <= 0:
            return float("inf")
        return 1e6 / limiting

    def format_report(self) -> str:
        lines = [
            "STA QoR",
            f"  clock period : {self.clock_period_ps:.0f} ps"
            f" ({1e6 / self.clock_period_ps:.1f} MHz)",
            f"  setup WNS    : {self.wns_ps:8.1f} ps"
            f"   TNS {self.tns_ps:10.1f} ps"
            f"   violations {self.violating_endpoints}/{self.total_endpoints}",
            f"  hold  WNS    : {self.hold_wns_ps:8.1f} ps"
            f"   violations {self.hold_violating_endpoints}",
            f"  max frequency: {self.max_frequency_mhz:.1f} MHz",
        ]
        return "\n".join(lines)


class TimingAnalyzer:
    """Block-based STA over one flat module."""

    def __init__(
        self,
        module: Module,
        constraints: TimingConstraints,
        *,
        net_wire_cap_ff: Mapping[str, float] | None = None,
    ) -> None:
        self.module = module
        self.constraints = constraints
        self.net_wire_cap_ff = dict(net_wire_cap_ff or {})
        self._order = module.topological_combinational_order()
        # Built on first use by `setup_arrivals` / `swap_cell`.
        self._setup_arrivals: dict[str, float] | None = None
        self._position: dict[str, int] = {}
        self._setup_checks: list[tuple[str, float]] = []

    # -- delay model ----------------------------------------------------

    def load_cap_ff(self, net_name: str) -> float:
        """Capacitive load on a net: pin caps plus wire cap."""
        net = self.module.nets[net_name]
        cap = 0.0
        for ref in net.loads:
            inst = self.module.instances[ref.instance]
            cap += inst.cell.pin(ref.pin).capacitance_ff
        wire = self.net_wire_cap_ff.get(net_name)
        if wire is None:
            wire = self.constraints.wire_cap_per_fanout_ff * max(net.fanout, 1)
        return cap + wire

    def stage_delay_ps(self, inst: Instance, output_pin: str | None = None
                       ) -> float:
        """Delay through one cell driving one of its output nets.

        ``output_pin`` defaults to the first output -- the only output
        for every cell in the default library -- but multi-output
        cells (e.g. a full adder's sum/carry) time each output against
        its own load.
        """
        if output_pin is None:
            output_pin = inst.cell.output_pins[0]
        out_net = inst.net_of(output_pin)
        return (
            inst.cell.intrinsic_delay_ps
            + inst.cell.drive_resistance_kohm * self.load_cap_ff(out_net)
        )

    # -- arrival propagation ----------------------------------------------

    def _launch_arrivals(self, *, hold_mode: bool = False) -> dict[str, float]:
        arrivals: dict[str, float] = {}
        for name, port in self.module.ports.items():
            if port.direction == "input":
                # Unconstrained inputs are excluded from hold checks
                # (standard sign-off practice: IO hold is checked only
                # against explicit input delays).
                arrivals[name] = (
                    float("inf") if hold_mode else self.constraints.input_delay_ps
                )
        for flop in self.module.sequential_instances:
            for out_pin in flop.cell.output_pins:
                q_net = flop.net_of(out_pin)
                arrivals[q_net] = self.stage_delay_ps(flop, out_pin)
        return arrivals

    def compute_arrivals(
        self, *, worst: bool = True, hold_mode: bool = False
    ) -> dict[str, float]:
        """Max (setup) or min (hold) arrival time per net."""
        pick = max if worst else min
        arrivals = self._launch_arrivals(hold_mode=hold_mode)
        for inst in self._order:
            input_arrivals = [
                arrivals.get(inst.net_of(pin), 0.0)
                for pin in inst.cell.input_pins
            ]
            base = pick(input_arrivals) if input_arrivals else 0.0
            # Every output pin propagates -- a multi-output cell (e.g.
            # a full adder) times each output against its own load.
            for out_pin in inst.cell.output_pins:
                out_net = inst.net_of(out_pin)
                arrivals[out_net] = base + self.stage_delay_ps(inst, out_pin)
        return arrivals

    def _endpoints(self) -> list[tuple[str, str, str]]:
        """(key, kind, observed net) for every timing endpoint."""
        points: list[tuple[str, str, str]] = []
        for flop in self.module.sequential_instances:
            points.append((flop.name, "flop", flop.net_of(flop.cell.data_pin)))
        for name, port in self.module.ports.items():
            if port.direction == "output":
                points.append((name, "port", name))
        return points

    def _setup_required_ps(self, kind: str) -> float:
        """Setup required time at a ``"flop"`` or ``"port"`` endpoint."""
        c = self.constraints
        if kind == "flop":
            return c.clock_period_ps - c.setup_ps - c.clock_uncertainty_ps
        return c.clock_period_ps - c.output_delay_ps

    # -- analysis ---------------------------------------------------------

    def analyze(self, *, with_critical_path: bool = True) -> TimingReport:
        """Run setup and hold analysis, returning the QoR report."""
        c = self.constraints
        arrivals = self.compute_arrivals(worst=True)
        min_arrivals = self.compute_arrivals(worst=False, hold_mode=True)

        wns = float("inf")
        tns = 0.0
        violating = 0
        hold_wns = float("inf")
        hold_violating = 0
        worst_endpoint: tuple[str, str, str] | None = None
        endpoints = self._endpoints()
        for key, kind, net in endpoints:
            arrival = arrivals.get(net, 0.0)
            slack = self._setup_required_ps(kind) - arrival
            if slack < wns:
                wns = slack
                worst_endpoint = (key, kind, net)
            if slack < 0:
                tns += slack
                violating += 1
            if kind == "flop":
                min_arrival = min_arrivals.get(net, float("inf"))
                if min_arrival == float("inf"):
                    continue  # only port-launched paths: not a hold check
                hold_slack = min_arrival - c.hold_ps
                hold_wns = min(hold_wns, hold_slack)
                if hold_slack < 0:
                    hold_violating += 1
        if not endpoints:
            wns = hold_wns = 0.0

        critical = None
        if with_critical_path and worst_endpoint is not None:
            key, kind, net = worst_endpoint
            critical = self.extract_path(
                net, kind=kind, endpoint=key, arrivals=arrivals,
                required=self._setup_required_ps(kind),
            )

        return TimingReport(
            clock_period_ps=c.clock_period_ps,
            wns_ps=wns,
            tns_ps=tns,
            violating_endpoints=violating,
            total_endpoints=len(endpoints),
            hold_wns_ps=hold_wns if hold_wns != float("inf") else 0.0,
            hold_violating_endpoints=hold_violating,
            critical_path=critical,
        )

    def extract_path(
        self,
        net: str,
        *,
        kind: str,
        endpoint: str,
        arrivals: Mapping[str, float] | None = None,
        required: float | None = None,
    ) -> PathReport:
        """Trace the worst path ending at ``net``."""
        if arrivals is None:
            arrivals = self.compute_arrivals(worst=True)
        if required is None:
            required = self._setup_required_ps(kind)
        points: list[PathPoint] = []
        current = net
        for _ in range(len(self.module.instances) + 2):
            driver = self.module.nets[current].driver
            if driver is None:
                break
            inst = self.module.instances[driver.instance]
            points.append(
                PathPoint(
                    instance=inst.name,
                    cell=inst.cell.name,
                    net=current,
                    arrival_ps=arrivals.get(current, 0.0),
                    delay_ps=self.stage_delay_ps(inst, driver.pin),
                )
            )
            if inst.cell.is_sequential:
                break
            # Step to the input with the latest arrival.
            best_net, best_arrival = None, -1.0
            for pin in inst.cell.input_pins:
                pin_net = inst.net_of(pin)
                if arrivals.get(pin_net, 0.0) >= best_arrival:
                    best_net = pin_net
                    best_arrival = arrivals.get(pin_net, 0.0)
            if best_net is None:
                break
            current = best_net
        points.reverse()
        arrival = arrivals.get(net, 0.0)
        return PathReport(
            endpoint=endpoint,
            endpoint_kind=kind,
            slack_ps=required - arrival,
            arrival_ps=arrival,
            required_ps=required,
            points=points,
        )

    def endpoint_slacks(self) -> dict[str, float]:
        """Setup slack for every endpoint (flop name or output port)."""
        arrivals = self.compute_arrivals(worst=True)
        slacks: dict[str, float] = {}
        for key, kind, net in self._endpoints():
            slacks[key] = (
                self._setup_required_ps(kind) - arrivals.get(net, 0.0)
            )
        return slacks

    # -- incremental re-timing --------------------------------------------

    @property
    def setup_arrivals(self) -> dict[str, float]:
        """Max (setup) arrival per net, kept current by :meth:`swap_cell`.

        The first read runs :meth:`compute_arrivals`; after that only
        :meth:`swap_cell` changes it.  Callers must not modify it.
        """
        if self._setup_arrivals is None:
            self._setup_arrivals = self.compute_arrivals(worst=True)
            self._position = {
                inst.name: pos for pos, inst in enumerate(self._order)
            }
            self._setup_checks = [
                (net, self._setup_required_ps(kind))
                for _, kind, net in self._endpoints()
            ]
        return self._setup_arrivals

    def swap_cell(self, instance: str, cell_name: str) -> float:
        """Swap ``instance`` to ``cell_name`` and return the setup WNS.

        The swap goes through :meth:`Module.swap_cell`, so the new cell
        must be pin-compatible; it must also keep the instance
        sequential or combinational, which keeps the cached
        topological order valid.  Only what the swap can change is
        re-timed: the instance itself, the drivers of its input nets
        (their load follows the new pin capacitances; a flop driver's
        launch arrival too), and then, forward in topological order,
        every instance that reads a net whose arrival moved.  A net
        whose arrival did not move stops the walk.  Each arrival is
        computed with the expression of :meth:`compute_arrivals`, so
        :attr:`setup_arrivals` and the returned WNS equal those of a
        fresh :meth:`analyze` bit for bit.

        Once the arrivals exist (the first call, or the first read of
        :attr:`setup_arrivals`), every edit to the module must go
        through this method; after any other edit, build a new
        analyzer.
        """
        arrivals = self.setup_arrivals
        module = self.module
        inst = module.instances[instance]
        if module.library[cell_name].is_sequential != inst.cell.is_sequential:
            raise ValueError(
                f"swapping {instance} to {cell_name} changes whether it "
                "is sequential"
            )
        module.swap_cell(instance, cell_name)

        position = self._position
        heap: list[int] = []
        queued: set[int] = set()

        def queue(pos: int) -> None:
            if pos not in queued:
                queued.add(pos)
                heapq.heappush(heap, pos)

        def settle(net: str, arrival: float) -> None:
            if arrival != arrivals[net]:
                arrivals[net] = arrival
                for ref in module.nets[net].loads:
                    if ref.instance in position:  # flops end the path
                        queue(position[ref.instance])

        def retime(target: Instance) -> None:
            if target.name in position:
                queue(position[target.name])
            else:  # a flop: its launch arrivals
                for out_pin in target.cell.output_pins:
                    settle(target.net_of(out_pin),
                           self.stage_delay_ps(target, out_pin))

        retime(inst)
        for pin in inst.cell.input_pins:
            driver = module.nets[inst.net_of(pin)].driver
            if driver is not None:
                retime(module.instances[driver.instance])
        while heap:
            gate = self._order[heapq.heappop(heap)]
            input_arrivals = [
                arrivals.get(gate.net_of(pin), 0.0)
                for pin in gate.cell.input_pins
            ]
            base = max(input_arrivals) if input_arrivals else 0.0
            for out_pin in gate.cell.output_pins:
                settle(gate.net_of(out_pin),
                       base + self.stage_delay_ps(gate, out_pin))
        return min(
            (required - arrivals.get(net, 0.0)
             for net, required in self._setup_checks),
            default=0.0,
        )
