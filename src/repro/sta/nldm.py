"""Table-driven multi-corner STA over a characterized NLDM library.

This is the signoff companion of the legacy linear-model
:class:`repro.sta.TimingAnalyzer`: gate delays come from bilinear
interpolation of per-arc (input slew x output load) lookup tables in a
:class:`repro.liberty.CellLibrary`, (arrival, slew) pairs propagate
per net through a levelized arc graph, setup (max/late) and hold
(min/early) are swept simultaneously, and every requested process
corner is evaluated in the same pass.

The sweep is :mod:`repro.sta.vectorized`: one numpy gather + reduce
per level of one compiled :class:`TimingGraph`, with corners as extra
lanes; :func:`build_report` turns its arrays into the QoR report.  Its
test oracle, the per-arc Python walker of :mod:`repro.oracles.sta`,
performs the identical float64 operations in the identical order per
value (shared precomputed loads, shared clamped bilinear formula,
order-insensitive max/min reductions) and builds its report through
the same :func:`build_report`, so the two
:class:`MultiCornerTimingReport` canonical JSONs are byte-identical
for any corner set -- the same determinism contract as
``repro.sim.compiled`` and ``repro.dft.compiled``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..liberty import CellLibrary, default_cell_library
from ..liberty.tables import FloatArray, IntArray, lookup_scalar, table_array
from ..netlist import Module
from ..perf import stage_timer
from .analyzer import TimingConstraints
from .vectorized import sweep_vectorized

# ---------------------------------------------------------------------------
# Compiled timing graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelArcs:
    """All timing arcs of one topological level, grouped by output net.

    Arcs are contiguous per (instance, output pin) stage so the sweep
    and its oracle reduce the same candidate runs: ``group_start`` holds
    reduceat offsets into the arc arrays and ``out_net`` the output
    net of each group.
    """

    src_net: IntArray
    out_net_per_arc: IntArray
    table_id: IntArray
    group_start: IntArray
    out_net: IntArray


@dataclass(frozen=True)
class StageInfo:
    """Backtracking info for the stage driving one net."""

    instance: str
    cell: str
    is_launch: bool
    arcs: tuple[tuple[int, int], ...]  # (src_net_id, table_id)


@dataclass(frozen=True)
class TimingGraph:
    """A module levelized into table-indexed timing arcs.

    Immutable and picklable; cached per
    ``(module.fingerprint(), library.fingerprint())`` like the
    compiled simulation program.  Net loads are *not* part of the
    graph -- they depend on placed wire caps and the corner, and are
    computed per analysis call.
    """

    net_names: tuple[str, ...]
    net_id: dict[str, int]
    slew_grid: FloatArray
    load_grid: FloatArray
    slew_grid_t: tuple[float, ...]
    load_grid_t: tuple[float, ...]
    delay_tables: FloatArray  # [T, S, L]
    tran_tables: FloatArray  # [T, S, L]
    pin_cap_ff: FloatArray  # [N] sum of sink pin caps per net
    fanout_count: IntArray  # [N] max(fanout, 1) for wire estimation
    port_input_nets: IntArray
    flop_q_net: IntArray
    flop_table_id: IntArray
    levels: tuple[LevelArcs, ...]
    stages: dict[int, StageInfo]
    endpoints: tuple[tuple[str, str, int], ...]  # (key, kind, net_id)
    num_arcs: int


_GRAPH_CACHE: dict[tuple[str, str], TimingGraph] = {}
_GRAPH_CACHE_MAX = 16


def compile_timing_graph(module: Module, library: CellLibrary) -> TimingGraph:
    """Levelize one module's timing arcs against a characterized library.

    Cached on ``(module.fingerprint(), library.fingerprint())``.
    """
    key = (module.fingerprint(), library.fingerprint())
    cached = _GRAPH_CACHE.get(key)
    if cached is not None:
        return cached
    with stage_timer("sta.compile") as stats:
        graph = _compile(module, library)
        stats.add(arcs=graph.num_arcs, nets=len(graph.net_names))
    if len(_GRAPH_CACHE) >= _GRAPH_CACHE_MAX:
        _GRAPH_CACHE.pop(next(iter(_GRAPH_CACHE)))
    _GRAPH_CACHE[key] = graph
    return graph


def _compile(module: Module, library: CellLibrary) -> TimingGraph:
    net_names = tuple(sorted(module.nets))
    net_id = {name: i for i, name in enumerate(net_names)}
    n_nets = len(net_names)

    # Table stack: one id per distinct (cell, related, output) arc.
    table_ids: dict[tuple[str, str, str], int] = {}
    delay_stack: list[FloatArray] = []
    tran_stack: list[FloatArray] = []

    def table_id_of(cell_name: str, related: str, output: str) -> int:
        tid = table_ids.get((cell_name, related, output))
        if tid is None:
            cell = library.cell(cell_name)
            for arc in cell.arcs:
                if arc.related_pin == related and arc.output_pin == output:
                    tid = len(delay_stack)
                    table_ids[(cell_name, related, output)] = tid
                    delay_stack.append(table_array(arc.delay_ps))
                    tran_stack.append(table_array(arc.transition_ps))
                    return tid
            raise KeyError(
                f"cell {cell_name} has no arc {related}->{output}")
        return tid

    # Net loads: sum of characterized sink pin caps, in net-load order.
    pin_cap = np.zeros(n_nets, dtype=np.float64)
    fanout_count = np.ones(n_nets, dtype=np.int64)
    for name, net in module.nets.items():
        idx = net_id[name]
        cap = 0.0
        for ref in net.loads:
            inst = module.instances[ref.instance]
            cap += library.cell(inst.cell.name).pin(ref.pin).capacitance_ff
        pin_cap[idx] = cap
        fanout_count[idx] = max(net.fanout, 1)

    port_input_nets = np.asarray(
        sorted(
            net_id[name]
            for name, port in module.ports.items()
            if port.direction == "input"
        ),
        dtype=np.int64,
    )

    stages: dict[int, StageInfo] = {}
    num_arcs = 0

    # Flop launch arcs: one clock-to-output arc per sequential output.
    flop_q: list[int] = []
    flop_tid: list[int] = []
    for flop in sorted(module.sequential_instances, key=lambda i: i.name):
        lib_cell = library.cell(flop.cell.name)
        for out_pin in flop.cell.output_pins:
            if not lib_cell.arcs_to(out_pin):
                continue
            q_idx = net_id[flop.net_of(out_pin)]
            arc = lib_cell.arcs_to(out_pin)[0]
            tid = table_id_of(flop.cell.name, arc.related_pin, out_pin)
            flop_q.append(q_idx)
            flop_tid.append(tid)
            stages[q_idx] = StageInfo(flop.name, flop.cell.name, True, ())
            num_arcs += 1

    # Combinational stages, levelized.  A stage is one (instance,
    # output pin); multi-output cells contribute one stage per output.
    level_of: dict[str, int] = {}
    by_level: dict[int, list[tuple[str, str, int, list[tuple[int, int]]]]] = {}
    for inst in module.topological_combinational_order():
        lvl = 0
        for src in module.fanin_instances(inst):
            if not src.cell.is_sequential:
                lvl = max(lvl, level_of[src.name] + 1)
        level_of[inst.name] = lvl
        lib_cell = library.cell(inst.cell.name)
        for out_pin in inst.cell.output_pins:
            arcs = lib_cell.arcs_to(out_pin)
            if not arcs:
                continue  # tie/spare: output stays a timing source
            out_idx = net_id[inst.net_of(out_pin)]
            arc_list = [
                (net_id[inst.net_of(a.related_pin)],
                 table_id_of(inst.cell.name, a.related_pin, out_pin))
                for a in arcs
            ]
            by_level.setdefault(lvl, []).append(
                (inst.name, out_pin, out_idx, arc_list))
            stages[out_idx] = StageInfo(
                inst.name, inst.cell.name, False, tuple(arc_list))
            num_arcs += len(arc_list)

    levels: list[LevelArcs] = []
    for lvl in sorted(by_level):
        group_start: list[int] = []
        out_nets: list[int] = []
        src: list[int] = []
        out_per_arc: list[int] = []
        tids: list[int] = []
        for inst_name, out_pin, out_idx, arc_list in sorted(by_level[lvl]):
            group_start.append(len(src))
            out_nets.append(out_idx)
            for src_idx, tid in arc_list:
                src.append(src_idx)
                out_per_arc.append(out_idx)
                tids.append(tid)
        levels.append(
            LevelArcs(
                src_net=np.asarray(src, dtype=np.int64),
                out_net_per_arc=np.asarray(out_per_arc, dtype=np.int64),
                table_id=np.asarray(tids, dtype=np.int64),
                group_start=np.asarray(group_start, dtype=np.int64),
                out_net=np.asarray(out_nets, dtype=np.int64),
            )
        )

    endpoints: list[tuple[str, str, int]] = []
    for flop in sorted(module.sequential_instances, key=lambda i: i.name):
        if flop.cell.data_pin is None:
            continue
        endpoints.append(
            ("flop:" + flop.name, "flop",
             net_id[flop.net_of(flop.cell.data_pin)]))
    for name in sorted(module.ports):
        if module.ports[name].direction == "output":
            endpoints.append(("port:" + name, "port", net_id[name]))

    if not delay_stack:  # keep the stacks well-shaped for empty designs
        shape = (0, len(library.slew_index_ps), len(library.load_index_ff))
        delay_tables = np.zeros(shape, dtype=np.float64)
        tran_tables = np.zeros(shape, dtype=np.float64)
    else:
        delay_tables = np.stack(delay_stack)
        tran_tables = np.stack(tran_stack)

    return TimingGraph(
        net_names=net_names,
        net_id=net_id,
        slew_grid=np.asarray(library.slew_index_ps, dtype=np.float64),
        load_grid=np.asarray(library.load_index_ff, dtype=np.float64),
        slew_grid_t=library.slew_index_ps,
        load_grid_t=library.load_index_ff,
        delay_tables=delay_tables,
        tran_tables=tran_tables,
        pin_cap_ff=pin_cap,
        fanout_count=fanout_count,
        port_input_nets=port_input_nets,
        flop_q_net=np.asarray(flop_q, dtype=np.int64),
        flop_table_id=np.asarray(flop_tid, dtype=np.int64),
        levels=tuple(levels),
        stages=stages,
        endpoints=tuple(endpoints),
        num_arcs=num_arcs,
    )


def compute_loads(
    graph: TimingGraph,
    constraints: TimingConstraints,
    net_wire_cap_ff: Mapping[str, float],
    corners: Sequence,
) -> FloatArray:
    """Per-corner net loads ``[C, N]``: pin caps + derated wire caps.

    Shared by the sweep and its oracle so load float64 values are
    identical by construction.
    """
    n_nets = len(graph.net_names)
    wire = np.empty(n_nets, dtype=np.float64)
    if net_wire_cap_ff:
        estimate = constraints.wire_cap_per_fanout_ff * graph.fanout_count
        for i, name in enumerate(graph.net_names):
            placed = net_wire_cap_ff.get(name)
            wire[i] = estimate[i] if placed is None else placed
    else:
        wire[:] = constraints.wire_cap_per_fanout_ff * graph.fanout_count
    derate = np.asarray([c.wire_derate for c in corners], dtype=np.float64)
    return graph.pin_cap_ff[None, :] + wire[None, :] * derate[:, None]


# ---------------------------------------------------------------------------
# Report model
# ---------------------------------------------------------------------------


@dataclass
class NldmPathPoint:
    """One hop on a table-timed path."""

    instance: str
    cell: str
    net: str
    arrival_ps: float
    delay_ps: float
    slew_ps: float

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "cell": self.cell,
            "net": self.net,
            "arrival_ps": self.arrival_ps,
            "delay_ps": self.delay_ps,
            "slew_ps": self.slew_ps,
        }


@dataclass
class CornerTimingReport:
    """QoR of one corner of one analysis."""

    corner: str
    wns_ps: float
    tns_ps: float
    violating_endpoints: int
    total_endpoints: int
    hold_wns_ps: float
    hold_violating_endpoints: int
    worst_endpoint: str | None = None
    critical_path: list[NldmPathPoint] = field(default_factory=list)

    @property
    def setup_clean(self) -> bool:
        return self.wns_ps >= 0.0

    @property
    def hold_clean(self) -> bool:
        return self.hold_wns_ps >= 0.0

    def to_dict(self) -> dict:
        return {
            "corner": self.corner,
            "wns_ps": self.wns_ps,
            "tns_ps": self.tns_ps,
            "violating_endpoints": self.violating_endpoints,
            "total_endpoints": self.total_endpoints,
            "hold_wns_ps": self.hold_wns_ps,
            "hold_violating_endpoints": self.hold_violating_endpoints,
            "worst_endpoint": self.worst_endpoint,
            "critical_path": [p.to_dict() for p in self.critical_path],
        }


@dataclass
class MultiCornerTimingReport:
    """Signoff QoR across all analyzed corners."""

    clock_period_ps: float
    corners: list[CornerTimingReport] = field(default_factory=list)

    def corner(self, name: str) -> CornerTimingReport:
        for report in self.corners:
            if report.corner == name:
                return report
        raise KeyError(f"no corner {name!r} in report")

    @property
    def worst_corner(self) -> CornerTimingReport:
        if not self.corners:
            raise ValueError("empty report")
        return min(self.corners, key=lambda r: r.wns_ps)

    @property
    def setup_clean(self) -> bool:
        return all(r.setup_clean for r in self.corners)

    @property
    def hold_clean(self) -> bool:
        return all(r.hold_clean for r in self.corners)

    @property
    def wns_ps(self) -> float:
        """Worst setup slack across corners."""
        return min(r.wns_ps for r in self.corners)

    @property
    def hold_wns_ps(self) -> float:
        """Worst hold slack across corners."""
        return min(r.hold_wns_ps for r in self.corners)

    def to_dict(self) -> dict:
        return {
            "clock_period_ps": self.clock_period_ps,
            "corners": [r.to_dict() for r in self.corners],
        }

    def canonical_json(self) -> str:
        """Byte-exact QoR serialization."""
        return json.dumps(
            self.to_dict(),
            sort_keys=True,
            separators=(",", ":"),
        )

    def format_report(self) -> str:
        lines = [
            "NLDM STA QoR",
            f"  clock period : {self.clock_period_ps:.0f} ps"
            f" ({1e6 / self.clock_period_ps:.1f} MHz)",
        ]
        for r in self.corners:
            lines.append(
                f"  [{r.corner}] setup WNS {r.wns_ps:9.1f} ps"
                f"  TNS {r.tns_ps:11.1f} ps"
                f"  viol {r.violating_endpoints}/{r.total_endpoints}"
                f"  | hold WNS {r.hold_wns_ps:8.1f} ps"
                f"  viol {r.hold_violating_endpoints}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared report builder + path extraction
# ---------------------------------------------------------------------------


def _extract_path(
    graph: TimingGraph,
    endpoint_net: int,
    arr_s: FloatArray,
    slew_s: FloatArray,
    loads_row: FloatArray,
    delay_derate: float,
) -> list[NldmPathPoint]:
    """Backtrack the worst setup path ending at one net (one corner)."""
    points: list[NldmPathPoint] = []
    current = endpoint_net
    for _ in range(len(graph.stages) + 2):
        stage = graph.stages.get(current)
        if stage is None:
            break
        net_name = graph.net_names[current]
        if stage.is_launch:
            points.append(
                NldmPathPoint(
                    instance=stage.instance,
                    cell=stage.cell,
                    net=net_name,
                    arrival_ps=float(arr_s[current]),
                    delay_ps=float(arr_s[current]),
                    slew_ps=float(slew_s[current]),
                )
            )
            break
        load = float(loads_row[current])
        best_src, best_delay, best_val = -1, 0.0, -float("inf")
        for src_idx, tid in stage.arcs:
            delay = lookup_scalar(
                graph.delay_tables[tid], graph.slew_grid_t,
                graph.load_grid_t, float(slew_s[src_idx]), load,
            ) * delay_derate
            cand = float(arr_s[src_idx]) + delay
            if cand > best_val:
                best_src, best_delay, best_val = src_idx, delay, cand
        points.append(
            NldmPathPoint(
                instance=stage.instance,
                cell=stage.cell,
                net=net_name,
                arrival_ps=float(arr_s[current]),
                delay_ps=best_delay,
                slew_ps=float(slew_s[current]),
            )
        )
        if best_src < 0:
            break
        current = best_src
    points.reverse()
    return points


def build_report(
    graph: TimingGraph,
    constraints: TimingConstraints,
    corner_names: Sequence[str],
    delay_derates: FloatArray,
    loads: FloatArray,
    arr_s: FloatArray,
    slew_s: FloatArray,
    arr_h: FloatArray,
    *,
    with_critical_path: bool = True,
) -> MultiCornerTimingReport:
    """Turn swept (arrival, slew) arrays into the QoR report.

    Shared by the sweep and its oracle: byte-identical input arrays
    therefore yield byte-identical reports.
    """
    c = constraints
    ep_nets = np.asarray([e[2] for e in graph.endpoints], dtype=np.int64)
    is_flop = np.asarray(
        [e[1] == "flop" for e in graph.endpoints], dtype=bool)
    required = np.where(
        is_flop,
        c.clock_period_ps - c.setup_ps - c.clock_uncertainty_ps,
        c.clock_period_ps - c.output_delay_ps,
    )

    report = MultiCornerTimingReport(clock_period_ps=c.clock_period_ps)
    for ci, name in enumerate(corner_names):
        if len(ep_nets) == 0:
            report.corners.append(
                CornerTimingReport(name, 0.0, 0.0, 0, 0, 0.0, 0))
            continue
        arrivals = arr_s[ci, ep_nets]
        slack = required - arrivals
        violating = slack < 0.0
        wns_idx = int(np.argmin(slack))
        wns = float(slack[wns_idx])
        tns = float(slack[violating].sum()) if violating.any() else 0.0

        hold_arr = arr_h[ci, ep_nets]
        hold_checked = is_flop & np.isfinite(hold_arr)
        if hold_checked.any():
            hold_slack = hold_arr[hold_checked] - c.hold_ps
            hold_wns = float(hold_slack.min())
            hold_violating = int((hold_slack < 0.0).sum())
        else:
            hold_wns = 0.0
            hold_violating = 0

        worst_key = graph.endpoints[wns_idx][0]
        path: list[NldmPathPoint] = []
        if with_critical_path:
            path = _extract_path(
                graph, int(ep_nets[wns_idx]), arr_s[ci], slew_s[ci],
                loads[ci], float(delay_derates[ci]),
            )
        report.corners.append(
            CornerTimingReport(
                corner=name,
                wns_ps=wns,
                tns_ps=tns,
                violating_endpoints=int(violating.sum()),
                total_endpoints=len(ep_nets),
                hold_wns_ps=hold_wns,
                hold_violating_endpoints=hold_violating,
                worst_endpoint=worst_key,
                critical_path=path,
            )
        )
    return report


# ---------------------------------------------------------------------------
# Analyzer facade
# ---------------------------------------------------------------------------


class NldmTimingAnalyzer:
    """Multi-corner table-driven STA over one flat module."""

    def __init__(
        self,
        module: Module,
        constraints: TimingConstraints,
        *,
        library: CellLibrary | None = None,
        net_wire_cap_ff: Mapping[str, float] | None = None,
    ) -> None:
        self.module = module
        self.constraints = constraints
        self.library = (
            library if library is not None
            else default_cell_library(module.library)
        )
        self.net_wire_cap_ff = dict(net_wire_cap_ff or {})
        self.graph = compile_timing_graph(module, self.library)

    def _resolve_corners(
        self, corners: Sequence[str] | None
    ) -> tuple[list[str], list]:
        names = list(corners) if corners else list(self.library.corner_names())
        return names, [self.library.corner(n) for n in names]

    def sweep(
        self,
        *,
        corners: Sequence[str] | None = None,
    ) -> tuple[list[str], FloatArray, FloatArray, FloatArray, FloatArray,
               FloatArray, FloatArray]:
        """Run one (arrival, slew) sweep.

        Returns ``(corner_names, delay_derates, loads, arrival_setup,
        slew_setup, arrival_hold, slew_hold)``; array shapes ``[C]``,
        ``[C, N]``.
        """
        names, corner_objs = self._resolve_corners(corners)
        loads = compute_loads(
            self.graph, self.constraints, self.net_wire_cap_ff, corner_objs)
        delay_derates = np.asarray(
            [c.delay_derate for c in corner_objs], dtype=np.float64)
        slew_derates = np.asarray(
            [c.slew_derate for c in corner_objs], dtype=np.float64)

        with stage_timer("sta.sweep") as stats:
            arr_s, slew_s, arr_h, slew_h = sweep_vectorized(
                self.graph, loads, delay_derates, slew_derates,
                self.constraints,
            )
            stats.add(arcs=self.graph.num_arcs * len(names),
                      corners=len(names))
        return names, delay_derates, loads, arr_s, slew_s, arr_h, slew_h

    def analyze(
        self,
        *,
        corners: Sequence[str] | None = None,
        with_critical_path: bool = True,
    ) -> MultiCornerTimingReport:
        """Setup + hold analysis across corners; the QoR report."""
        names, derates, loads, arr_s, slew_s, arr_h, _ = self.sweep(
            corners=corners)
        return build_report(
            self.graph, self.constraints, names, derates, loads,
            arr_s, slew_s, arr_h, with_critical_path=with_critical_path,
        )

    def endpoint_slacks(
        self,
        *,
        corner: str = "tt",
    ) -> dict[str, float]:
        """Setup slack per endpoint key at one corner.

        Keys are ``flop:<instance>`` / ``port:<name>`` like the report's
        ``worst_endpoint``.
        """
        c = self.constraints
        _, _, _, arr_s, _, _, _ = self.sweep(corners=[corner])
        slacks: dict[str, float] = {}
        for key, kind, net_idx in self.graph.endpoints:
            required = (
                c.clock_period_ps - c.setup_ps - c.clock_uncertainty_ps
                if kind == "flop"
                else c.clock_period_ps - c.output_delay_ps
            )
            slacks[key] = required - float(arr_s[0, net_idx])
        return slacks


def analyze_timing(
    module: Module,
    constraints: TimingConstraints,
    *,
    library: CellLibrary | None = None,
    net_wire_cap_ff: Mapping[str, float] | None = None,
    corners: Sequence[str] | None = None,
    with_critical_path: bool = True,
) -> MultiCornerTimingReport:
    """One-call multi-corner NLDM STA (the CLI / flow entry point)."""
    analyzer = NldmTimingAnalyzer(
        module, constraints, library=library, net_wire_cap_ff=net_wire_cap_ff)
    return analyzer.analyze(
        corners=corners, with_critical_path=with_critical_path,
    )
