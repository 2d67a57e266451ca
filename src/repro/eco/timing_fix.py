"""Timing-fix ECOs: setup fixing by resizing/Vt-swapping, hold fixing
by delay insertion.

Reproduces the paper's "3 ECO changes to fix setup/hold time
violation": the engine runs multi-corner NLDM STA
(:class:`repro.sta.NldmTimingAnalyzer`, on its vectorized sweep), walks
the worst violating paths, and applies the standard fix repertoire --

* **setup**: upsize or LVT-swap cells on the critical path.  Every
  candidate move is *priced from the characterized library* (worst-arc
  table delay at the path point's slew/load, derated to the worst
  corner); the best-priced move is applied and kept only if signoff
  STA confirms the WNS improved -- the accept-if-better loop a
  physical-synthesis sizer runs, now with real NLDM costs;
* **hold**: insert delay buffers in front of flop D pins whose early
  arrival violates at any corner.

Each pass is a single ECO in the paper's counting; the report records
how many passes a block needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..liberty import CellLibrary, default_cell_library
from ..liberty.tables import lookup_scalar, table_array
from ..netlist import Module
from ..netlist.netlist import Instance
from ..sta import (
    MultiCornerTimingReport,
    NldmTimingAnalyzer,
    TimingConstraints,
)


@dataclass
class TimingFixReport:
    """Outcome of a timing-closure ECO campaign.

    ``touched_instances`` is the sorted set of instances the campaign
    actually modified (resized/swapped cells, rewired flops, inserted
    buffers) -- exactly the seed set an incremental re-analysis
    through :mod:`repro.store` needs, since only cones reaching a
    touched instance can change.
    """

    setup_passes: int = 0
    hold_passes: int = 0
    cells_resized: int = 0
    vt_swaps: int = 0
    buffers_inserted: int = 0
    wns_before_ps: float = 0.0
    wns_after_ps: float = 0.0
    hold_wns_before_ps: float = 0.0
    hold_wns_after_ps: float = 0.0
    closed: bool = False
    touched_instances: tuple[str, ...] = ()

    def format_report(self) -> str:
        return "\n".join(
            [
                "Timing ECO",
                f"  setup passes : {self.setup_passes}"
                f" ({self.cells_resized} cells resized,"
                f" {self.vt_swaps} Vt swaps)",
                f"  hold passes  : {self.hold_passes}"
                f" ({self.buffers_inserted} buffers)",
                f"  setup WNS    : {self.wns_before_ps:.1f} ->"
                f" {self.wns_after_ps:.1f} ps",
                f"  hold WNS     : {self.hold_wns_before_ps:.1f} ->"
                f" {self.hold_wns_after_ps:.1f} ps",
                f"  closed       : {self.closed}"
                f" ({len(self.touched_instances)} instances touched)",
            ]
        )


def _worst_arc_delay_ps(
    library: CellLibrary, cell_name: str, slew_ps: float, load_ff: float
) -> float:
    """Worst table delay over a cell's arcs at one (slew, load) point."""
    cell = library.cell(cell_name)
    worst = 0.0
    for arc in cell.arcs:
        delay = lookup_scalar(
            table_array(arc.delay_ps),
            library.slew_index_ps, library.load_index_ff,
            slew_ps, load_ff,
        )
        worst = max(worst, delay)
    return worst


def _net_load_ff(
    module: Module,
    library: CellLibrary,
    net_name: str,
    constraints: TimingConstraints,
    wire_derate: float,
) -> float:
    """Estimated load on a net: characterized pin caps + derated wire."""
    net = module.nets[net_name]
    cap = 0.0
    for ref in net.loads:
        inst = module.instances[ref.instance]
        cap += library.cell(inst.cell.name).pin(ref.pin).capacitance_ff
    wire = constraints.wire_cap_per_fanout_ff * max(net.fanout, 1)
    return cap + wire * wire_derate


def _candidate_moves(inst: Instance, module: Module, library: CellLibrary
                     ) -> list[str]:
    """Legal replacement cells: next drive strength up, and LVT swap."""
    moves: list[str] = []
    variants = module.library.drive_variants(
        inst.cell.footprint, vt_class=inst.cell.vt_class)
    names = [v.name for v in variants]
    if inst.cell.name in names:
        index = names.index(inst.cell.name)
        if index + 1 < len(names):
            moves.append(names[index + 1])
    if inst.cell.vt_class != "lvt":
        lvt = module.library.vt_variant(inst.cell, "lvt")
        if lvt is not None and lvt.name in library:
            moves.append(lvt.name)
    return [m for m in moves if m in library]


def _upsize_critical_path(
    module: Module,
    constraints: TimingConstraints,
    library: CellLibrary,
    *,
    corners: Sequence[str] | None,
) -> tuple[int, int, set[str]]:
    """Resize / Vt-swap cells on the current worst-corner critical path.

    Candidate moves are priced from the library tables first (delay
    gain at the path point's slew and the net's current load, derated
    to the analysis corner), then confirmed through signoff STA and
    reverted if the WNS did not improve -- cheap pricing, honest
    acceptance.

    Returns ``(cells_resized, vt_swaps, touched)``;
    (0, 0, ...) = nothing left.
    """
    touched: set[str] = set()
    analyzer = NldmTimingAnalyzer(module, constraints, library=library)
    report = analyzer.analyze(corners=corners)
    worst = report.worst_corner
    if worst.wns_ps >= 0 or not worst.critical_path:
        return 0, 0, touched
    delay_derate = library.corner(worst.corner).delay_derate
    wire_derate = library.corner(worst.corner).wire_derate

    best_wns = report.wns_ps
    resized = 0
    swapped = 0
    for point in worst.critical_path:
        inst = module.instances.get(point.instance)
        if inst is None or inst.cell.is_sequential:
            continue
        moves = _candidate_moves(inst, module, library)
        if not moves:
            continue
        load = _net_load_ff(module, library, point.net, constraints,
                            wire_derate)
        current_delay = _worst_arc_delay_ps(
            library, inst.cell.name, point.slew_ps, load)
        priced = sorted(
            (
                ((current_delay - _worst_arc_delay_ps(
                    library, move, point.slew_ps, load)) * delay_derate,
                 move)
                for move in moves
            ),
            reverse=True,
        )
        gain_ps, move = priced[0]
        if gain_ps <= 0.0:
            continue  # no move the library prices as a win
        original = inst.cell.name
        module.swap_cell(inst.name, move)
        new_wns = NldmTimingAnalyzer(
            module, constraints, library=library,
        ).analyze(
            corners=corners, with_critical_path=False,
        ).wns_ps
        if new_wns > best_wns:
            best_wns = new_wns
            touched.add(inst.name)
            if library.cell(move).vt_class != library.cell(original).vt_class:
                swapped += 1
            else:
                resized += 1
        else:
            module.swap_cell(inst.name, original)
    return resized, swapped, touched


def fix_setup(
    module: Module,
    constraints: TimingConstraints,
    *,
    max_passes: int = 10,
    library: CellLibrary | None = None,
    corners: Sequence[str] | None = None,
) -> tuple[Module, TimingFixReport]:
    """Iteratively resize/Vt-swap along critical paths until setup is
    clean at every analyzed corner.

    Operates on a copy; the returned report counts passes (each pass
    is one 'timing ECO').  The module is analyzed once up front and
    once after each pass that moved a cell; the newest analysis gates
    the next pass and is the final one, so a block that meets setup
    is analyzed once.
    """
    lib = library if library is not None else default_cell_library(
        module.library)
    revised = module.copy()
    report = TimingFixReport()

    def analyze() -> MultiCornerTimingReport:
        return NldmTimingAnalyzer(
            revised, constraints, library=lib).analyze(
            corners=corners, with_critical_path=False)

    sta = analyze()
    report.wns_before_ps = sta.wns_ps
    report.hold_wns_before_ps = sta.hold_wns_ps

    touched: set[str] = set()
    for _ in range(max_passes):
        if sta.setup_clean:
            break
        resized, swapped, pass_touched = _upsize_critical_path(
            revised, constraints, lib, corners=corners)
        if resized + swapped == 0:
            break  # out of sizing headroom
        report.setup_passes += 1
        report.cells_resized += resized
        report.vt_swaps += swapped
        touched |= pass_touched
        sta = analyze()

    report.wns_after_ps = sta.wns_ps
    report.hold_wns_after_ps = sta.hold_wns_ps
    report.closed = sta.setup_clean
    report.touched_instances = tuple(sorted(touched))
    return revised, report


def fix_hold(
    module: Module,
    constraints: TimingConstraints,
    *,
    max_passes: int = 10,
    library: CellLibrary | None = None,
    corners: Sequence[str] | None = None,
) -> tuple[Module, TimingFixReport]:
    """Insert delay buffers on flop D inputs that violate hold at any
    analyzed corner (the fast corner is the usual offender)."""
    lib = library if library is not None else default_cell_library(
        module.library)
    revised = module.copy()
    report = TimingFixReport()
    baseline = NldmTimingAnalyzer(
        revised, constraints, library=lib).analyze(
        corners=corners, with_critical_path=False)
    report.wns_before_ps = baseline.wns_ps
    report.hold_wns_before_ps = baseline.hold_wns_ps

    touched: set[str] = set()
    buffer_id = 0
    for _ in range(max_passes):
        analyzer = NldmTimingAnalyzer(revised, constraints, library=lib)
        _, _, _, _, _, arr_h, _ = analyzer.sweep(corners=corners)
        offenders = []
        for key, kind, net_idx in analyzer.graph.endpoints:
            if kind != "flop":
                continue
            early = float(arr_h[:, net_idx].min())
            if early < constraints.hold_ps:
                offenders.append(key.removeprefix("flop:"))
        if not offenders:
            break
        report.hold_passes += 1
        for flop_name in offenders:
            flop = revised.instances[flop_name]
            assert flop.cell.data_pin is not None
            d_net = flop.net_of(flop.cell.data_pin)
            new_net = f"__hold{buffer_id}"
            revised.add_instance(
                f"__holdbuf{buffer_id}", "BUF_X1",
                {"A": d_net, "Y": new_net},
            )
            revised.rewire_pin(flop.name, flop.cell.data_pin, new_net)
            touched.add(flop.name)
            touched.add(f"__holdbuf{buffer_id}")
            report.buffers_inserted += 1
            buffer_id += 1

    final = NldmTimingAnalyzer(
        revised, constraints, library=lib).analyze(
        corners=corners, with_critical_path=False)
    report.wns_after_ps = final.wns_ps
    report.hold_wns_after_ps = final.hold_wns_ps
    report.closed = final.hold_clean
    report.touched_instances = tuple(sorted(touched))
    return revised, report


def close_timing(
    module: Module,
    constraints: TimingConstraints,
    *,
    max_passes: int = 10,
    library: CellLibrary | None = None,
    corners: Sequence[str] | None = None,
) -> tuple[Module, TimingFixReport]:
    """Full closure: setup passes, then hold passes."""
    revised, setup_report = fix_setup(
        module, constraints, max_passes=max_passes, library=library,
        corners=corners)
    revised, hold_report = fix_hold(
        revised, constraints, max_passes=max_passes, library=library,
        corners=corners)
    combined = TimingFixReport(
        setup_passes=setup_report.setup_passes,
        hold_passes=hold_report.hold_passes,
        cells_resized=setup_report.cells_resized,
        vt_swaps=setup_report.vt_swaps,
        buffers_inserted=hold_report.buffers_inserted,
        wns_before_ps=setup_report.wns_before_ps,
        wns_after_ps=hold_report.wns_after_ps,
        hold_wns_before_ps=setup_report.hold_wns_before_ps,
        hold_wns_after_ps=hold_report.hold_wns_after_ps,
        closed=hold_report.wns_after_ps >= 0
        and hold_report.hold_wns_after_ps >= 0,
        touched_instances=tuple(sorted(
            set(setup_report.touched_instances)
            | set(hold_report.touched_instances)
        )),
    )
    return revised, combined
