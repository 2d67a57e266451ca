"""Low-power optimisation: clock gating, multi-Vt swap, isolation.

The Section-4 checklist: "low power solution (multi Vt/VDD cell
library, gated clock, power down isolation)".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netlist import Module
from ..netlist.netlist import Instance
from ..sta import TimingAnalyzer, TimingConstraints
from .power import estimate_power


# ---------------------------------------------------------------------------
# Clock gating
# ---------------------------------------------------------------------------

@dataclass
class ClockGatingReport:
    """Result of ICG insertion."""

    icgs_inserted: int
    flops_gated: int
    flops_total: int
    clock_power_before_mw: float
    clock_power_after_mw: float

    @property
    def gated_fraction(self) -> float:
        if self.flops_total == 0:
            return 0.0
        return self.flops_gated / self.flops_total

    @property
    def clock_power_saving(self) -> float:
        if self.clock_power_before_mw == 0:
            return 0.0
        return 1.0 - self.clock_power_after_mw / self.clock_power_before_mw

    def format_report(self) -> str:
        return "\n".join(
            [
                "Clock gating",
                f"  ICGs inserted : {self.icgs_inserted}",
                f"  flops gated   : {self.flops_gated}/{self.flops_total}"
                f" ({self.gated_fraction * 100:.0f}%)",
                f"  clock power   : {self.clock_power_before_mw:.3f} ->"
                f" {self.clock_power_after_mw:.3f} mW"
                f" ({self.clock_power_saving * 100:.0f}% saving)",
            ]
        )


def insert_clock_gating(
    module: Module,
    *,
    clock_port: str = "clk",
    enable_port: str = "clk_en",
    group_size: int = 8,
    activity: float = 0.15,
    clock_mhz: float = 133.0,
) -> tuple[Module, ClockGatingReport]:
    """Gate the clock of flop banks through shared ICG cells.

    Flops on ``clock_port`` are grouped (``group_size`` per ICG, the
    granularity real tools use) and rewired to gated-clock nets.  The
    enable comes from a new module input ``enable_port`` -- in the
    real design it is each block's bus-activity signal.

    Works on a copy; returns it with the before/after clock-power
    report at the given enable ``activity``.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    before = estimate_power(module, clock_mhz=clock_mhz,
                            activity=activity, clock_port=clock_port)
    gated = module.copy(module.name + "_cg")
    flops = [
        f for f in gated.sequential_instances
        if f.net_of(f.cell.clock_pin) == clock_port
    ]
    if enable_port not in gated.ports:
        gated.add_port(enable_port, "input")
    icgs = 0
    gated_flops = 0
    for start in range(0, len(flops), group_size):
        group = flops[start:start + group_size]
        gck_net = f"__gck{icgs}"
        gated.add_instance(
            f"__icg{icgs}", "ICG",
            {"CK": clock_port, "EN": enable_port, "GCK": gck_net},
        )
        for flop in group:
            gated.rewire_pin(flop.name, flop.cell.clock_pin, gck_net)
            gated_flops += 1
        icgs += 1

    after = estimate_power(gated, clock_mhz=clock_mhz,
                           activity=activity, clock_port=clock_port)
    report = ClockGatingReport(
        icgs_inserted=icgs,
        flops_gated=gated_flops,
        flops_total=len(module.sequential_instances),
        clock_power_before_mw=before.clock_tree_mw,
        clock_power_after_mw=after.clock_tree_mw,
    )
    return gated, report


# ---------------------------------------------------------------------------
# Multi-Vt leakage recovery
# ---------------------------------------------------------------------------

@dataclass
class MultiVtReport:
    """Result of the HVT swap pass."""

    cells_swapped: int
    cells_considered: int
    leakage_before_mw: float
    leakage_after_mw: float
    wns_before_ps: float
    wns_after_ps: float

    @property
    def leakage_saving(self) -> float:
        if self.leakage_before_mw == 0:
            return 0.0
        return 1.0 - self.leakage_after_mw / self.leakage_before_mw

    @property
    def timing_preserved(self) -> bool:
        return self.wns_after_ps >= min(0.0, self.wns_before_ps)

    def format_report(self) -> str:
        return "\n".join(
            [
                "Multi-Vt leakage recovery",
                f"  swapped  : {self.cells_swapped}/{self.cells_considered}"
                f" cells to HVT",
                f"  leakage  : {self.leakage_before_mw * 1e6:.1f} ->"
                f" {self.leakage_after_mw * 1e6:.1f} nW"
                f" ({self.leakage_saving * 100:.0f}% saving)",
                f"  WNS      : {self.wns_before_ps:.1f} ->"
                f" {self.wns_after_ps:.1f} ps",
            ]
        )


def multi_vt_leakage_recovery(
    module: Module,
    constraints: TimingConstraints,
    *,
    slack_margin_ps: float = 50.0,
) -> tuple[Module, MultiVtReport]:
    """Swap off-critical cells to HVT without breaking timing.

    Standard post-route leakage recovery: walk cells in descending
    slack order, swap each to its HVT twin, keep the swap only if WNS
    stays above the margin.  Operates on a copy.

    One :class:`TimingAnalyzer` serves the whole pass: each trial swap
    goes through :meth:`TimingAnalyzer.swap_cell`, which re-times only
    the swapped cell's cone and returns the setup WNS a full analysis
    would, and a rejected swap is swapped back the same way.
    """
    revised = module.copy(module.name + "_mvt")
    analyzer = TimingAnalyzer(revised, constraints)
    baseline = analyzer.analyze(with_critical_path=False)
    leak_before = sum(
        i.cell.leakage_nw for i in revised.instances.values()
    ) * 1e-6  # mW

    arrivals = analyzer.setup_arrivals
    # Cheap criticality proxy: a cell whose output arrival is early is
    # off-critical.
    def criticality(inst: Instance) -> float:
        out_net = inst.net_of(inst.cell.output_pins[0])
        return arrivals.get(out_net, 0.0)

    candidates = sorted(
        (i for i in revised.instances.values()
         if not i.cell.is_sequential and not i.cell.is_pad
         and i.cell.vt_class == "svt"),
        key=criticality,
    )
    swapped = 0
    # Floor for accepted swaps: keep at least `slack_margin_ps` of
    # positive slack (or never degrade an already-failing design).
    if baseline.wns_ps >= 0:
        target_wns = min(baseline.wns_ps, slack_margin_ps)
    else:
        target_wns = baseline.wns_ps
    wns = baseline.wns_ps
    for inst in candidates:
        hvt = revised.library.vt_variant(inst.cell, "hvt")
        if hvt is None:
            continue
        original = inst.cell.name
        trial_wns = analyzer.swap_cell(inst.name, hvt.name)
        if trial_wns >= target_wns:
            swapped += 1
            wns = trial_wns
        else:
            analyzer.swap_cell(inst.name, original)

    leak_after = sum(
        i.cell.leakage_nw for i in revised.instances.values()
    ) * 1e-6
    report = MultiVtReport(
        cells_swapped=swapped,
        cells_considered=len(candidates),
        leakage_before_mw=leak_before,
        leakage_after_mw=leak_after,
        wns_before_ps=baseline.wns_ps,
        wns_after_ps=wns,
    )
    return revised, report


# ---------------------------------------------------------------------------
# Power-domain isolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerDomain:
    """A switchable power domain and the blocks inside it."""

    name: str
    blocks: tuple[str, ...]
    switchable: bool = True


@dataclass
class IsolationReport:
    """Isolation-cell audit for a domain crossing."""

    crossings: list[tuple[str, str]] = field(default_factory=list)
    isolation_cells_required: int = 0

    def format_report(self) -> str:
        return (
            f"Power-down isolation: {len(self.crossings)} domain "
            f"crossings, {self.isolation_cells_required} isolation cells"
        )


def audit_isolation(
    domains: list[PowerDomain],
    signals_between: dict[tuple[str, str], int],
) -> IsolationReport:
    """Count isolation cells needed at switchable-domain boundaries.

    ``signals_between`` maps (source domain, sink domain) to signal
    count.  Every signal leaving a switchable domain into a live one
    needs an isolation cell so the sink never sees a floating input
    when the source powers down.
    """
    by_name = {d.name: d for d in domains}
    report = IsolationReport()
    for (source, sink), count in sorted(signals_between.items()):
        if source not in by_name or sink not in by_name:
            raise KeyError(f"unknown domain in crossing {source}->{sink}")
        if by_name[source].switchable and source != sink:
            report.crossings.append((source, sink))
            report.isolation_cells_required += count
    return report
