"""Tests for the low-power flow and DFM transforms."""

import pytest

from repro.netlist import counter, make_default_library, pipeline_block
from repro.physical import AnnealingPlacer
from repro.sta import TimingAnalyzer, TimingConstraints
from repro.lowpower import (
    PowerDomain,
    audit_isolation,
    estimate_power,
    insert_clock_gating,
    multi_vt_leakage_recovery,
)
from repro.dfm import (
    double_via_insertion,
    dummy_metal_fill,
    ocv_derated_sta,
    via_yield_model,
)
from repro.lowpower.optimize import MultiVtReport
from tests.test_sta_incremental import LIB as HEAVY_PIN_LIB


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


@pytest.fixture(scope="module")
def block(lib):
    return pipeline_block("blk", lib, stages=2, width=10,
                          cloud_gates=50, seed=6)


class TestPowerEstimation:
    def test_breakdown_positive(self, block):
        report = estimate_power(block, clock_mhz=133.0, activity=0.2)
        assert report.combinational_dynamic_mw > 0
        assert report.clock_tree_mw > 0
        assert report.leakage_mw > 0
        assert report.total_mw == pytest.approx(
            report.combinational_dynamic_mw + report.clock_tree_mw
            + report.leakage_mw
        )

    def test_power_scales_with_frequency(self, block):
        slow = estimate_power(block, clock_mhz=50.0)
        fast = estimate_power(block, clock_mhz=200.0)
        assert fast.total_mw > slow.total_mw

    def test_power_scales_with_activity(self, block):
        idle = estimate_power(block, activity=0.05)
        busy = estimate_power(block, activity=0.8)
        assert busy.combinational_dynamic_mw > idle.combinational_dynamic_mw
        # Ungated clock tree does not depend on data activity.
        assert busy.clock_tree_mw == pytest.approx(idle.clock_tree_mw)

    def test_bad_activity_rejected(self, block):
        with pytest.raises(ValueError):
            estimate_power(block, activity=0.0)

    def test_report_format(self, block):
        assert "clock tree" in estimate_power(block).format_report()


class TestClockGating:
    def test_gating_saves_clock_power(self, block):
        gated, report = insert_clock_gating(block, activity=0.1)
        assert report.icgs_inserted > 0
        assert report.flops_gated == report.flops_total
        assert report.clock_power_after_mw < report.clock_power_before_mw
        assert report.clock_power_saving > 0.4

    def test_low_activity_saves_more(self, block):
        _, idle = insert_clock_gating(block, activity=0.05)
        _, busy = insert_clock_gating(block, activity=0.9)
        assert idle.clock_power_saving > busy.clock_power_saving

    def test_original_untouched(self, block):
        flops_before = len(block.sequential_instances)
        insert_clock_gating(block)
        assert not any(
            i.cell.is_clock_gate for i in block.instances.values()
        )
        assert len(block.sequential_instances) == flops_before

    def test_icg_structure(self, lib):
        cnt = counter("cnt", lib, width=8)
        gated, report = insert_clock_gating(cnt, group_size=4)
        icgs = [i for i in gated.instances.values()
                if i.cell.is_clock_gate]
        assert len(icgs) == 2  # 8 flops / 4 per group
        assert "clk_en" in gated.ports
        for flop in gated.sequential_instances:
            assert flop.net_of(flop.cell.clock_pin).startswith("__gck")

    def test_bad_group_size(self, lib):
        cnt = counter("cnt", lib, width=4)
        with pytest.raises(ValueError):
            insert_clock_gating(cnt, group_size=0)


def full_rebuild_multi_vt(module, constraints, *, slack_margin_ps=50.0):
    """The multi-Vt pass as it ran before incremental re-timing, with a
    new analyzer and a full analysis per candidate swap: the reference
    `multi_vt_leakage_recovery` must match."""
    revised = module.copy(module.name + "_mvt")
    analyzer = TimingAnalyzer(revised, constraints)
    baseline = analyzer.analyze(with_critical_path=False)
    leak_before = sum(
        i.cell.leakage_nw for i in revised.instances.values()) * 1e-6
    arrivals = analyzer.compute_arrivals(worst=True)
    candidates = sorted(
        (i for i in revised.instances.values()
         if not i.cell.is_sequential and not i.cell.is_pad
         and i.cell.vt_class == "svt"),
        key=lambda i: arrivals.get(i.net_of(i.cell.output_pins[0]), 0.0),
    )
    swapped = 0
    if baseline.wns_ps >= 0:
        target_wns = min(baseline.wns_ps, slack_margin_ps)
    else:
        target_wns = baseline.wns_ps
    for inst in candidates:
        hvt = revised.library.vt_variant(inst.cell, "hvt")
        if hvt is None:
            continue
        original = inst.cell.name
        revised.swap_cell(inst.name, hvt.name)
        wns = TimingAnalyzer(revised, constraints).analyze(
            with_critical_path=False).wns_ps
        if wns >= target_wns:
            swapped += 1
        else:
            revised.swap_cell(inst.name, original)
    final = TimingAnalyzer(revised, constraints).analyze(
        with_critical_path=False)
    leak_after = sum(
        i.cell.leakage_nw for i in revised.instances.values()) * 1e-6
    return revised, MultiVtReport(
        cells_swapped=swapped,
        cells_considered=len(candidates),
        leakage_before_mw=leak_before,
        leakage_after_mw=leak_after,
        wns_before_ps=baseline.wns_ps,
        wns_after_ps=final.wns_ps,
    )


class TestMultiVt:
    @pytest.fixture(scope="class")
    def heavy_pin_block(self):
        """A `block`-sized pipeline whose NAND2s are heavier-pinned
        twins, so each of their HVT swaps also lightens the nets they
        read.  Its critical path starts at a flop whose Q feeds one of
        them, so a launch arrival left stale shows in the report."""
        heavy = pipeline_block("blk", HEAVY_PIN_LIB, stages=2, width=10,
                               cloud_gates=50, seed=7)
        for name, inst in heavy.instances.items():
            if inst.cell.name == "NAND2_X1":
                heavy.swap_cell(name, "NAND2_X1_HP")
        path = TimingAnalyzer(
            heavy, TimingConstraints(clock_period_ps=100_000)
        ).analyze().critical_path
        launch = path.points[0]
        assert heavy.instances[launch.instance].cell.is_sequential
        assert "NAND2_X1_HP" in {
            heavy.instances[ref.instance].cell.name
            for ref in heavy.nets[launch.net].loads
        }
        return heavy

    @pytest.mark.parametrize("clock", ["loose", "critical", "failing"])
    @pytest.mark.parametrize("netlist", ["block", "heavy_pin_block"])
    def test_matches_full_rebuild(self, request, netlist, clock):
        module = request.getfixturevalue(netlist)
        probe = TimingAnalyzer(
            module, TimingConstraints(clock_period_ps=100_000)).analyze()
        critical = 100_000 - probe.wns_ps
        scale = {"loose": 3.0, "critical": 1.001, "failing": 0.8}[clock]
        constraints = TimingConstraints(clock_period_ps=critical * scale)
        revised, report = multi_vt_leakage_recovery(module, constraints)
        ref_revised, ref_report = full_rebuild_multi_vt(module, constraints)
        assert report == ref_report
        assert ({n: i.cell.name for n, i in revised.instances.items()}
                == {n: i.cell.name for n, i in ref_revised.instances.items()})
        # Swaps are rejected (and reverted) only under the tight clocks.
        rejected = [
            i.name for i in revised.instances.values()
            if i.cell.vt_class == "svt" and not i.cell.is_sequential
            and module.library.vt_variant(i.cell, "hvt") is not None
        ]
        assert report.cells_swapped > 0
        assert bool(rejected) == (clock != "loose")
        assert (report.wns_before_ps < 0) == (clock == "failing")

    def test_leakage_recovery_preserves_timing(self, block):
        constraints = TimingConstraints(clock_period_ps=30_000)
        revised, report = multi_vt_leakage_recovery(block, constraints)
        assert report.cells_swapped > 0
        assert report.leakage_after_mw < report.leakage_before_mw
        # Bounded by HVT family coverage (only the 2-input workhorse
        # families have multi-Vt twins in the default library).
        assert report.leakage_saving > 0.2
        final = TimingAnalyzer(revised, constraints).analyze()
        assert final.setup_clean

    def test_tight_clock_limits_swaps(self, block):
        loose = TimingConstraints(clock_period_ps=60_000)
        base = TimingAnalyzer(
            block, TimingConstraints(clock_period_ps=100_000)
        ).analyze()
        tight_period = (100_000 - base.wns_ps) * 1.02
        tight = TimingConstraints(clock_period_ps=tight_period)
        _, loose_report = multi_vt_leakage_recovery(block, loose)
        _, tight_report = multi_vt_leakage_recovery(block, tight)
        assert tight_report.cells_swapped <= loose_report.cells_swapped

    def test_functionality_preserved(self, lib):
        from repro.formal import check_sequential_burn_in

        cnt = counter("cnt", lib, width=6)
        constraints = TimingConstraints(clock_period_ps=50_000)
        revised, _ = multi_vt_leakage_recovery(cnt, constraints)
        assert check_sequential_burn_in(cnt, revised, cycles=24).equivalent

    def test_vt_variant_lookup(self, lib):
        nand = lib["NAND2_X1"]
        hvt = lib.vt_variant(nand, "hvt")
        assert hvt is not None
        assert hvt.leakage_nw < nand.leakage_nw
        assert hvt.intrinsic_delay_ps > nand.intrinsic_delay_ps
        assert lib.vt_variant(lib["MUX2_X1"], "hvt") is None


class TestIsolation:
    def test_switchable_crossings_counted(self):
        domains = [
            PowerDomain("always_on", ("cpu",), switchable=False),
            PowerDomain("usb_domain", ("usb11",), switchable=True),
            PowerDomain("jpeg_domain", ("jpeg",), switchable=True),
        ]
        crossings = {
            ("usb_domain", "always_on"): 12,
            ("jpeg_domain", "always_on"): 30,
            ("always_on", "usb_domain"): 20,  # into switchable: no iso
        }
        report = audit_isolation(domains, crossings)
        assert report.isolation_cells_required == 42
        assert len(report.crossings) == 2

    def test_unknown_domain_rejected(self):
        with pytest.raises(KeyError):
            audit_isolation([PowerDomain("a", ())], {("a", "ghost"): 1})


class TestDfm:
    @pytest.fixture(scope="class")
    def placed(self, block):
        placement, _ = AnnealingPlacer(block, seed=7).place(iterations=3000)
        return placement

    def test_double_via_improves_yield(self, block, placed):
        report = double_via_insertion(block, placed)
        assert report.total_vias > 0
        assert report.doubled_vias > 0
        assert report.via_yield_after > report.via_yield_before
        assert "Double-via" in report.format_report()

    def test_via_yield_model_monotone(self):
        assert via_yield_model(10_000_000, 0) < via_yield_model(0, 10_000_000)
        assert via_yield_model(0, 0) == 1.0

    def test_dummy_fill_fixes_sparse_windows(self, block, placed):
        report = dummy_metal_fill(block, placed)
        assert report.regions > 0
        assert report.violating_after <= report.violating_before
        assert 0.0 <= report.fill_added_fraction <= 1.0

    def test_ocv_derate_costs_slack(self, block):
        constraints = TimingConstraints(clock_period_ps=30_000)
        report = ocv_derated_sta(block, constraints)
        assert report.wns_derated_ps < report.wns_nominal_ps
        assert report.variation_cost_ps > 0
        assert "OCV" in report.format_report()

    def test_ocv_bad_derates_rejected(self, block):
        constraints = TimingConstraints(clock_period_ps=30_000)
        with pytest.raises(ValueError):
            ocv_derated_sta(block, constraints, derate_late=0.9)
