"""Tests for the ECO engines and design versioning."""

import numpy as np
import pytest

from repro.netlist import Module, counter, make_default_library, pipeline_block
from repro.sta import TimingAnalyzer, TimingConstraints
from repro.eco import (
    ChangeKind,
    DesignDatabase,
    EcoEdit,
    EcoError,
    EcoPatch,
    SpareCellError,
    apply_and_verify,
    apply_patch,
    close_timing,
    fix_hold,
    fix_setup,
    paper_change_counts,
    random_functional_change,
    sprinkle_spare_cells,
    strengthen_driver_metal_only,
)
from tests.test_formal import and_tree


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


class TestVersioning:
    def test_commit_and_head(self, lib):
        db = DesignDatabase("blk")
        m = counter("cnt", lib, width=4)
        db.commit(m, ChangeKind.SPEC_CHANGE, "initial netlist")
        assert len(db) == 1
        assert db.head.gate_count == m.gate_count

    def test_head_of_empty_raises(self):
        with pytest.raises(LookupError):
            DesignDatabase("empty").head

    def test_versions_are_snapshots(self, lib):
        db = DesignDatabase("blk")
        m = counter("cnt", lib, width=4)
        db.commit(m, ChangeKind.SPEC_CHANGE, "v0")
        m.swap_cell("qbuf0", "BUF_X4")
        db.commit(m, ChangeKind.NETLIST_ECO, "resize")
        assert db.version(0).instances["qbuf0"].cell.name == "BUF_X1"
        assert db.version(1).instances["qbuf0"].cell.name == "BUF_X4"

    def test_count_by_kind_and_report(self, lib):
        db = DesignDatabase("blk")
        m = counter("cnt", lib, width=2)
        for kind, count in paper_change_counts().items():
            for index in range(count):
                db.commit(m, kind, f"{kind.value} #{index}")
        counts = db.count_by_kind()
        assert counts[ChangeKind.NETLIST_ECO] == 10
        assert counts[ChangeKind.PIN_ASSIGNMENT] == 13
        assert "netlist_eco" in db.churn_report()

    def test_paper_change_counts_total_29(self):
        assert sum(paper_change_counts().values()) == 29


class TestCombinationalEco:
    def test_apply_patch_is_nondestructive(self, lib):
        m = counter("cnt", lib, width=4)
        patch = EcoPatch("resize", [EcoEdit("swap_cell", "qbuf0",
                                            cell="BUF_X4")])
        revised = apply_patch(m, patch)
        assert revised.instances["qbuf0"].cell.name == "BUF_X4"
        assert m.instances["qbuf0"].cell.name == "BUF_X1"

    def test_bad_patch_raises_eco_error(self, lib):
        m = counter("cnt", lib, width=4)
        patch = EcoPatch("bogus", [EcoEdit("swap_cell", "nope",
                                           cell="BUF_X4")])
        with pytest.raises(EcoError, match="bogus"):
            apply_patch(m, patch)

    def test_random_functional_change_changes_function(self, lib):
        m = pipeline_block("p", lib, stages=1, width=8, cloud_gates=30, seed=1)
        rng = np.random.default_rng(3)
        patch = random_functional_change(m, rng=rng)
        application = apply_and_verify(m, patch, expect_equivalent=False)
        assert not application.equivalence_vs_base

    def test_resize_patch_verifies_equivalent(self, lib):
        m = pipeline_block("p", lib, stages=1, width=6, cloud_gates=20, seed=2)
        victim = next(i.name for i in m.instances.values()
                      if i.cell.footprint == "NAND2")
        patch = EcoPatch("resize", [EcoEdit("swap_cell", victim,
                                            cell="NAND2_X4")])
        application = apply_and_verify(m, patch, expect_equivalent=True)
        assert application.equivalence_vs_base

    def test_wide_cone_minterm_change_not_equivalent(self, lib):
        """Tying a 20-input AND tree's output low changes one input
        vector in 2**20; a resize-style expectation must still fail."""
        m = and_tree(lib, "tree", 20)
        patch = EcoPatch("tie y low", [
            EcoEdit("remove_instance", "and18"),
            EcoEdit("add_instance", "tie", cell="TIELO",
                    connections=(("Y", "y"),)),
        ])
        with pytest.raises(EcoError, match="expected"):
            apply_and_verify(m, patch, expect_equivalent=True)
        assert not apply_and_verify(
            m, patch, expect_equivalent=False
        ).equivalence_vs_base

    def test_wrong_expectation_raises(self, lib):
        m = pipeline_block("p", lib, stages=1, width=6, cloud_gates=20, seed=4)
        rng = np.random.default_rng(5)
        patch = random_functional_change(m, rng=rng)
        with pytest.raises(EcoError, match="expected"):
            apply_and_verify(m, patch, expect_equivalent=True)


class TestTimingFix:
    def test_setup_fix_improves_wns(self, lib):
        m = pipeline_block("p", lib, stages=3, width=10, cloud_gates=60,
                           seed=6)
        # Pick a period that the X1-heavy netlist misses but resizing
        # can recover.
        base = TimingAnalyzer(
            m, TimingConstraints(clock_period_ps=100_000)
        ).analyze()
        period = (100_000 - base.wns_ps) * 0.92
        constraints = TimingConstraints(clock_period_ps=period)
        before = TimingAnalyzer(m, constraints).analyze()
        assert before.wns_ps < 0
        fixed, report = fix_setup(m, constraints)
        assert report.wns_after_ps > report.wns_before_ps
        assert report.cells_resized > 0

    def test_hold_fix_inserts_buffers(self, lib):
        m = Module("h", lib)
        m.add_port("clk", "input")
        m.add_port("d", "input")
        m.add_port("q", "output")
        m.add_instance("f0", "DFF", {"D": "d", "CK": "clk", "Q": "n"})
        m.add_instance("f1", "DFF", {"D": "n", "CK": "clk", "Q": "qi"})
        m.add_instance("ob", "BUF_X1", {"A": "qi", "Y": "q"})
        constraints = TimingConstraints(clock_period_ps=10_000, hold_ps=400)
        fixed, report = fix_hold(m, constraints)
        assert report.buffers_inserted >= 1
        assert report.hold_wns_after_ps > report.hold_wns_before_ps
        assert report.closed

    def test_close_timing_combined(self, lib):
        m = pipeline_block("p", lib, stages=2, width=8, cloud_gates=40, seed=7)
        constraints = TimingConstraints(clock_period_ps=20_000, hold_ps=150)
        fixed, report = close_timing(m, constraints)
        assert report.closed
        # Function must be preserved by both fix flavours.
        from repro.formal import check_sequential_burn_in
        result = check_sequential_burn_in(m, fixed, cycles=24)
        assert result.equivalent

    def test_unfixable_clock_reports_open(self, lib):
        m = pipeline_block("p", lib, stages=2, width=8, cloud_gates=40, seed=8)
        constraints = TimingConstraints(clock_period_ps=200)  # impossible
        _, report = fix_setup(m, constraints)
        assert not report.closed


class TestSpareCells:
    def test_sprinkle_and_count(self, lib):
        m = counter("cnt", lib, width=4)
        plan = sprinkle_spare_cells(m, count=8)
        assert plan.available == 8
        assert m.validate() == []  # spare outputs are tolerated

    def test_metal_fix_consumes_spare_and_upsizes(self, lib):
        """E8 mechanics: the weak CPU output buffer gets strengthened
        with a metal-only change."""
        m = counter("cnt", lib, width=4)
        m.add_port("pad", "output")
        m.add_instance("weak_pad", "PAD_OUT_2MA", {"A": "q0", "PAD": "pad"})
        plan = sprinkle_spare_cells(m, count=4)
        report = strengthen_driver_metal_only(m, plan, "weak_pad")
        assert m.instances["weak_pad"].cell.name == "PAD_OUT_4MA"
        assert plan.available == 3
        assert report.mask_cost_usd < report.full_respin_cost_usd / 2
        assert report.turnaround_weeks < report.full_respin_weeks

    def test_no_spares_raises(self, lib):
        m = counter("cnt", lib, width=4)
        plan = sprinkle_spare_cells(m, count=1)
        plan.spare_instances.clear()
        with pytest.raises(SpareCellError, match="no spare"):
            strengthen_driver_metal_only(m, plan, "qbuf0")

    def test_strongest_cell_cannot_grow(self, lib):
        m = counter("cnt", lib, width=4)
        m.swap_cell("qbuf0", "BUF_X16")
        plan = sprinkle_spare_cells(m, count=2)
        with pytest.raises(SpareCellError, match="strongest"):
            strengthen_driver_metal_only(m, plan, "qbuf0")

    def test_missing_instance_raises(self, lib):
        m = counter("cnt", lib, width=4)
        plan = sprinkle_spare_cells(m, count=1)
        with pytest.raises(SpareCellError, match="no instance"):
            strengthen_driver_metal_only(m, plan, "ghost")

    def test_report_format(self, lib):
        m = counter("cnt", lib, width=4)
        plan = sprinkle_spare_cells(m, count=2)
        report = strengthen_driver_metal_only(m, plan, "qbuf0")
        assert "Metal-only ECO" in report.format_report()
