"""Tests for floorplanning, placement, routing and CTS."""

import pytest

from repro.netlist import (
    Module,
    counter,
    make_default_library,
    pipeline_block,
)
from repro.sta import TimingAnalyzer, TimingConstraints
from repro.physical import (
    AnnealingPlacer,
    FloorplanError,
    GlobalRouter,
    HardMacro,
    build_clock_tree,
    build_floorplan,
    place_macros_peripheral,
    size_die,
)


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


@pytest.fixture(scope="module")
def small_block(lib):
    return pipeline_block("blk", lib, stages=2, width=8, cloud_gates=40, seed=5)


class TestFloorplan:
    def test_die_size_grows_with_content(self):
        small = size_die(stdcell_area_um2=1e6, macro_area_um2=0)
        large = size_die(stdcell_area_um2=4e6, macro_area_um2=2e6)
        assert large[0] > small[0]

    def test_bad_utilization_rejected(self):
        with pytest.raises(FloorplanError):
            size_die(stdcell_area_um2=1e6, macro_area_um2=0,
                     target_utilization=0.99)

    def test_macros_placed_inside_die(self):
        macros = [HardMacro.from_area(f"m{i}", 4e5) for i in range(8)]
        placed = place_macros_peripheral(8000, 8000, macros)
        assert len(placed) == 8
        for pm in placed:
            assert 0 <= pm.x_um <= 8000 - pm.macro.width_um
            assert 0 <= pm.y_um <= 8000 - pm.macro.height_um

    def test_macros_do_not_overlap(self):
        macros = [HardMacro.from_area(f"m{i}", 3e5) for i in range(12)]
        placed = place_macros_peripheral(9000, 9000, macros)

        def rect(pm):
            return (pm.x_um, pm.y_um,
                    pm.x_um + pm.macro.width_um,
                    pm.y_um + pm.macro.height_um)

        for i, a in enumerate(placed):
            ax0, ay0, ax1, ay1 = rect(a)
            for b in placed[i + 1:]:
                bx0, by0, bx1, by1 = rect(b)
                overlap = not (
                    ax1 <= bx0 or bx1 <= ax0 or ay1 <= by0 or by1 <= ay0
                )
                assert not overlap, (a.macro.name, b.macro.name)

    def test_overfull_periphery_rejected(self):
        macros = [HardMacro.from_area(f"m{i}", 5e6) for i in range(30)]
        with pytest.raises(FloorplanError):
            place_macros_peripheral(4000, 4000, macros)

    def test_build_floorplan_converges(self):
        macros = [HardMacro.from_area(f"sram{i}", 6e5) for i in range(30)]
        plan = build_floorplan(stdcell_area_um2=7.5e6, macros=macros)
        assert len(plan.macros) == 30
        assert 0.2 <= plan.core_utilization <= 1.0
        assert "Floorplan" in plan.format_report()


class TestPlacement:
    def test_all_cells_placed_uniquely(self, small_block):
        placer = AnnealingPlacer(small_block, seed=1)
        placement, _ = placer.place(iterations=3000)
        assert len(placement.locations) == len(small_block.instances)
        assert len(set(placement.locations.values())) == len(
            placement.locations
        )

    def test_annealing_improves_hpwl(self, small_block):
        placer = AnnealingPlacer(small_block, seed=2)
        placement, report = placer.place(iterations=8000)
        assert report.hpwl_final_um < report.hpwl_initial_um
        assert report.improvement > 0.1

    def test_deterministic_given_seed(self, small_block):
        a, _ = AnnealingPlacer(small_block, seed=3).place(iterations=2000)
        b, _ = AnnealingPlacer(small_block, seed=3).place(iterations=2000)
        assert a.locations == b.locations

    def test_timing_driven_flag(self, small_block):
        placer = AnnealingPlacer(small_block, seed=4)
        constraints = TimingConstraints(clock_period_ps=3000)
        _, report = placer.place(iterations=2000,
                                 timing_constraints=constraints)
        assert report.timing_driven

    def test_criticality_weights_need_an_endpoint(self, lib, small_block):
        """No flop and no output port leaves nothing to weight for."""
        constraints = TimingConstraints(clock_period_ps=3000)
        sink = Module("sink", lib)
        sink.add_port("a", "input")
        sink.add_instance("u0", "INV_X1", {"A": "a", "Y": "n0"})
        placer = AnnealingPlacer(sink, seed=1)
        assert placer.criticality_weights(constraints) == {}
        weights = AnnealingPlacer(small_block, seed=1).criticality_weights(
            constraints
        )
        assert weights and set(weights.values()) <= {1.0, 2.0, 3.0}

    def test_wire_caps_feed_sta(self, small_block):
        placer = AnnealingPlacer(small_block, seed=5)
        placement, _ = placer.place(iterations=3000)
        caps = placer.wire_caps_ff(placement)
        assert caps and all(v >= 0 for v in caps.values())
        constraints = TimingConstraints(clock_period_ps=10_000)
        ideal = TimingAnalyzer(small_block, constraints).analyze()
        placed = TimingAnalyzer(
            small_block, constraints, net_wire_cap_ff=caps
        ).analyze()
        # Real wire loads slow the design down vs the fanout estimate
        # only if HPWL caps exceed it; either way both must be finite.
        assert placed.wns_ps <= constraints.clock_period_ps
        assert ideal.wns_ps <= constraints.clock_period_ps


class TestRouting:
    def test_routes_all_connections(self, small_block):
        placer = AnnealingPlacer(small_block, seed=6)
        placement, _ = placer.place(iterations=4000)
        router = GlobalRouter(small_block, placement, edge_capacity=16)
        report = router.route_all()
        assert report.failed_connections == 0
        assert report.connections_routed > 0
        assert report.total_wirelength_um > 0

    def test_congestion_spreads_with_low_capacity(self, small_block):
        placer = AnnealingPlacer(small_block, seed=6)
        placement, _ = placer.place(iterations=4000)
        tight = GlobalRouter(small_block, placement, edge_capacity=2)
        loose = GlobalRouter(small_block, placement, edge_capacity=32)
        report_tight = tight.route_all()
        report_loose = loose.route_all()
        # With tight capacity the router detours: wirelength goes up.
        assert (report_tight.total_wirelength_um
                >= report_loose.total_wirelength_um)
        assert report_loose.overflow_edges == 0

    def test_report_format(self, small_block):
        placer = AnnealingPlacer(small_block, seed=7)
        placement, _ = placer.place(iterations=1000)
        report = GlobalRouter(small_block, placement).route_all()
        assert "wirelength" in report.format_report()


class TestClockTree:
    def test_tree_covers_all_flops(self, lib):
        m = counter("cnt", lib, width=16)
        placement, _ = AnnealingPlacer(m, seed=8).place(iterations=2000)
        root, report = build_clock_tree(m, placement)
        assert report.sinks == 16
        assert report.buffers >= 15  # binary matching tree

    def test_skew_is_bounded(self, lib):
        m = counter("cnt", lib, width=32)
        placement, _ = AnnealingPlacer(m, seed=9).place(iterations=3000)
        _, report = build_clock_tree(m, placement)
        assert report.skew_ps < report.insertion_delay_ps
        assert report.skew_ps >= 0

    def test_no_flops_rejected(self, lib):
        from repro.netlist.generators import random_combinational_cloud

        m = random_combinational_cloud(
            "c", lib, n_inputs=4, n_outputs=2, n_gates=20, seed=1
        )
        placement, _ = AnnealingPlacer(m, seed=1).place(iterations=500)
        with pytest.raises(ValueError):
            build_clock_tree(m, placement)

    def test_report_format(self, lib):
        m = counter("cnt", lib, width=8)
        placement, _ = AnnealingPlacer(m, seed=1).place(iterations=1000)
        _, report = build_clock_tree(m, placement)
        assert "insertion delay" in report.format_report()
