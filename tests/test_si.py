"""Tests for signal integrity: crosstalk, IR drop, EM."""

import numpy as np
import pytest

from repro.netlist import make_default_library, pipeline_block
from repro.physical import AnnealingPlacer, GlobalRouter, Placement
from repro.sta import TimingConstraints
from repro.si import (
    CrosstalkAnalyzer,
    PowerGridAnalyzer,
    VDD,
    electromigration_check,
    fix_crosstalk_by_resizing,
)
from repro.si.ir_drop import (
    CELL_CURRENT_MA,
    SEGMENT_RESISTANCE_OHM,
    TAP_CONDUCTANCE_S,
)


@pytest.fixture(scope="module")
def placed_block():
    lib = make_default_library(0.25)
    block = pipeline_block("blk", lib, stages=2, width=10,
                           cloud_gates=50, seed=4)
    placement, _ = AnnealingPlacer(block, seed=4).place(iterations=4000)
    return block, placement


class TestCrosstalk:
    def test_coupling_pairs_found(self, placed_block):
        block, placement = placed_block
        router = GlobalRouter(block, placement, edge_capacity=4)
        analyzer = CrosstalkAnalyzer(block, placement, router)
        analyzer.route_and_trace()
        pairs = analyzer.coupling_pairs(min_shared_edges=1)
        assert pairs  # congested routing must share edges
        assert all(p.shared_edges >= 1 for p in pairs)
        assert all(p.coupling_cap_ff > 0 for p in pairs)

    def test_analysis_produces_deltas(self, placed_block):
        block, placement = placed_block
        router = GlobalRouter(block, placement, edge_capacity=4)
        analyzer = CrosstalkAnalyzer(block, placement, router)
        report = analyzer.analyze(
            TimingConstraints(clock_period_ps=20_000),
            min_shared_edges=1,
        )
        assert report.victim_delta_ps
        assert report.worst_delta_ps > 0
        assert "Crosstalk" in report.format_report()

    def test_resizing_reduces_delta(self, placed_block):
        block, placement = placed_block
        working = block.copy()
        router = GlobalRouter(working, placement, edge_capacity=4)
        analyzer = CrosstalkAnalyzer(working, placement, router)
        constraints = TimingConstraints(clock_period_ps=20_000)
        report = analyzer.analyze(constraints, min_shared_edges=1)
        # Force some victims to be 'violating' for the fix path.
        report.violating_victims = sorted(
            report.victim_delta_ps,
            key=lambda v: -report.victim_delta_ps[v],
        )[:8]
        fixed = fix_crosstalk_by_resizing(working, report)
        assert fixed > 0
        # Stronger drivers => smaller delta on the same coupling.
        router2 = GlobalRouter(working, placement, edge_capacity=4)
        analyzer2 = CrosstalkAnalyzer(working, placement, router2)
        report2 = analyzer2.analyze(constraints, min_shared_edges=1)
        for victim in report.violating_victims:
            if victim in report2.victim_delta_ps:
                assert (report2.victim_delta_ps[victim]
                        <= report.victim_delta_ps[victim] + 1e-9)


def dense_mesh_voltages(grid):
    """Oracle: assemble G and i densely from the module constants and
    solve G*v = i directly."""
    width, height = grid.width, grid.height
    conductance = np.zeros((width * height, width * height))
    currents = np.zeros(width * height)
    segment = 1.0 / SEGMENT_RESISTANCE_OHM
    for row in range(height):
        for col in range(width):
            node = grid._node(col, row)
            for peer_col, peer_row in ((col + 1, row), (col, row + 1)):
                if peer_col < width and peer_row < height:
                    pair = [node, grid._node(peer_col, peer_row)]
                    conductance[pair, pair] += segment
                    conductance[pair, pair[::-1]] -= segment
            if row in (0, height - 1) or col in (0, width - 1):
                conductance[node, node] += TAP_CONDUCTANCE_S
                currents[node] += TAP_CONDUCTANCE_S * VDD
    for col, row in grid.placement.locations.values():
        if 0 <= col < width and 0 <= row < height:
            currents[grid._node(col, row)] -= (
                CELL_CURRENT_MA * 1e-3 * grid.activity
            )
    return np.linalg.solve(conductance, currents)


def mesh(width, height, locations):
    return Placement("mesh", 1.0, width, height, {
        f"u{i}": loc for i, loc in enumerate(locations)
    })


#: Meshes built directly: non-square with a stacked site and a cell
#: off the grid, grids where every node is a tap, and no load at all.
DIRECT_MESHES = {
    "7x3": mesh(7, 3, [(3, 1), (3, 1), (1, 1), (5, 1), (0, 2), (9, 1)]),
    "1x1": mesh(1, 1, [(0, 0), (0, 0)]),
    "2x5": mesh(2, 5, [(0, 1), (1, 3), (1, 3)]),
    "6x2": mesh(6, 2, [(2, 0), (4, 1)]),
    "unloaded": mesh(4, 4, [(4, 0)]),
}


class TestIrDrop:
    @pytest.mark.parametrize("name", ["placed", *DIRECT_MESHES])
    def test_static_solve_matches_dense_oracle(self, placed_block, name):
        block, placement = placed_block
        grid = PowerGridAnalyzer(
            block, DIRECT_MESHES.get(name, placement), activity=0.6
        )
        voltages = grid.solve_static()
        assert voltages.shape == (grid.width * grid.height,)
        np.testing.assert_allclose(
            voltages, dense_mesh_voltages(grid), rtol=0, atol=1e-12
        )

    def test_static_solve_bounded_by_vdd(self, placed_block):
        block, placement = placed_block
        grid = PowerGridAnalyzer(block, placement, activity=0.3)
        voltages = grid.solve_static()
        assert voltages.max() <= VDD + 1e-6
        assert voltages.min() > 0.8 * VDD  # sane grid

    def test_center_droops_more_than_edge(self, placed_block):
        block, placement = placed_block
        grid = PowerGridAnalyzer(block, placement, activity=0.3)
        voltages = grid.solve_static()
        width, height = grid.width, grid.height
        center = voltages[grid._node(width // 2, height // 2)]
        corner = voltages[grid._node(0, 0)]
        assert center <= corner + 1e-9

    def test_higher_activity_more_drop(self, placed_block):
        block, placement = placed_block
        low = PowerGridAnalyzer(block, placement, activity=0.1).analyze()
        high = PowerGridAnalyzer(block, placement, activity=0.9).analyze()
        assert high.worst_static_drop_mv > low.worst_static_drop_mv

    def test_decap_insertion_reduces_violations(self, placed_block):
        block, placement = placed_block
        grid = PowerGridAnalyzer(block, placement, activity=1.0)
        before = grid.analyze(limit_mv=2.0)
        inserted = grid.insert_decaps(limit_mv=2.0)
        after = grid.analyze(limit_mv=2.0)
        if before.violating_nodes > 0:
            assert inserted > 0
            assert after.violating_nodes <= before.violating_nodes
        assert after.decaps_inserted == inserted

    def test_static_mesh_solved_once_per_analyzer(self, placed_block,
                                                  monkeypatch):
        block, placement = placed_block
        solves = []
        solve_static = PowerGridAnalyzer.solve_static

        def counting_solve_static(grid):
            solves.append(grid)
            return solve_static(grid)

        monkeypatch.setattr(PowerGridAnalyzer, "solve_static",
                            counting_solve_static)
        grid = PowerGridAnalyzer(block, placement, activity=1.0)
        before = grid.analyze(limit_mv=1.0)
        assert grid.insert_decaps(limit_mv=1.0) > 0
        after = grid.analyze(limit_mv=1.0)
        assert solves == [grid]
        # decaps move only the dynamic droop: a fresh solve with the
        # same decap sites reports exactly the same numbers
        fresh = PowerGridAnalyzer(block, placement, activity=1.0)
        assert fresh.analyze(limit_mv=1.0) == before
        fresh._decap_sites = set(grid._decap_sites)
        assert fresh.analyze(limit_mv=1.0) == after
        assert len(solves) == 2

    def test_bad_activity_rejected(self, placed_block):
        block, placement = placed_block
        with pytest.raises(ValueError):
            PowerGridAnalyzer(block, placement, activity=0.0)

    def test_report_format(self, placed_block):
        block, placement = placed_block
        report = PowerGridAnalyzer(block, placement).analyze()
        assert "IR drop" in report.format_report()


class TestElectromigration:
    def test_heavy_fanout_net_flagged(self):
        from repro.netlist import Module

        lib = make_default_library(0.25)
        m = Module("em", lib)
        m.add_port("a", "input")
        m.add_instance("drv", "BUF_X16", {"A": "a", "Y": "heavy"})
        for index in range(64):
            m.add_port(f"y{index}", "output")
            m.add_instance(f"u{index}", "BUF_X4",
                           {"A": "heavy", "Y": f"y{index}"})
        offenders = electromigration_check(m, max_current_ma=0.05)
        assert "heavy" in offenders

    def test_light_nets_pass(self):
        from repro.netlist import counter

        lib = make_default_library(0.25)
        m = counter("cnt", lib, width=4)
        offenders = electromigration_check(m, max_current_ma=5.0)
        assert offenders == []
