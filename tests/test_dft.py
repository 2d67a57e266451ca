"""Tests for scan insertion, fault simulation and ATPG."""

import numpy as np
import pytest

from repro.netlist import (
    Logic,
    Module,
    counter,
    make_default_library,
    pipeline_block,
)
from repro.netlist.clocks import scan_mode_inputs
from repro.sim import LogicSimulator
from repro.dft import (
    CombinationalView,
    Fault,
    chain_integrity_test,
    collapse_faults,
    enumerate_faults,
    insert_scan,
    random_pattern_fault_sim,
    run_atpg,
    shift_in,
    shift_out,
    simulate_single_pattern,
)


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


@pytest.fixture(scope="module")
def scanned_counter(lib):
    m = counter("cnt", lib, width=6)
    scanned, report = insert_scan(m)
    return scanned, report


class TestScanInsertion:
    def test_all_flops_replaced(self, scanned_counter):
        scanned, report = scanned_counter
        assert report.replaced_flops == 6
        assert report.total_scan_flops == 6
        assert all(
            f.cell.scan_in_pin is not None for f in scanned.sequential_instances
        )

    def test_ports_added(self, scanned_counter):
        scanned, report = scanned_counter
        assert "scan_en" in scanned.ports
        assert "scan_in0" in scanned.ports
        assert "scan_out0" in scanned.ports

    def test_scan_mode_inputs_are_the_enable_and_scan_inputs(self, lib):
        block = pipeline_block("p", lib, stages=2, width=8,
                               cloud_gates=40, seed=5)
        scanned, _ = insert_scan(block, n_chains=2)
        assert scan_mode_inputs(scanned) == ("scan_en", "scan_in0",
                                             "scan_in1")
        assert scan_mode_inputs(block) == ()

    def test_area_overhead_positive(self, scanned_counter):
        _, report = scanned_counter
        assert report.area_overhead_um2 > 0

    def test_original_untouched(self, lib):
        m = counter("cnt", lib, width=4)
        insert_scan(m)
        assert all(f.cell.scan_in_pin is None for f in m.sequential_instances)
        assert "scan_en" not in m.ports

    def test_multiple_chains_balanced(self, lib):
        m = pipeline_block("p", lib, stages=3, width=8, cloud_gates=20, seed=1)
        scanned, report = insert_scan(m, n_chains=3)
        lengths = [len(c) for c in report.chains]
        assert sum(lengths) == 24
        assert max(lengths) - min(lengths) <= 1

    def test_functional_equivalence_with_scan_off(self, lib):
        """Scan insertion must be transparent when scan_en is low."""
        m = counter("cnt", lib, width=4)
        scanned, _ = insert_scan(m)
        sim_orig = LogicSimulator(m)
        sim_scan = LogicSimulator(scanned)
        sim_orig.set_inputs({"clk": 0, "rst_n": 0})
        sim_scan.set_inputs({"clk": 0, "rst_n": 0, "scan_en": 0, "scan_in0": 0})
        sim_orig.evaluate(); sim_scan.evaluate()
        sim_orig.set_input("rst_n", 1)
        sim_scan.set_input("rst_n", 1)
        for _ in range(10):
            sim_orig.clock_edge("clk")
            sim_scan.clock_edge("clk")
            for bit in range(4):
                assert sim_orig.read(f"count{bit}") is sim_scan.read(f"count{bit}")

    def test_no_flops_rejected(self, lib):
        m = Module("comb", lib)
        m.add_port("a", "input")
        m.add_port("y", "output")
        m.add_instance("u0", "INV_X1", {"A": "a", "Y": "y"})
        with pytest.raises(ValueError, match="no flip-flops"):
            insert_scan(m)

    def test_chain_order_override(self, lib):
        m = counter("cnt", lib, width=3)
        order = ["ff2", "ff0", "ff1"]
        scanned, report = insert_scan(m, chain_order=order)
        assert list(report.chains[0].flops) == order

    def test_bad_chain_order_rejected(self, lib):
        m = counter("cnt", lib, width=3)
        with pytest.raises(ValueError, match="missing flops"):
            insert_scan(m, chain_order=["ff0"])

    def test_placement_aware_order_shortens_stitching(self, lib):
        from repro.dft import chain_wirelength_um, \
            placement_aware_chain_order
        from repro.physical import AnnealingPlacer

        m = pipeline_block("p", lib, stages=4, width=12, cloud_gates=30,
                           seed=13)
        placement, _ = AnnealingPlacer(m, seed=13).place(iterations=4000)
        name_order = sorted(f.name for f in m.sequential_instances)
        tour_order = placement_aware_chain_order(m, placement)
        assert sorted(tour_order) == name_order
        assert chain_wirelength_um(tour_order, placement) < \
            chain_wirelength_um(name_order, placement)
        # The re-ordered chain still scans correctly.
        scanned, report = insert_scan(m, chain_order=tour_order)
        sim = LogicSimulator(scanned)
        sim.set_inputs({"clk": 0, "rst_n": 1, "scan_in0": 0, "scan_en": 1})
        assert chain_integrity_test(sim, report.chains[0])


class TestScanShift:
    def test_chain_integrity(self, scanned_counter):
        scanned, report = scanned_counter
        sim = LogicSimulator(scanned)
        sim.set_inputs({"clk": 0, "rst_n": 1, "scan_in0": 0, "scan_en": 1})
        assert chain_integrity_test(sim, report.chains[0])

    def test_shift_in_loads_state(self, scanned_counter):
        scanned, report = scanned_counter
        chain = report.chains[0]
        sim = LogicSimulator(scanned)
        sim.set_inputs({"clk": 0, "rst_n": 1, "scan_in0": 0, "scan_en": 1})
        pattern = [Logic.ONE, Logic.ZERO, Logic.ONE, Logic.ONE,
                   Logic.ZERO, Logic.ZERO]
        shift_in(sim, chain, pattern)
        state = [sim.flop_state[name] for name in chain.flops]
        assert state == pattern

    def test_shift_out_reads_state(self, scanned_counter):
        scanned, report = scanned_counter
        chain = report.chains[0]
        sim = LogicSimulator(scanned)
        sim.set_inputs({"clk": 0, "rst_n": 1, "scan_in0": 0, "scan_en": 1})
        pattern = [Logic.ONE, Logic.ONE, Logic.ZERO, Logic.ONE,
                   Logic.ZERO, Logic.ONE]
        shift_in(sim, chain, pattern)
        assert shift_out(sim, chain) == pattern

    def test_wrong_length_rejected(self, scanned_counter):
        scanned, report = scanned_counter
        sim = LogicSimulator(scanned)
        with pytest.raises(ValueError):
            shift_in(sim, report.chains[0], [Logic.ONE])


class TestFaultUniverse:
    def test_enumeration_counts(self, lib):
        m = Module("t", lib)
        m.add_port("a", "input")
        m.add_port("b", "input")
        m.add_port("y", "output")
        m.add_instance("u0", "NAND2_X1", {"A": "a", "B": "b", "Y": "y"})
        faults = enumerate_faults(m)
        assert len(faults) == 6  # 3 pins x 2 polarities

    def test_collapsing_shrinks_universe(self, lib):
        m = counter("cnt", lib, width=6)
        full = enumerate_faults(m)
        collapsed = collapse_faults(m, full)
        assert 0 < len(collapsed) < len(full)

    def test_bad_stuck_value_rejected(self):
        with pytest.raises(ValueError):
            Fault("u0", "A", 2)


class TestFaultSimulation:
    def test_nand_output_fault_detected(self, lib):
        m = Module("t", lib)
        for p in ("a", "b"):
            m.add_port(p, "input")
        m.add_port("y", "output")
        m.add_instance("u0", "NAND2_X1", {"A": "a", "B": "b", "Y": "y"})
        view = CombinationalView(m)
        # Pattern a=1,b=1 gives y=0; SA1 on Y flips it.
        detected = simulate_single_pattern(
            view, {"a": 1, "b": 1}, [Fault("u0", "Y", 1)]
        )
        assert detected == {Fault("u0", "Y", 1)}
        # Same pattern does NOT detect SA0 on Y (y is already 0).
        assert not simulate_single_pattern(
            view, {"a": 1, "b": 1}, [Fault("u0", "Y", 0)]
        )

    def test_input_branch_fault(self, lib):
        m = Module("t", lib)
        for p in ("a", "b"):
            m.add_port(p, "input")
        m.add_port("y", "output")
        m.add_instance("u0", "AND2_X1", {"A": "a", "B": "b", "Y": "y"})
        view = CombinationalView(m)
        # a=0, b=1: good y=0. A/SA1 makes y=1 -> detected.
        assert simulate_single_pattern(
            view, {"a": 0, "b": 1}, [Fault("u0", "A", 1)]
        )
        # a=0, b=0: A/SA1 masked by b=0 -> not detected.
        assert not simulate_single_pattern(
            view, {"a": 0, "b": 0}, [Fault("u0", "A", 1)]
        )

    def test_random_sim_covers_small_block(self, lib):
        m = counter("cnt", lib, width=5)
        scanned, _ = insert_scan(m)
        view = CombinationalView(scanned)
        faults = enumerate_faults(scanned)
        result = random_pattern_fault_sim(
            faults=faults, view=view,
            rng=np.random.default_rng(1), max_patterns=512,
        )
        assert result.coverage > 0.75
        # Coverage curve is monotone non-decreasing.
        coverages = [c for _, c in result.coverage_curve]
        assert all(b >= a for a, b in zip(coverages, coverages[1:]))

    def test_fault_dropping_counts_consistent(self, lib):
        m = counter("cnt", lib, width=4)
        scanned, _ = insert_scan(m)
        view = CombinationalView(scanned)
        faults = enumerate_faults(scanned)
        result = random_pattern_fault_sim(
            faults=faults, view=view,
            rng=np.random.default_rng(2), max_patterns=256,
        )
        assert len(result.detected) <= result.total_faults
        assert result.detected.issubset(set(faults))


class TestAtpg:
    def test_atpg_reaches_paper_band(self, lib):
        """E4 in miniature: coverage lands in the high-80s/90s band."""
        m = pipeline_block("blk", lib, stages=2, width=16, cloud_gates=60, seed=3)
        scanned, _ = insert_scan(m)
        result = run_atpg(scanned, seed=7, max_random_patterns=256)
        assert 0.85 <= result.coverage <= 1.0
        assert result.test_efficiency >= 0.95
        assert result.total_patterns > 0

    def test_deterministic_beats_random_alone(self, lib):
        m = pipeline_block("blk", lib, stages=2, width=12, cloud_gates=50, seed=9)
        scanned, _ = insert_scan(m)
        short = run_atpg(scanned, seed=7, max_random_patterns=64)
        assert short.detected >= short.detected_random

    def test_report_format(self, lib):
        m = counter("cnt", lib, width=4)
        scanned, _ = insert_scan(m)
        result = run_atpg(scanned, seed=1, max_random_patterns=128)
        report = result.format_report()
        assert "fault coverage" in report
        assert "%" in report
