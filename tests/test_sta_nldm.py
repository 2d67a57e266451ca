"""Tests for the NLDM multi-corner STA: oracle equivalence, corner
physics, and the legacy analyzer's multi-output-cell regression."""

import pytest

from repro.liberty import default_cell_library
from repro.netlist import Module, counter, make_default_library, pipeline_block
from repro.netlist.library import Cell, PinSpec
from repro.perf import REGISTRY, reset_metrics
from repro.sta import (
    NldmTimingAnalyzer,
    TimingAnalyzer,
    TimingConstraints,
    analyze_timing,
    compile_timing_graph,
)
from repro.oracles.sta import analyze_scalar


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


@pytest.fixture(scope="module")
def cnt(lib):
    return counter("cnt", lib, width=10)


@pytest.fixture(scope="module")
def pipe(lib):
    return pipeline_block("pipe", lib, stages=3, width=8,
                          cloud_gates=60, seed=2)


CONSTRAINTS = TimingConstraints(clock_period_ps=7500.0)


class TestEngineEquivalence:
    """The signoff contract: canonical QoR JSON is byte-identical to
    the per-arc oracle's for any corner subset."""

    @pytest.mark.parametrize("corners", [
        None, ["tt"], ["ss", "ff"], ["ff", "ss", "tt"],
    ])
    @pytest.mark.parametrize("design", ["cnt", "pipe"])
    def test_identical_qor(self, design, corners, request):
        module = request.getfixturevalue(design)
        analyzer = NldmTimingAnalyzer(module, CONSTRAINTS)
        vec = analyzer.analyze(corners=corners)
        ser = analyze_scalar(analyzer, corners=corners)
        assert vec.canonical_json() == ser.canonical_json()

    def test_identical_with_placed_wire_caps(self, cnt):
        wire = {name: 12.5 + (i % 7) for i, name in
                enumerate(sorted(cnt.nets))}
        vec = NldmTimingAnalyzer(
            cnt, CONSTRAINTS, net_wire_cap_ff=wire).analyze()
        ser = analyze_scalar(NldmTimingAnalyzer(
            cnt, CONSTRAINTS, net_wire_cap_ff=wire))
        assert vec.canonical_json() == ser.canonical_json()


class TestCornerPhysics:
    def test_setup_worst_at_slow_corner(self, pipe):
        report = analyze_timing(pipe, CONSTRAINTS)
        assert (report.corner("ss").wns_ps
                < report.corner("tt").wns_ps
                < report.corner("ff").wns_ps)
        assert report.worst_corner.corner == "ss"
        assert report.wns_ps == report.corner("ss").wns_ps

    def test_hold_worst_at_fast_corner(self, pipe):
        report = analyze_timing(pipe, CONSTRAINTS)
        assert (report.corner("ff").hold_wns_ps
                <= report.corner("ss").hold_wns_ps)

    def test_format_report_names_corners(self, pipe):
        text = analyze_timing(pipe, CONSTRAINTS).format_report()
        for corner in ("ss", "tt", "ff"):
            assert f"[{corner}]" in text

    def test_endpoint_slack_keys(self, cnt):
        slacks = NldmTimingAnalyzer(cnt, CONSTRAINTS).endpoint_slacks()
        assert slacks
        assert all(k.startswith(("flop:", "port:")) for k in slacks)

    def test_graph_cache_hit(self, cnt, lib):
        nldm = default_cell_library(lib)
        assert compile_timing_graph(cnt, nldm) is compile_timing_graph(
            cnt, nldm)

    def test_perf_counters_recorded(self, lib):
        reset_metrics()
        fresh = counter("perf_probe", lib, width=4)
        NldmTimingAnalyzer(fresh, CONSTRAINTS).analyze()
        stages = REGISTRY.as_dict()
        assert "sta.compile" in stages
        assert "sta.sweep" in stages
        assert stages["sta.sweep"]["arcs"] > 0


def full_adder_chain(length):
    """A ripple-carry chain of two-output full-adder cells whose
    carry-out nets are far more heavily loaded than the sum nets."""
    lib = make_default_library(0.25)
    lib.add(Cell(
        name="FA_X1",
        pins=(
            PinSpec("A", "input", 2.0),
            PinSpec("B", "input", 2.0),
            PinSpec("CI", "input", 2.0),
            PinSpec("S", "output"),
            PinSpec("CO", "output"),
        ),
        intrinsic_delay_ps=40.0,
        drive_resistance_kohm=2.0,
        footprint="FA",
    ))
    m = Module("adder", lib)
    m.add_port("cin", "input")
    carry = "cin"
    for i in range(length):
        m.add_port(f"a{i}", "input")
        m.add_port(f"b{i}", "input")
        m.add_port(f"s{i}", "output")
        out_carry = f"co{i}"
        m.add_instance(f"fa{i}", "FA_X1", {
            "A": f"a{i}", "B": f"b{i}", "CI": carry,
            "S": f"s{i}", "CO": out_carry,
        })
        # Load the carry net with a fanout tree the sum net never sees.
        for j in range(6):
            m.add_port(f"t{i}_{j}", "output")
            m.add_instance(f"ld{i}_{j}", "INV_X1",
                           {"A": out_carry, "Y": f"t{i}_{j}"})
        carry = out_carry
    m.add_port("cout", "output")
    m.add_instance("capbuf", "BUF_X1", {"A": carry, "Y": "cout"})
    return m


class TestMultiOutputCells:
    """Regression: the legacy analyzer must time *every* output pin of
    a cell against its own load, or a carry chain whose heavily loaded
    CO rides behind a lightly loaded S is under-reported."""

    def test_each_output_priced_against_own_load(self):
        m = full_adder_chain(4)
        analyzer = TimingAnalyzer(m, CONSTRAINTS)
        fa = m.instances["fa0"]
        assert (analyzer.stage_delay_ps(fa, "CO")
                > analyzer.stage_delay_ps(fa, "S"))
        # The implicit default remains the first declared output.
        assert analyzer.stage_delay_ps(fa) == analyzer.stage_delay_ps(
            fa, "S")

    def test_carry_chain_not_under_reported(self):
        length = 6
        m = full_adder_chain(length)
        analyzer = TimingAnalyzer(m, CONSTRAINTS)
        arrivals = analyzer.compute_arrivals()
        # Summing the first-output (S) stage delays is exactly the
        # pre-fix under-report; the real carry arrival must beat it.
        under_report = sum(
            analyzer.stage_delay_ps(m.instances[f"fa{i}"], "S")
            for i in range(length)
        )
        true_chain = sum(
            analyzer.stage_delay_ps(m.instances[f"fa{i}"], "CO")
            for i in range(length)
        )
        assert arrivals[f"co{length - 1}"] == pytest.approx(true_chain)
        assert arrivals[f"co{length - 1}"] > under_report

    def test_critical_path_follows_loaded_carry(self):
        m = full_adder_chain(6)
        report = TimingAnalyzer(m, CONSTRAINTS).analyze()
        assert report.critical_path is not None
        cells = [p.cell for p in report.critical_path.points]
        assert "FA_X1" in cells
