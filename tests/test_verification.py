"""Tests for the testbench framework and cross-simulator regression."""

import pytest

from repro.netlist import bits_to_int, counter, make_default_library
from repro.verification import (
    Testbench,
    cross_simulator_check,
    random_stimulus,
    run_regression,
    toggle_coverage,
)


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


@pytest.fixture(scope="module")
def cnt(lib):
    return counter("cnt", lib, width=4)


def counting_checker(cycle, outputs):
    """Golden model: after reset, count output equals cycle + 1."""
    bits = [outputs[f"count{i}"] for i in range(4)]
    if any(not b.is_known for b in bits):
        return f"unknown output bits {bits}"
    value = bits_to_int(bits)
    expected = (cycle + 1) % 16
    if value != expected:
        return f"count={value}, expected {expected}"
    return None


class TestTestbench:
    def test_counter_bench_passes(self, cnt):
        bench = Testbench(
            name="count_check",
            stimulus=[{} for _ in range(10)],
            checker=counting_checker,
        )
        result, = run_regression(cnt, [bench]).results
        assert result.passed, result.mismatches
        assert result.cycles == 10

    def test_checker_failure_reported(self, cnt):
        bench = Testbench(
            name="wrong_golden",
            stimulus=[{} for _ in range(3)],
            checker=lambda cycle, outs: "always wrong",
        )
        result, = run_regression(cnt, [bench]).results
        assert not result.passed
        assert len(result.mismatches) == 3

    def test_reset_is_at_least_one_edge(self):
        with pytest.raises(ValueError):
            Testbench("zero", [{}], lambda c, o: None, reset_cycles=0)

    def test_random_stimulus_covers_inputs(self, lib):
        from repro.netlist import pipeline_block

        block = pipeline_block("p", lib, stages=1, width=6, cloud_gates=20,
                               seed=1)
        stim = random_stimulus(block, cycles=8, seed=2)
        assert len(stim) == 8
        assert all(f"in{i}" in stim[0] for i in range(6))
        assert "clk" not in stim[0]
        assert "rst_n" not in stim[0]


class TestRegression:
    def test_suite_runs_all(self, cnt):
        benches = [
            Testbench(f"b{i}", [{} for _ in range(4)],
                      lambda c, o: None)
            for i in range(3)
        ]
        report = run_regression(cnt, benches)
        assert report.clean
        assert report.passed == 3
        assert "3/3 pass" in report.format_report()

    def test_per_bench_durations_recorded(self, cnt):
        benches = [
            Testbench(f"b{i}", [{} for _ in range(4)],
                      lambda c, o: None)
            for i in range(2)
        ]
        report = run_regression(cnt, benches)
        assert all(r.duration_s > 0 for r in report.results)
        assert report.total_duration_s == pytest.approx(
            sum(r.duration_s for r in report.results))
        text = report.format_report()
        assert "ms" in text
        assert "all 2 benches passed" in text

    def test_failure_summary_footer_names_failures(self, cnt):
        benches = [
            Testbench("good", [{} for _ in range(2)], lambda c, o: None),
            Testbench("bad", [{} for _ in range(2)],
                      lambda c, o: "wrong"),
        ]
        report = run_regression(cnt, benches)
        text = report.format_report()
        assert "FAILURES (1): bad" in text

    def test_failure_footer_truncates_long_lists(self, cnt):
        benches = [
            Testbench(f"bad{i}", [{}], lambda c, o: "wrong")
            for i in range(7)
        ]
        text = run_regression(cnt, benches).format_report()
        assert "FAILURES (7):" in text
        assert "+2 more" in text

    def test_parallel_suite_matches_serial_verdicts(self, cnt):
        benches = [
            Testbench(f"b{i}", [{} for _ in range(4)],
                      counting_checker)
            for i in range(3)
        ]
        serial = run_regression(cnt, benches, workers=1)
        parallel = run_regression(cnt, benches, workers=2)
        assert [r.name for r in parallel.results] == \
            [r.name for r in serial.results]
        assert [r.passed for r in parallel.results] == \
            [r.passed for r in serial.results]

    def test_cross_sim_consistent_with_reset(self, cnt):
        """E13 resolution: benches that reset properly agree across
        dialects."""
        benches = [
            Testbench("count_check", [{} for _ in range(8)],
                      counting_checker, reset_cycles=1),
        ]
        cross = cross_simulator_check(cnt, benches)
        assert cross.consistent, cross.format_report()

    def test_cross_sim_detects_resetless_bench(self, cnt):
        """E13 failure mode: a bench that never asserts reset gives
        different traces under 4-state vs 2-state simulation."""
        benches = [
            Testbench("no_reset", [{"rst_n": 1} for _ in range(8)],
                      lambda c, o: None, reset_port=None),
        ]
        cross = cross_simulator_check(cnt, benches)
        assert not cross.consistent
        assert cross.total_trace_mismatches > 0


class TestToggleCoverage:
    """Fractions are pinned exactly to the interpreted simulator's
    values, which the compiled engine must reproduce."""

    def test_counter_fully_toggled_by_long_run(self, lib):
        cnt = counter("cnt", lib, width=3)
        bench = Testbench("long", [{} for _ in range(16)],
                          lambda c, o: None)
        assert toggle_coverage(cnt, [bench]) == 1.0

    def test_short_run_toggles_less(self, lib):
        cnt = counter("cnt", lib, width=6)
        short = Testbench("short", [{}], lambda c, o: None)
        long = Testbench("long", [{} for _ in range(64)],
                         lambda c, o: None)
        # One sampled edge cannot show a net at both levels.
        assert toggle_coverage(cnt, [short]) == 0.0
        assert toggle_coverage(cnt, [long]) == 1.0
        assert toggle_coverage(cnt, [short, long]) == 1.0

    def test_insufficient_bench_detected(self, lib):
        """The paper's 'in-sufficient test benches' quantified: a
        stimulus that holds inputs constant leaves logic untoggled."""
        from repro.netlist import pipeline_block

        block = pipeline_block("p", lib, stages=1, width=6, cloud_gates=30,
                               seed=3)
        constant = Testbench(
            "constant",
            [{f"in{i}": 0 for i in range(6)} for _ in range(16)],
            lambda c, o: None,
        )
        varied = Testbench(
            "varied", random_stimulus(block, cycles=16, seed=4),
            lambda c, o: None,
        )
        assert toggle_coverage(block, [constant]) == 0.0
        assert toggle_coverage(block, [varied]) == 0.875
        assert toggle_coverage(block, [constant, varied]) == 0.875

    def test_suite_fractions_pinned_per_dialect(self, lib):
        """Benches of different lengths, with and without reset."""
        from repro.netlist import pipeline_block
        from repro.sim import VENDOR_B_SIM

        block = pipeline_block("blk", lib, stages=2, width=8,
                               cloud_gates=40, seed=5)
        suite = [
            Testbench(f"b{i}", random_stimulus(block, cycles=6 + 3 * i,
                                               seed=i),
                      lambda c, o: None)
            for i in range(3)
        ]
        no_reset = Testbench("nr", random_stimulus(block, cycles=5,
                                                   seed=9),
                             lambda c, o: None, reset_port=None)
        for config in (None, VENDOR_B_SIM):
            assert toggle_coverage(block, suite, config) == 103 / 112
            # Without a reset bench, rst_n counts toward the total.
            assert toggle_coverage(block, [no_reset], config) == 42 / 113
        assert toggle_coverage(block, suite[:1] + [no_reset]) == 94 / 112

    def test_scanned_block_holds_scan_ports_low(self, lib):
        """The scan enable and scan inputs of a scanned block are held
        low, as if every vector drove them low, not left floating."""
        from repro.dft import insert_scan
        from repro.netlist import pipeline_block
        from repro.netlist.clocks import scan_mode_inputs

        block = pipeline_block("blk", lib, stages=2, width=8,
                               cloud_gates=40, seed=5)
        scanned, _ = insert_scan(block, n_chains=2)
        suite = [
            Testbench(f"b{i}", random_stimulus(scanned, cycles=6 + 3 * i,
                                               seed=i),
                      lambda c, o: None)
            for i in range(3)
        ]
        low = dict.fromkeys(scan_mode_inputs(scanned), 0)
        written = [
            Testbench(bench.name, [{**v, **low} for v in bench.stimulus],
                      bench.checker)
            for bench in suite
        ]
        fraction = toggle_coverage(scanned, suite)
        assert fraction == toggle_coverage(scanned, written)
        assert fraction > 0.85
