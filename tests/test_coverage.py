"""Tests for the repro.coverage subsystem.

Covers the functional-coverage primitives, the structural observer
(the oracle of word-mask coverage), constrained-random stimulus, the mergeable coverage database, the
closure loop, and the SoC transaction covergroup.
"""

import numpy as np
import pytest

from repro.netlist import Logic, counter, make_default_library, pipeline_block
from repro.sim import LogicSimulator
from repro.coverage import (
    CoverBin,
    CoverCross,
    CoverGroup,
    CoverageDatabase,
    Coverpoint,
    PortConstraint,
    StimulusSpec,
    TestCoverage,
    ClosureConfig,
    close_coverage,
    constrained_stimulus,
    decode_signals,
    dsc_closure_bench,
    range_bins,
    spawn_test_seeds,
    value_bins,
)
from repro.oracles.coverage import StructuralObserver, simulate_with_coverage


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


@pytest.fixture(scope="module")
def cnt(lib):
    return counter("cnt", lib, width=4)


@pytest.fixture(scope="module")
def block(lib):
    return pipeline_block("blk", lib, stages=1, width=6, cloud_gates=20,
                          seed=1)


class TestBins:
    def test_value_bin_matches_single_value(self):
        b = CoverBin("five", 5, 5)
        assert b.matches(5)
        assert not b.matches(4) and not b.matches(6)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            CoverBin("bad", 3, 1)

    def test_value_bins_named_after_values(self):
        bins = value_bins([0, 2, 7])
        assert [b.name for b in bins] == ["0", "2", "7"]
        assert all(b.lo == b.hi for b in bins)

    def test_range_bins_partition_exactly(self):
        bins = range_bins(0, 15, 4)
        assert len(bins) == 4
        covered = [v for b in bins for v in range(b.lo, b.hi + 1)]
        assert covered == list(range(16))

    def test_range_bins_reject_too_many(self):
        with pytest.raises(ValueError):
            range_bins(0, 2, 4)


class TestCoverpoint:
    def test_bin_for_picks_first_match(self):
        point = Coverpoint("p", range_bins(0, 15, 4))
        assert point.bin_for(0).name == "[0:3]"
        assert point.bin_for(15).name == "[12:15]"
        assert point.bin_for(99) is None

    def test_duplicate_bin_names_rejected(self):
        with pytest.raises(ValueError):
            Coverpoint("p", (CoverBin("a", 0, 0), CoverBin("a", 1, 1)))

    def test_empty_bins_rejected(self):
        with pytest.raises(ValueError):
            Coverpoint("p", ())


class TestCoverGroup:
    def group(self):
        return CoverGroup(
            "g",
            coverpoints=(
                Coverpoint("x", value_bins([0, 1])),
                Coverpoint("y", value_bins([0, 1])),
            ),
            crosses=(CoverCross("xy", "x", "y"),),
        )

    def test_bin_ids_fully_qualified(self):
        ids = self.group().bin_ids()
        assert "g.x.0" in ids and "g.y.1" in ids
        assert "g.xy.0*1" in ids
        assert len(ids) == 2 + 2 + 4

    def test_sample_counts_point_and_cross(self):
        hits = {}
        self.group().sample({"x": 0, "y": 1}, hits)
        assert hits == {"g.x.0": 1, "g.y.1": 1, "g.xy.0*1": 1}

    def test_sample_skips_absent_points_and_their_crosses(self):
        hits = {}
        self.group().sample({"x": 1}, hits)
        assert hits == {"g.x.1": 1}

    def test_out_of_bin_value_not_counted(self):
        hits = {}
        self.group().sample({"x": 7, "y": 0}, hits)
        assert "g.x.7" not in hits
        assert hits == {"g.y.0": 1}

    def test_coverage_fraction_with_at_least(self):
        group = CoverGroup(
            "g", coverpoints=(Coverpoint("x", value_bins([0, 1])),),
            at_least=2,
        )
        hits = {}
        group.sample({"x": 0}, hits)
        assert group.coverage(hits) == 0.0
        group.sample({"x": 0}, hits)
        assert group.coverage(hits) == 0.5

    def test_cross_over_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            CoverGroup(
                "g", coverpoints=(Coverpoint("x", value_bins([0])),),
                crosses=(CoverCross("bad", "x", "nope"),),
            )

    def test_decode_signals_refuses_unknowns(self):
        values = {"a": Logic.ONE, "b": Logic.ZERO, "c": Logic.X}
        assert decode_signals(("a", "b"), values.__getitem__) == 1
        assert decode_signals(("b", "a"), values.__getitem__) == 2
        assert decode_signals(("a", "c"), values.__getitem__) is None


class TestStructuralObserver:
    def run_counter(self, cnt, cycles=16):
        sim = LogicSimulator(cnt)
        observer = StructuralObserver(cnt)
        sim.set_inputs({"clk": 0, "rst_n": 0})
        sim.evaluate()
        sim.clock_edge("clk")
        observer(sim)
        sim.set_input("rst_n", 1)
        for _ in range(cycles):
            sim.clock_edge("clk")
            observer(sim)
        return sim, observer

    def test_counter_run_toggles_low_bits(self, cnt):
        _, observer = self.run_counter(cnt)
        assert observer.toggle_coverage() > 0.5
        assert observer.edges_observed == 17

    def test_clock_and_reset_excluded_from_universe(self, cnt):
        observer = StructuralObserver(cnt)
        assert "clk" not in observer.countable
        assert "rst_n" not in observer.countable

    def test_flop_activity_and_reset_seen(self, cnt):
        _, observer = self.run_counter(cnt)
        assert observer.active_flops
        assert observer.reset_exercised_flops == \
            observer.reset_flop_universe


class TestConstrainedStimulus:
    def test_vectors_cover_data_ports_only(self, block):
        rng = np.random.default_rng(0)
        stim = constrained_stimulus(block, cycles=8, rng=rng)
        assert len(stim) == 8
        assert all(set(v) == {f"in{i}" for i in range(6)} for v in stim)

    def test_deterministic_for_equal_seed(self, block):
        a = constrained_stimulus(block, cycles=16,
                                 rng=np.random.default_rng(7))
        b = constrained_stimulus(block, cycles=16,
                                 rng=np.random.default_rng(7))
        assert a == b

    def test_one_weight_extremes(self, block):
        spec = StimulusSpec(default=PortConstraint(one_weight=1.0))
        stim = constrained_stimulus(block, cycles=6,
                                    rng=np.random.default_rng(0), spec=spec)
        assert all(v == 1 for vec in stim for v in vec.values())
        spec = StimulusSpec(default=PortConstraint(one_weight=0.0))
        stim = constrained_stimulus(block, cycles=6,
                                    rng=np.random.default_rng(0), spec=spec)
        assert all(v == 0 for vec in stim for v in vec.values())

    def test_hold_produces_runs(self, block):
        spec = StimulusSpec(default=PortConstraint(hold_min=4, hold_max=4))
        stim = constrained_stimulus(block, cycles=12,
                                    rng=np.random.default_rng(3), spec=spec)
        column = [vec["in0"] for vec in stim]
        for start in (0, 4, 8):
            assert len(set(column[start:start + 4])) == 1

    def test_invalid_constraints_rejected(self):
        with pytest.raises(ValueError):
            PortConstraint(one_weight=1.5)
        with pytest.raises(ValueError):
            PortConstraint(hold_min=0)
        with pytest.raises(ValueError):
            PortConstraint(hold_min=3, hold_max=2)

    def test_spawn_offset_matches_absolute_index(self):
        ahead = spawn_test_seeds(42, 6)
        offset = spawn_test_seeds(42, 3, spawn_offset=3)
        for a, b in zip(ahead[3:], offset):
            assert np.random.default_rng(a).integers(1 << 30) == \
                np.random.default_rng(b).integers(1 << 30)


class TestDatabase:
    def db(self):
        return CoverageDatabase(
            "d",
            net_universe=("n1", "n2", "n3"),
            flop_universe=("f1",),
            reset_flop_universe=("f1",),
            bin_universe=("g.x.0", "g.x.1"),
        )

    def record(self, name, nets=(), half=(), bins=()):
        return TestCoverage(
            name=name, cycles=4,
            toggled=frozenset(nets), half_toggled=frozenset(half),
            active_flops=frozenset(["f1"] if nets else []),
            reset_flops=frozenset(["f1"] if nets else []),
            bin_hits={b: 1 for b in bins},
        )

    def test_universe_from_module(self, cnt):
        from repro.dft import insert_scan

        scanned, _ = insert_scan(cnt, n_chains=2)
        for module in (cnt, scanned):
            db = CoverageDatabase.for_module(module)
            observer = StructuralObserver(module)
            assert set(db.net_universe) == set(observer.countable)
            assert set(db.flop_universe) == set(observer.flop_universe)
        assert "scan_in1" not in db.net_universe

    def test_duplicate_test_name_rejected(self):
        db = self.db()
        db.add_test(self.record("t"))
        with pytest.raises(ValueError):
            db.add_test(self.record("t"))

    def test_aggregates_union_over_tests(self):
        db = self.db()
        db.add_test(self.record("a", nets=("n1",), bins=("g.x.0",)))
        db.add_test(self.record("b", nets=("n2",), bins=("g.x.1",)))
        assert db.toggled_nets == {"n1", "n2"}
        assert db.toggle_coverage == pytest.approx(2 / 3)
        assert db.functional_coverage == 1.0
        assert db.flop_reset_coverage == 1.0

    def test_merge_requires_equal_universe(self):
        db = self.db()
        other = CoverageDatabase("d", net_universe=("n9",))
        with pytest.raises(ValueError):
            db.merge(other)

    def test_merge_folds_tests_in(self):
        a, b = self.db(), self.db()
        a.add_test(self.record("t1", nets=("n1",)))
        b.add_test(self.record("t2", nets=("n2",)))
        a.merge(b)
        assert set(a.tests) == {"t1", "t2"}

    def test_json_roundtrip_and_order_independence(self):
        forward, backward = self.db(), self.db()
        t1 = self.record("t1", nets=("n1",), bins=("g.x.0",))
        t2 = self.record("t2", nets=("n2",))
        forward.add_test(t1)
        forward.add_test(t2)
        backward.add_test(t2)
        backward.add_test(t1)
        assert forward.to_json() == backward.to_json()
        restored = CoverageDatabase.from_json(forward.to_json())
        assert restored.to_json() == forward.to_json()
        assert restored.toggled_nets == forward.toggled_nets

    def test_grading_ranks_incremental_gain(self):
        db = self.db()
        db.add_test(self.record("small", nets=("n1",)))
        db.add_test(self.record("big", nets=("n1", "n2", "n3")))
        db.add_test(self.record("dup", nets=("n2",)))
        grades = db.grade_tests()
        assert grades[0].name == "big"
        assert grades[0].new_items > grades[1].new_items
        assert db.minimize_suite() == ["big"]

    def test_holes_rank_near_misses_first(self):
        db = self.db()
        db.add_test(self.record("t", nets=("n1",), half=("n2",),
                                bins=("g.x.0",)))
        holes = db.holes()
        assert holes[0].near_miss
        assert holes[0].name == "n2"
        names = {(h.kind, h.name) for h in holes}
        assert ("bin", "g.x.1") in names
        assert ("net", "n3") in names

    def test_format_summary_mentions_counts(self):
        db = self.db()
        db.add_test(self.record("t", nets=("n1",)))
        summary = db.format_summary()
        assert "1 tests" in summary
        assert "1/3 nets" in summary


class TestClosureLoop:
    def test_simulate_with_coverage_attributes_one_test(self, block):
        group = CoverGroup(
            "g",
            coverpoints=(Coverpoint("o", value_bins([0, 1]),
                                    signals=("out0",)),),
        )
        test = simulate_with_coverage(
            block, group, name="t0",
            rng=np.random.default_rng(0), cycles=16,
        )
        assert test.name == "t0"
        assert test.cycles == 16
        assert test.duration_s > 0
        assert test.toggled
        assert test.bin_hits

    def test_close_coverage_reaches_or_plateaus(self, block):
        config = ClosureConfig(toggle_target=0.5, tests_per_round=2,
                               cycles_per_test=16, max_rounds=4)
        result = close_coverage(block, seed=1, config=config)
        assert result.rounds
        assert result.stop_reason
        assert result.database.tests
        assert len(result.regression.results) == \
            sum(r.tests for r in result.rounds)

    def test_unreachable_target_plateaus(self, block):
        config = ClosureConfig(toggle_target=1.0, functional_target=1.0,
                               tests_per_round=2, cycles_per_test=8,
                               max_rounds=10, plateau_rounds=2)
        result = close_coverage(block, seed=1, config=config)
        assert not result.reached
        assert "plateau" in result.stop_reason or \
            result.stop_reason == "max_rounds"

    def test_report_carries_all_sections(self, block):
        config = ClosureConfig(toggle_target=0.5, tests_per_round=2,
                               cycles_per_test=16, max_rounds=2)
        result = close_coverage(block, seed=1, config=config)
        report = result.format_report()
        assert "Coverage closure" in report
        assert "graded tests" in report
        assert "round  tests" in report
        assert "Regression under" in report
        assert "benches passed" in report

    def test_dsc_bench_closes_with_defaults(self):
        module, covergroup, spec = dsc_closure_bench()
        result = close_coverage(module, covergroup, seed=1,
                                config=ClosureConfig(), spec=spec)
        assert result.reached, result.database.format_summary()
        assert result.database.functional_coverage == 1.0
        assert result.database.toggle_coverage >= \
            result.config.toggle_target


class TestSocCovergroup:
    def test_bin_ids_cover_slave_read_write_matrix(self):
        from repro.soc import SLAVE_ORDER, dsc_transaction_covergroup

        group = dsc_transaction_covergroup()
        ids = group.bin_ids()
        assert len(SLAVE_ORDER) == 8
        for slave in SLAVE_ORDER:
            assert f"dsc_bus.slave.{slave}" in ids
            assert f"dsc_bus.slave_x_kind.{slave}*read" in ids
            assert f"dsc_bus.slave_x_kind.{slave}*write" in ids

    def test_smoke_plus_capture_leave_write_holes(self):
        from repro.soc import (
            DscSoc,
            dsc_transaction_covergroup,
            sample_bus_coverage,
        )

        soc = DscSoc()
        assert soc.smoke_test()
        soc.capture_frame(frame_words=32)
        group = dsc_transaction_covergroup()
        hits = sample_bus_coverage(soc, group)
        assert hits["dsc_bus.slave.sys_regs"] >= 1
        assert hits["dsc_bus.slave_x_kind.sdram*write"] >= 1
        # the smoke test only reads the register blocks: write-side
        # cross bins remain holes (the paper's insufficient benches).
        assert "dsc_bus.slave_x_kind.lcd_regs*write" not in hits
        assert group.coverage(hits) < 1.0

    def test_decode_error_hits_response_point_only(self):
        from repro.soc import DscSoc, dsc_transaction_covergroup, \
            sample_bus_coverage

        soc = DscSoc()
        soc.bus.read("cpu", 0x7000_0000)  # unmapped
        hits = sample_bus_coverage(soc, dsc_transaction_covergroup())
        assert hits.get("dsc_bus.response.error", 0) >= 1
        assert not any(key.startswith("dsc_bus.slave.") for key in hits)
