"""Engine-equivalence tests: compiled bit-plane backend vs the
event-driven reference.

The compiled backend's whole contract is *bit identity*: any stimulus
(including X/Z inputs, scan shifting and mid-stream async resets),
either dialect, any lane count must reproduce the interpreted
simulator's traces, coverage databases and crossval verdicts exactly.
These tests enforce that with randomized netlists and stimulus.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coverage import spawn_test_seeds
from repro.coverage.closure import (
    ClosureConfig,
    close_coverage,
    simulate_lanes_with_coverage,
)
from repro.netlist import (
    Logic,
    Module,
    counter,
    make_default_library,
    pipeline_block,
)
from repro.oracles.coverage import simulate_with_coverage
from repro.oracles.verification import (
    observed_divergent_nets,
    run_testbench,
)
from repro.sim import (
    BatchSimulator,
    LogicSimulator,
    Trace,
    VENDOR_A_SIM,
    VENDOR_B_SIM,
    compile_module,
    diff_traces,
    lane_frames,
)
from repro.verification import cross_validate_divergence
from repro.verification.crossval import observed_divergent_nets_lanes
from repro.verification.regression import run_regression
from repro.verification.testbench import Testbench, random_stimulus

LEVELS = (Logic.ZERO, Logic.ONE, Logic.X, Logic.Z)
DIALECTS = (VENDOR_A_SIM, VENDOR_B_SIM)


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


def random_vectors(module, seed, cycles, *, scan_burst=False):
    """Random four-value stimulus over every non-clock input port.

    The reset port gets a guaranteed low pulse on cycle 0 and random
    values (including X/Z and fresh low pulses) later -- mid-stream
    async resets are exactly where settle-fixpoint bugs hide.  With
    ``scan_burst`` the scan enable toggles in bursts, covering shift
    and capture modes and the transitions between them.
    """
    rng = random.Random(seed)
    ports = [name for name, port in module.ports.items()
             if port.direction == "input" and name != "clk"]
    vectors = []
    for t in range(cycles):
        vector = {p: rng.choice(LEVELS) for p in ports
                  if rng.random() < 0.8}
        if t == 0:
            vector["rst_n"] = Logic.ZERO
        elif "rst_n" in module.ports:
            vector.setdefault("rst_n", Logic.ONE)
        if scan_burst and "scan_en" in module.ports:
            vector["scan_en"] = (Logic.ONE if (t // 5) % 2 else
                                 Logic.ZERO)
        vectors.append(vector)
    return vectors


def assert_traces_equal(a: Trace, b: Trace) -> None:
    assert a.signals == b.signals
    assert a.samples == b.samples


def lane_state(batch, lane):
    """One lane's net values and flop states, decoded from the batch's
    bit planes: Z where the Z refinement is set, else 1, else 0, else
    X."""
    word, bit = divmod(lane, 64)

    def column(words):
        return ((words[:, word] >> np.uint64(bit)) & np.uint64(1)) == 1

    def decode(names, is0, is1, isz):
        codes = np.where(column(isz), 3, np.where(
            column(is1), 1, np.where(column(is0), 0, 2)))
        return {name: LEVELS[code]
                for name, code in zip(names, codes.tolist())}

    program = batch.program
    is0, is1 = batch.net_value_words()
    flop0, flop1 = batch.flop_state_words()
    return (
        decode(program.net_names, is0, is1,
               batch._znet[: program.n_nets]),
        decode(program.flop_names, flop0, flop1, batch._flopz),
    )


class TestLaneEquivalence:
    """Randomized netlists x dialects x stimulus, any lane count."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        stages=st.integers(min_value=1, max_value=3),
        width=st.integers(min_value=2, max_value=6),
        lanes=st.sampled_from((1, 3, 64, 67)),
    )
    def test_random_pipeline_traces_identical(self, seed, stages,
                                              width, lanes):
        library = make_default_library(0.25)
        module = pipeline_block("rnd", library, stages=stages,
                                width=width, cloud_gates=20, seed=seed)
        for config in DIALECTS:
            stimuli = [random_vectors(module, seed * 100 + lane,
                                      10 + lane % 4)
                       for lane in range(lanes)]
            traces = BatchSimulator(module, config, lanes=lanes).run(
                stimuli, clock_port="clk")
            # Spot-check a deterministic subset of lanes against the
            # reference (first, last, and a middle lane); checking all
            # 67 lanes of every example would dominate the suite.
            check = sorted({0, lanes // 2, lanes - 1})
            for lane in check:
                ref = LogicSimulator(module, config).run(
                    stimuli[lane], clock_port="clk")
                assert_traces_equal(traces[lane], ref)

    def test_all_lanes_all_nets_cycle_by_cycle(self, lib):
        module = pipeline_block("dsc_rep", lib, stages=3, width=24,
                                cloud_gates=120, seed=3)
        lanes = 5
        for config in DIALECTS:
            refs = [LogicSimulator(module, config) for _ in range(lanes)]
            batch = BatchSimulator(module, config, lanes=lanes)
            streams = [random_vectors(module, 40 + lane, 25)
                       for lane in range(lanes)]
            for t in range(25):
                for lane, ref in enumerate(refs):
                    ref.set_inputs(streams[lane][t])
                    ref.clock_edge("clk")
                batch.set_lane_inputs([s[t] for s in streams])
                batch.clock_edge("clk")
                for lane, ref in enumerate(refs):
                    net_values, flop_state = lane_state(batch, lane)
                    assert net_values == ref.net_values
                    assert flop_state == ref.flop_state
                    assert batch.cycle == ref.cycle

    def test_scan_shift_equivalence(self, lib):
        from repro.dft import insert_scan

        module = pipeline_block("blk", lib, stages=2, width=8,
                                cloud_gates=40, seed=5)
        scanned, _report = insert_scan(module)
        for config in DIALECTS:
            stimuli = [random_vectors(scanned, 7 + lane, 30,
                                      scan_burst=True)
                       for lane in range(6)]
            traces = BatchSimulator(scanned, config, lanes=6).run(
                stimuli, clock_port="clk",
                watch=tuple(sorted(scanned.nets)))
            for lane, seq in enumerate(stimuli):
                ref = LogicSimulator(scanned, config).run(
                    seq, clock_port="clk",
                    watch=tuple(sorted(scanned.nets)))
                assert_traces_equal(traces[lane], ref)

    def test_counter_counts_compiled(self, lib):
        module = counter("cnt", lib, width=4)
        sim = BatchSimulator(module, lanes=2)
        sim.set_inputs({"clk": 0, "rst_n": 0})
        sim.evaluate()
        sim.set_input("rst_n", 1)
        from repro.netlist import bits_to_int
        for expected in range(1, 9):
            sim.clock_edge("clk")
            for lane in (0, 1):
                assert bits_to_int(
                    sim.read_vector("count", 4, lane)) == expected % 16

    def test_z_capture_matches_event(self, lib):
        # A flop whose D input floats captures Z in the event engine
        # and must do so in the compiled engine too.
        m = Module("zcap", lib)
        for p, d in (("clk", "input"), ("rst_n", "input"),
                     ("d", "input"), ("q", "output")):
            m.add_port(p, d)
        m.add_instance("f0", "DFFR",
                       {"CK": "clk", "RN": "rst_n", "D": "d", "Q": "q"})
        for config in DIALECTS:
            ref = LogicSimulator(m, config)
            bat = BatchSimulator(m, config, lanes=1)
            for sim in (ref, bat):
                sim.set_inputs({"clk": 0, "rst_n": 1, "d": Logic.Z})
                sim.clock_edge("clk")
            assert ref.read("q") is Logic.Z
            assert bat.read("q", 0) is Logic.Z
            assert lane_state(bat, 0)[1]["f0"] is Logic.Z

    def test_self_clearing_reset_matches_event(self, lib):
        # A reset net derived from the flop's own output exercises the
        # async-reset settle fixpoint in both engines.
        m = Module("selfrst", lib)
        m.add_port("clk", "input")
        m.add_port("q", "output")
        m.add_instance("f0", "DFFR",
                       {"CK": "clk", "RN": "qb", "D": "qb", "Q": "q"})
        m.add_instance("g0", "INV_X1", {"A": "q", "Y": "qb"})
        for config in DIALECTS:
            ref = LogicSimulator(m, config)
            bat = BatchSimulator(m, config, lanes=2)
            for _ in range(4):
                ref.clock_edge("clk")
                bat.clock_edge("clk")
                for net in m.nets:
                    assert bat.read(net, 0) is ref.read(net)
                    assert bat.read(net, 1) is ref.read(net)


class TestClockResolution:
    """Regression tests for the clock-matching fix (satellite 1)."""

    def build_buffered_clock(self, lib):
        m = Module("bufclk", lib)
        for p, d in (("clk", "input"), ("rst_n", "input"),
                     ("d", "input"), ("q", "output")):
            m.add_port(p, d)
        m.add_instance("b0", "BUF_X1", {"A": "clk", "Y": "clk_buf"})
        m.add_instance("b1", "BUF_X1", {"A": "clk_buf", "Y": "clk_leaf"})
        m.add_instance("f0", "DFFR", {"CK": "clk_leaf", "RN": "rst_n",
                                      "D": "d", "Q": "q"})
        return m

    def build_gated_clock(self, lib):
        m = Module("icgclk", lib)
        for p, d in (("clk", "input"), ("rst_n", "input"),
                     ("en", "input"), ("d", "input"), ("q", "output")):
            m.add_port(p, d)
        m.add_instance("icg", "ICG",
                       {"CK": "clk", "EN": "en", "GCK": "gclk"})
        m.add_instance("f0", "DFFR", {"CK": "gclk", "RN": "rst_n",
                                      "D": "d", "Q": "q"})
        return m

    @pytest.mark.parametrize("engine", ["event", "compiled"])
    def test_buffered_clock_flop_clocks(self, lib, engine):
        # Before the fix the event engine compared the clock net to the
        # port *name*, so a flop behind a clock buffer never clocked.
        m = self.build_buffered_clock(lib)
        if engine == "event":
            sim = LogicSimulator(m)
        else:
            sim = BatchSimulator(m, lanes=1)
        sim.set_inputs({"clk": 0, "rst_n": 1, "d": 1})
        sim.clock_edge("clk")
        assert sim.read("q") is Logic.ONE

    @pytest.mark.parametrize("engine", ["event", "compiled"])
    def test_gated_clock_enable_semantics(self, lib, engine):
        m = self.build_gated_clock(lib)
        if engine == "event":
            sim = LogicSimulator(m)
        else:
            sim = BatchSimulator(m, lanes=1)
        # Reset to a known 0, then clock with EN=1: captures.
        sim.set_inputs({"clk": 0, "rst_n": 0, "en": 1, "d": 1})
        sim.evaluate()
        sim.set_input("rst_n", 1)
        sim.clock_edge("clk")
        assert sim.read("q") is Logic.ONE
        # EN=0: gated off, holds despite d=0.
        sim.set_inputs({"en": 0, "d": 0})
        sim.clock_edge("clk")
        assert sim.read("q") is Logic.ONE
        # EN=X: whether the edge fired is unknown -> state X.
        sim.set_input("en", Logic.X)
        sim.clock_edge("clk")
        assert sim.read("q") is Logic.X

    def test_unrelated_clock_port_leaves_flop_alone(self, lib):
        m = self.build_buffered_clock(lib)
        m.add_port("other_clk", "input")
        for engine_sim in (LogicSimulator(m),
                           BatchSimulator(m, lanes=1)):
            engine_sim.set_inputs(
                {"clk": 0, "other_clk": 0, "rst_n": 1, "d": 1})
            engine_sim.clock_edge("other_clk")
            assert engine_sim.read("q") is Logic.X  # untouched power-on


class TestCoverageDatabases:
    def test_closure_db_identical_across_engines_and_workers(self):
        from repro.coverage.closure import dsc_closure_bench

        module, covergroup, spec = dsc_closure_bench()
        # Every lane's record equals the interpreted oracle's run of
        # the same spawned seed stream.
        seeds = spawn_test_seeds(0, 5)
        names = [f"t{i}" for i in range(len(seeds))]
        lanes = simulate_lanes_with_coverage(
            module, covergroup, names=names, seed_seqs=seeds,
            cycles=16, spec=spec, config=VENDOR_A_SIM,
        )
        for name, seed_seq, lane in zip(names, seeds, lanes):
            oracle = simulate_with_coverage(
                module, covergroup, name=name,
                rng=np.random.default_rng(seed_seq), cycles=16,
                spec=spec, config=VENDOR_A_SIM,
            )
            assert lane.to_dict() == oracle.to_dict()

        config = ClosureConfig(max_rounds=2, tests_per_round=5,
                               cycles_per_test=16)
        jsons = [
            close_coverage(module, covergroup, config=config, spec=spec,
                           workers=workers).database.to_json()
            for workers in (1, 2, 5)
        ]
        # workers changes the lane packing (1 -> one chunk of 5
        # lanes, 2 -> chunks of 3+2, 5 -> one lane each): the
        # canonical DB must not notice.
        assert len(set(jsons)) == 1


class TestCrossvalVerdicts:
    def test_lane_union_equals_event_union(self, lib):
        module = pipeline_block("blk", lib, stages=2, width=6,
                                cloud_gates=30, seed=9)
        seeds = (0, 1, 2)
        union = set()
        for seed in seeds:
            union |= observed_divergent_nets(module, seed=seed)
        assert observed_divergent_nets_lanes(module, seeds=seeds) == union

    def test_cross_validate_engine_identical(self, lib):
        # A flop with no reset powers up X under dialect A and 0 under
        # dialect B: guaranteed real divergence to detect.
        m = Module("uninit", lib)
        for p, d in (("clk", "input"), ("d", "input"), ("q", "output")):
            m.add_port(p, d)
        m.add_instance("f0", "DFF", {"CK": "clk", "D": "d", "Q": "q"})
        validation = cross_validate_divergence(m)
        union = set()
        for seed in (0, 1, 2, 3):  # the default seeds
            union |= observed_divergent_nets(m, seed=seed)
        assert set(validation.observed) == union
        assert validation.observed  # the divergence is really seen


class TestRegressionEngine:
    def test_suite_identical_across_engines(self, lib):
        module = pipeline_block("blk", lib, stages=2, width=8,
                                cloud_gates=40, seed=5)

        def null_checker(cycle, outputs):
            return None

        def flags_cycle_3(cycle, outputs):
            return f"saw {outputs}" if cycle == 3 else None

        benches = [
            Testbench(name=f"tb{i}",
                      stimulus=random_stimulus(module, cycles=12 + i,
                                               seed=i),
                      checker=null_checker)
            for i in range(5)
        ]
        # One sweep mixing reset preambles of 1 and 2 edges, a bench
        # without reset, two watch lists and a failing checker.
        outputs = sorted(name for name, port in module.ports.items()
                         if port.direction == "output")
        few = tuple(outputs[:3])
        mixed = [
            Testbench("r1", random_stimulus(module, cycles=10, seed=7),
                      null_checker),
            Testbench("r2", random_stimulus(module, cycles=9, seed=8),
                      flags_cycle_3, reset_cycles=2),
            Testbench("nr", random_stimulus(module, cycles=8, seed=9),
                      flags_cycle_3, reset_port=None),
            Testbench("w1", random_stimulus(module, cycles=11, seed=10),
                      flags_cycle_3, watch=few),
            Testbench("w2", random_stimulus(module, cycles=7, seed=11),
                      null_checker, reset_cycles=2, watch=few),
        ]
        for suite in (benches, mixed):
            for config in DIALECTS:
                oracle = [run_testbench(bench, module, config)
                          for bench in suite]
                report = run_regression(module, suite, config=config,
                                        workers=1)
                assert len(report.results) == len(oracle)
                for a, b in zip(oracle, report.results):
                    assert a.name == b.name
                    assert a.passed == b.passed
                    assert a.mismatches == b.mismatches
                    assert_traces_equal(a.trace, b.trace)
        assert not report.results[1].passed
        assert report.results[1].mismatches[0].startswith("cycle 3: ")


class TestRunOnEdge:
    def test_called_once_after_each_edge(self, lib):
        module = counter("cnt", lib, width=3)
        sim = BatchSimulator(module, lanes=2)
        seen = []

        def on_edge():
            seen.append((sim.cycle, sim.read("count0", 0)))

        frames = [lane_frames(module, [{}] * 5),
                  lane_frames(module, [{}] * 3)]
        traces = sim.run(frames, watch=["count0"], on_edge=on_edge)
        # One call per edge of the longest lane, each after its edge.
        assert [cycle for cycle, _ in seen] == [1, 2, 3, 4, 5, 6]
        assert [value for _, value in seen] == traces[0].column("count0")


class TestProgramCache:
    def test_same_fingerprint_and_config_share_a_program(self, lib):
        a = pipeline_block("blk", lib, stages=2, width=4,
                           cloud_gates=20, seed=1)
        sim1 = BatchSimulator(a, VENDOR_A_SIM, lanes=2)
        sim2 = BatchSimulator(a, VENDOR_A_SIM, lanes=64)
        assert sim1.program is sim2.program
        assert compile_module(a, VENDOR_A_SIM) is sim1.program

    def test_config_and_module_changes_recompile(self, lib):
        a = pipeline_block("blk", lib, stages=2, width=4,
                           cloud_gates=20, seed=1)
        b = pipeline_block("blk", lib, stages=2, width=4,
                           cloud_gates=20, seed=2)
        assert (compile_module(a, VENDOR_A_SIM)
                is not compile_module(a, VENDOR_B_SIM))
        assert (compile_module(a, VENDOR_A_SIM)
                is not compile_module(b, VENDOR_A_SIM))


class TestTraceHelpers:
    def test_column_and_unknown_signal(self):
        trace = Trace(signals=("a", "b"))
        trace.record({"a": Logic.ONE, "b": Logic.ZERO})
        trace.record({"a": Logic.X, "b": Logic.ONE})
        assert trace.column("b") == [Logic.ZERO, Logic.ONE]
        with pytest.raises(ValueError):
            trace.column("missing")

    def test_diff_traces_limit(self):
        a = Trace(signals=("a",))
        b = Trace(signals=("a",))
        for _ in range(100):
            a.record({"a": Logic.ONE})
            b.record({"a": Logic.ZERO})
        assert len(diff_traces(a, b)) == 100
        assert len(diff_traces(a, b, limit=7)) == 7


class TestPerfAccounting:
    def test_cycle_counters_truthful_per_engine(self, lib):
        from repro.perf import REGISTRY

        module = counter("cnt", lib, width=3)
        REGISTRY.reset()
        event = LogicSimulator(module)
        event.set_inputs({"clk": 0, "rst_n": 1})
        for _ in range(4):
            event.clock_edge("clk")
        compiled = BatchSimulator(module, lanes=10)
        compiled.set_inputs({"clk": 0, "rst_n": 1})
        for _ in range(4):
            compiled.clock_edge("clk")
        stages = REGISTRY.as_dict()
        assert stages["sim.event.edge"]["cycles"] == 4
        # compiled cycles count lane-cycles: 4 edges x 10 lanes.
        assert stages["sim.compiled.edge"]["cycles"] == 40
        REGISTRY.reset()


class TestBatchApi:
    def test_bad_inputs_raise_like_event(self, lib):
        module = counter("cnt", lib, width=2)
        sim = BatchSimulator(module, lanes=2)
        with pytest.raises(KeyError):
            sim.set_input("nope", 1)
        with pytest.raises(KeyError):
            sim.read("no_such_net")
        with pytest.raises(ValueError):
            sim.set_input("rst_n", [1, 0, 1])  # wrong lane count
        with pytest.raises(ValueError):
            BatchSimulator(module, lanes=0)

    def test_per_lane_scalar_and_sequence_inputs_agree(self, lib):
        module = counter("cnt", lib, width=2)
        a = BatchSimulator(module, lanes=3)
        b = BatchSimulator(module, lanes=3)
        a.set_input("rst_n", [0, 1, Logic.X])
        b.set_lane_inputs([{"rst_n": 0}, {"rst_n": 1},
                           {"rst_n": Logic.X}])
        a.evaluate()
        b.evaluate()
        for lane in range(3):
            assert a.read("rst_n", lane) is b.read("rst_n", lane)

    def test_divergence_words_matches_event_comparison(self, lib):
        module = counter("cnt", lib, width=2)
        a = BatchSimulator(module, VENDOR_A_SIM, lanes=1)
        b = BatchSimulator(module, VENDOR_B_SIM, lanes=1)
        ev_a = LogicSimulator(module, VENDOR_A_SIM)
        ev_b = LogicSimulator(module, VENDOR_B_SIM)
        for sim in (a, b, ev_a, ev_b):
            sim.set_inputs({"clk": 0, "rst_n": 0})
            sim.evaluate()
        diff = a.divergence_words(b)
        names = a.program.net_names
        diverged = {names[i] for i in np.flatnonzero(diff.any(axis=1))}
        ref = {net for net in module.nets
               if ev_a.read(net) is not ev_b.read(net)}
        assert diverged == ref


class TestFaultGradeEquivalence:
    """The same bit-identity contract, extended to the fault engine:
    the compiled fault program shares this backend's levelization, so
    grading many faulty machines as overlay lanes must reproduce the
    big-int oracle exactly -- including on scan-muxed nets and nets
    the functional engine treats as floatable."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        stages=st.integers(min_value=1, max_value=3),
        width=st.integers(min_value=2, max_value=5),
        n_chains=st.integers(min_value=1, max_value=2),
    )
    def test_random_scanned_blocks_grade_identically(self, seed, stages,
                                                     width, n_chains):
        from repro.dft import (
            CombinationalView,
            collapse_faults,
            enumerate_faults,
            insert_scan,
            random_pattern_fault_sim,
        )
        from repro.oracles.faultsim import bigint_fault_sim

        library = make_default_library(0.25)
        module = pipeline_block("rnd", library, stages=stages,
                                width=width, cloud_gates=15, seed=seed)
        scanned, _ = insert_scan(module, n_chains=n_chains)
        view = CombinationalView(scanned)
        faults = collapse_faults(scanned, enumerate_faults(scanned))
        ref, result = (
            simulate(view, faults, rng=np.random.default_rng(seed),
                     max_patterns=128, batch_size=32)
            for simulate in (bigint_fault_sim, random_pattern_fault_sim)
        )
        assert result.detected == ref.detected
        assert result.coverage_curve == ref.coverage_curve
        assert result.detection_index == ref.detection_index
        assert result.effective_patterns == ref.effective_patterns
