"""Oracle-equivalence tests for the compiled fault-simulation backend.

The compiled engine's contract mirrors the compiled functional
backend's: *bit identity*.  For any netlist, dialect of scan
configuration, batch size and worker count,
:func:`random_pattern_fault_sim` must reproduce the big-int oracle's
:class:`FaultSimResult` (:mod:`repro.oracles.faultsim`) exactly --
detected set, coverage curve, effective patterns and
first-detecting-pattern attribution -- and :func:`run_atpg` must
return the same report as with the oracle kernel substituted,
grading of the SAT generator's patterns included.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.netlist import Module, make_default_library, pipeline_block
from repro.netlist.clocks import CLOCK_PORT, SCAN_ENABLE
from repro.netlist.generators import block_from_budget
from repro.dft import (
    CombinationalView,
    Fault,
    atpg,
    clear_fault_program_cache,
    collapse_faults,
    compile_fault_program,
    detection_masks,
    enumerate_faults,
    faultsim,
    grade_batch,
    insert_scan,
    random_pattern_fault_sim,
    run_atpg,
)
from repro.oracles.faultsim import (
    bigint_batch_hits,
    bigint_fault_sim,
    detect_mask,
    evaluate,
    random_patterns,
)


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


def result_digest(result):
    """Everything a FaultSimResult promises, as a comparable value."""
    return (
        result.total_faults,
        result.patterns_applied,
        result.detected,
        result.coverage_curve,
        result.effective_patterns,
        result.detection_index,
    )


def fault_sim_digests(module, *, seed, batch_size=64, max_patterns=256):
    """Production and oracle digests of one campaign."""
    view = CombinationalView(module)
    faults = collapse_faults(module, enumerate_faults(module))
    kw = dict(max_patterns=max_patterns, batch_size=batch_size)
    return {
        "compiled": result_digest(random_pattern_fault_sim(
            view, faults, rng=np.random.default_rng(seed), **kw)),
        "oracle": result_digest(bigint_fault_sim(
            view, faults, rng=np.random.default_rng(seed), **kw)),
    }


class TestEngineIdentity:
    """Randomized netlists x scan configs x batch sizes, against the
    oracle."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        stages=st.integers(min_value=1, max_value=3),
        width=st.integers(min_value=2, max_value=6),
        n_chains=st.integers(min_value=1, max_value=3),
        batch_size=st.sampled_from((17, 64, 256)),
    )
    def test_fault_sim_identical(self, seed, stages, width, n_chains,
                                 batch_size):
        library = make_default_library(0.25)
        module = pipeline_block("rnd", library, stages=stages,
                                width=width, cloud_gates=20, seed=seed)
        scanned, _ = insert_scan(module, n_chains=n_chains)
        digests = fault_sim_digests(scanned, seed=seed,
                                    batch_size=batch_size)
        assert digests["compiled"] == digests["oracle"]

    def test_worker_count_invariance(self, lib):
        module = pipeline_block("wrk", lib, stages=2, width=8,
                                cloud_gates=40, seed=5)
        scanned, _ = insert_scan(module, n_chains=2)
        view = CombinationalView(scanned)
        faults = collapse_faults(scanned, enumerate_faults(scanned))
        oracle = result_digest(bigint_fault_sim(
            view, faults, rng=np.random.default_rng(3),
            max_patterns=192, batch_size=64,
        ))
        for workers in (1, 2, 3):
            assert result_digest(random_pattern_fault_sim(
                view, faults, rng=np.random.default_rng(3),
                max_patterns=192, batch_size=64, workers=workers,
            )) == oracle, workers

    def test_unscanned_module_identical(self, lib):
        """Plain flops (perfect-scan model) grade identically too."""
        module = pipeline_block("plain", lib, stages=2, width=6,
                                cloud_gates=30, seed=9)
        digests = fault_sim_digests(module, seed=11)
        assert digests["compiled"] == digests["oracle"]

    def test_atpg_identical_across_engines(self, lib, monkeypatch):
        module = pipeline_block("atpg", lib, stages=2, width=6,
                                cloud_gates=30, seed=2)
        scanned, _ = insert_scan(module, n_chains=2)
        # The reference run grades on the oracle kernel in both phases.
        # 16 random patterns leave faults for the SAT generator, so its
        # pattern grading (one-pattern batches) runs on the oracle too.
        for max_random_patterns in (128, 16):
            widths = []

            def oracle_kernel(view, bits, width, remaining):
                widths.append(width)
                return bigint_batch_hits(view, bits, width, remaining)

            with monkeypatch.context() as patch:
                for owner in (faultsim, atpg):
                    patch.setattr(owner, "compiled_batch_hits",
                                  oracle_kernel)
                ref = run_atpg(scanned, seed=7,
                               max_random_patterns=max_random_patterns)
            other = run_atpg(scanned, seed=7,
                             max_random_patterns=max_random_patterns)
            assert widths.count(1) == ref.patterns_deterministic
            if max_random_patterns == 16:
                assert ref.patterns_deterministic > 0
            assert other.total_faults == ref.total_faults
            assert other.detected_random == ref.detected_random
            assert other.detected_deterministic == ref.detected_deterministic
            assert other.undetected == ref.undetected
            assert other.untestable == ref.untestable
            assert other.patterns_random == ref.patterns_random
            assert other.patterns_deterministic == ref.patterns_deterministic
            assert other.coverage_curve == ref.coverage_curve
            assert run_atpg(scanned, seed=7,
                            max_random_patterns=max_random_patterns,
                            workers=2) == ref


def counter_module(lib):
    module = Module("eng", lib)
    module.add_port("a", "input")
    module.add_port("b", "input")
    module.add_port("y", "output")
    module.add_instance("u0", "NAND2_X1", {"A": "a", "B": "b", "Y": "y"})
    return module


class TestTrickyFaultSites:
    """Z-capable, spare-driven and scan-muxed nets must grade
    identically: these are exactly the sites where an engine that
    mishandles undriven/control nets silently diverges."""

    def test_floating_net_faults(self, lib):
        """An undriven (floatable) gate input reads 0 in every engine,
        and faults on that branch detect identically."""
        module = Module("flt", lib)
        module.add_port("a", "input")
        module.add_port("y", "output")
        module.add_port("z", "output")
        # u0.B reads net "float" which nothing drives.
        module.add_instance("u0", "AND2_X1",
                            {"A": "a", "B": "float", "Y": "mid"})
        module.add_instance("u1", "OR2_X1",
                            {"A": "mid", "B": "a", "Y": "y"})
        module.add_instance("u2", "INV_X1", {"A": "mid", "Y": "z"})
        digests = fault_sim_digests(module, seed=1, batch_size=16,
                                    max_patterns=64)
        assert digests["compiled"] == digests["oracle"]

    def test_spare_cell_feed_faults(self, lib):
        """Spare outputs evaluate as constant-undriven; cones through
        them must not desync the compiled overlay."""
        module = Module("spare", lib)
        module.add_port("a", "input")
        module.add_port("y", "output")
        module.add_instance("sp", "SPARE_BLOCK", {"Y": "sp_y"})
        module.add_instance("u0", "OR2_X1",
                            {"A": "sp_y", "B": "a", "Y": "y"})
        digests = fault_sim_digests(module, seed=3, batch_size=16,
                                    max_patterns=64)
        assert digests["compiled"] == digests["oracle"]

    def test_tie_cell_faults(self, lib):
        module = Module("tie", lib)
        module.add_port("a", "input")
        module.add_port("y", "output")
        module.add_instance("th", "TIEHI", {"Y": "hi"})
        module.add_instance("tl", "TIELO", {"Y": "lo"})
        module.add_instance("u0", "AND2_X1",
                            {"A": "a", "B": "hi", "Y": "m"})
        module.add_instance("u1", "OR2_X1",
                            {"A": "m", "B": "lo", "Y": "y"})
        digests = fault_sim_digests(module, seed=4, batch_size=16,
                                    max_patterns=64)
        assert digests["compiled"] == digests["oracle"]

    def test_icg_enable_faults(self, lib):
        """ICG cells are combinational AND gates to the fault model;
        faults on the enable path (observable or not) must agree."""
        module = Module("icg", lib)
        module.add_port("clk", "input")
        module.add_port("en", "input")
        module.add_port("d", "input")
        module.add_port("q", "output")
        module.add_port("en_obs", "output")
        module.add_instance("g0", "ICG",
                            {"CK": "clk", "EN": "en", "GCK": "gclk"})
        module.add_instance("f0", "DFF",
                            {"D": "d", "CK": "gclk", "Q": "q"})
        # The enable also feeds observable logic, so some ICG-cone
        # faults detect and some (clock-path-only) never do.
        module.add_instance("u0", "INV_X1", {"A": "en", "Y": "en_obs"})
        faults = enumerate_faults(module)
        assert any(f.instance == "g0" for f in faults)
        digests = fault_sim_digests(module, seed=5, batch_size=16,
                                    max_patterns=64)
        assert digests["compiled"] == digests["oracle"]

    def test_scan_enable_path_faults(self, lib):
        """Scan-muxed design: scan_en and scan_in are control/chain
        nets (excluded from pseudo inputs, read as constant 0), and
        faults near them must grade identically on every engine."""
        module = pipeline_block("sc", lib, stages=2, width=4,
                                cloud_gates=15, seed=6)
        scanned, _ = insert_scan(module, n_chains=2)
        view = CombinationalView(scanned)
        assert "scan_en" not in view.pseudo_inputs
        digests = fault_sim_digests(scanned, seed=6, batch_size=32,
                                    max_patterns=128)
        assert digests["compiled"] == digests["oracle"]


class TestCompiledKernelUnit:
    """Direct program-level checks (cache reuse, batch grading)."""

    def test_program_reused_for_subset_universe(self, lib):
        module = pipeline_block("cache", lib, stages=2, width=4,
                                cloud_gates=15, seed=8)
        scanned, _ = insert_scan(module)
        view = CombinationalView(scanned)
        faults = collapse_faults(scanned, enumerate_faults(scanned))
        program = compile_fault_program(view, faults)
        subset = faults[: len(faults) // 2]
        assert compile_fault_program(view, subset) is program

    def test_uncovered_request_extends_the_cached_universe(
            self, lib, monkeypatch):
        """A fault outside the cached universe joins it instead of
        evicting it: three rounds of a diagnosis observe outside and
        one inside a dictionary's universe build one program, after
        which a regrade of the universe builds none, and every
        signature equals a cold build's."""
        from repro.dft import FaultDictionary, build_dictionary, compiled

        block = block_from_budget("lcd_if", lib, gate_budget=600, seed=3)
        scanned, _ = insert_scan(block)
        view = CombinationalView(scanned)
        full = enumerate_faults(scanned)
        universe = collapse_faults(scanned, full)
        collapsed = set(universe)
        outside = next(f for f in full if f not in collapsed)
        inside = universe[len(universe) // 2]
        clear_fault_program_cache()
        dictionary = build_dictionary(view, universe, seed=3)

        cold = {}
        for fault in (outside, inside):
            clear_fault_program_cache()
            cold[fault] = dictionary.observe(fault)
        clear_fault_program_cache()
        dictionary = build_dictionary(view, universe, seed=3)
        signatures = [dictionary.signature_of(f) for f in universe]

        built = []

        class CountingProgram(compiled.FaultProgram):
            def __init__(self, good, faults, view_compile):
                built.append(len(faults))
                super().__init__(good, faults, view_compile)

        monkeypatch.setattr(compiled, "FaultProgram", CountingProgram)
        for _ in range(3):
            assert dictionary.observe(outside) == cold[outside]
            assert dictionary.observe(inside) == cold[inside]
        assert built == [len(universe) + 1]
        regraded = FaultDictionary(view, dictionary.patterns, universe)
        assert built == [len(universe) + 1]
        assert [regraded.signature_of(f) for f in universe] == signatures
        assert cold[inside] == dictionary.signature_of(inside)

    def test_clear_cache_recompiles(self, lib):
        module = pipeline_block("cache2", lib, stages=1, width=4,
                                cloud_gates=10, seed=8)
        scanned, _ = insert_scan(module)
        view = CombinationalView(scanned)
        faults = collapse_faults(scanned, enumerate_faults(scanned))
        program = compile_fault_program(view, faults)
        clear_fault_program_cache()
        assert compile_fault_program(view, faults) is not program

    def test_grade_batch_matches_bigint_kernel(self, lib):
        module = pipeline_block("grade", lib, stages=2, width=6,
                                cloud_gates=25, seed=12)
        scanned, _ = insert_scan(module, n_chains=2)
        view = CombinationalView(scanned)
        faults = collapse_faults(scanned, enumerate_faults(scanned))
        program = compile_fault_program(view, faults)
        rng = np.random.default_rng(12)
        remaining = list(faults)
        for width in (1, 63, 64, 65, 200):
            bits = view.random_pattern_bits(rng, width)
            hits = grade_batch(program, bits, width, remaining)
            assert hits == bigint_batch_hits(
                view, bits, width, remaining)
            remaining = [f for f in remaining if f not in hits]

    def test_program_independent_of_unpack_block(self, lib, monkeypatch):
        """Cone bitsets unpacked one site at a time build the same
        program as one block does; a repeated fault grades under its
        last position."""
        from repro.dft import compiled

        module = pipeline_block("blocks", lib, stages=2, width=6,
                                cloud_gates=30, seed=4)
        scanned, _ = insert_scan(module, n_chains=2)
        view = CombinationalView(scanned)
        faults = collapse_faults(scanned, enumerate_faults(scanned))
        universe = faults + faults[:5]
        clear_fault_program_cache()
        whole = compile_fault_program(view, universe)
        clear_fault_program_cache()
        monkeypatch.setattr(compiled, "_UNPACK_BYTES", 1)
        split = compile_fault_program(view, universe)
        assert split is not whole
        for name in ("lit", "group", "out_of_row", "fault_of_row",
                     "det_overlay", "det_good", "det_fault", "stem0",
                     "stem1", "stem0_fault", "stem1_fault"):
            assert np.array_equal(getattr(split, name),
                                  getattr(whole, name)), name
        assert split.level_bounds == whole.level_bounds
        assert split.n_slots == whole.n_slots
        assert not np.isin(np.arange(5), split.fault_of_row).any()
        assert not np.isin(np.arange(5), split.det_fault).any()
        bits = view.random_pattern_bits(np.random.default_rng(4), 64)
        assert grade_batch(split, bits, 64, faults) == (
            bigint_batch_hits(view, bits, 64, faults))

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        stages=st.integers(min_value=1, max_value=3),
        width=st.integers(min_value=2, max_value=6),
        n_chains=st.integers(min_value=1, max_value=3),
    )
    def test_detection_masks_equal_the_oracle(self, seed, stages, width,
                                              n_chains):
        """Every detecting pattern of every fault, nothing dropped:
        the mask equals the big-int ``detect_mask`` for each fault of
        the full and the collapsed universe (the latter served by the
        full universe's program), at widths around word edges."""
        library = make_default_library(0.25)
        module = pipeline_block("msk", library, stages=stages,
                                width=width, cloud_gates=20, seed=seed)
        scanned, _ = insert_scan(module, n_chains=n_chains)
        view = CombinationalView(scanned)
        full = enumerate_faults(scanned)
        clear_fault_program_cache()
        for universe in (full, collapse_faults(scanned, full)):
            for batch, draw in enumerate((1, 7, 64, 65, 200)):
                stream = seed * 10 + batch
                bits = view.random_pattern_bits(
                    np.random.default_rng(stream), draw)
                good = evaluate(view, random_patterns(
                    view, np.random.default_rng(stream), draw), draw)
                masks = detection_masks(view, universe, bits, draw)
                assert list(masks) == list(dict.fromkeys(universe))
                for fault in universe:
                    assert masks[fault] == detect_mask(
                        view, fault, good, draw), (str(fault), draw)
                assert any(masks.values())

    def test_single_fault_universe(self, lib):
        module = counter_module(lib)
        view = CombinationalView(module)
        fault = Fault("u0", "Y", 0)
        program = compile_fault_program(view, [fault])
        bits = view.random_pattern_bits(np.random.default_rng(0), 8)
        hits = grade_batch(program, bits, 8, [fault])
        assert hits == bigint_batch_hits(view, bits, 8, [fault])


def _edit_block(module, position, edit, index):
    """Wire one corner of the fault-program build into a generated
    block, reading only nets upstream of the edited pin (no loops)."""
    order = module.topological_combinational_order()
    gates = [inst for inst in order if inst.cell.input_pins]
    target = gates[index % len(gates)]
    pin = target.cell.input_pins[index % len(target.cell.input_pins)]
    upstream = [
        name for name, port in module.ports.items()
        if port.direction == "input"
        and name not in (CLOCK_PORT, SCAN_ENABLE)
    ] + [flop.net_of("Q") for flop in module.sequential_instances] + [
        inst.net_of(inst.cell.output_pins[0])
        for inst in order[: order.index(target)]
    ]
    source = upstream[(index * 7) % len(upstream)]
    other = upstream[(index * 13 + 1) % len(upstream)]
    tag = f"__{edit}{position}"
    if edit == "tie":
        module.add_instance(tag, "TIEHI" if index % 2 else "TIELO",
                            {"Y": f"{tag}_y"})
        module.rewire_pin(target.name, pin, f"{tag}_y")
    elif edit == "port_and_d":
        # One net observed twice: an output port that is also a flop D.
        flops = module.sequential_instances
        flop = flops[index % len(flops)]
        module.add_port(f"{tag}_po", "output")
        module.add_instance(tag, "BUF_X1", {"A": source, "Y": f"{tag}_po"})
        module.rewire_pin(flop.name, flop.cell.data_pin, f"{tag}_po")
    elif edit == "reconverge":
        # source reaches the XOR directly and through the AND.
        module.add_instance(f"{tag}_and", "AND2_X1",
                            {"A": source, "B": other, "Y": f"{tag}_a"})
        module.add_instance(tag, "XOR2_X1",
                            {"A": source, "B": f"{tag}_a", "Y": f"{tag}_y"})
        module.rewire_pin(target.name, pin, f"{tag}_y")
    elif edit == "one_input":
        module.add_instance(f"{tag}_inv", "INV_X1",
                            {"A": source, "Y": f"{tag}_n"})
        module.add_instance(tag, "BUF_X1", {"A": f"{tag}_n", "Y": f"{tag}_y"})
        module.rewire_pin(target.name, pin, f"{tag}_y")


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=40),
    scan=st.booleans(),
    full=st.booleans(),
    order_seed=st.integers(min_value=0, max_value=10_000),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["tie", "port_and_d", "reconverge", "one_input"]),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1, max_size=5,
    ),
)
def test_compiled_equals_bigint_on_edited_blocks(seed, scan, full,
                                                 order_seed, edits):
    """The compiled program grades exactly like the big-int kernel on
    blocks edited to reach the build's corners: tie cells feeding
    gates, a pseudo output listed twice, reconvergent fan-out, stem
    and branch faults on 1-input cells, universes given shuffled and
    as a subset that reuses the program, scanned or not."""
    module = block_from_budget("fsx", make_default_library(0.25),
                               gate_budget=60, seed=seed)
    for position, (edit, index) in enumerate(edits):
        _edit_block(module, position, edit, index)
    if scan:
        module, _ = insert_scan(module, n_chains=2)
    view = CombinationalView(module)
    faults = enumerate_faults(module)
    if not full:
        faults = collapse_faults(module, faults)
    random.Random(order_seed).shuffle(faults)
    subset = faults[: max(1, len(faults) * (1 + order_seed % 3) // 4)]
    clear_fault_program_cache()
    for universe in (faults, subset):
        digests = [
            result_digest(simulate(
                view, universe, rng=np.random.default_rng(seed),
                max_patterns=96, batch_size=64,
            ))
            for simulate in (random_pattern_fault_sim, bigint_fault_sim)
        ]
        assert digests[0] == digests[1]
    program = compile_fault_program(view, faults)
    assert compile_fault_program(view, subset) is program
    # Observation points per fault, duplicates kept: every pseudo
    # output (a port that is also a flop D counts twice) whose net the
    # fault's cone drives, as the reference kernel's cone walk sees it.
    expected = []
    for fault in program.faults:
        cone_nets = {member.net_of(member.cell.output_pins[0])
                     for member in view.fanout_cone(fault.instance)}
        expected.append(sum(net in cone_nets for net in view.pseudo_outputs))
    observed = np.bincount(program.det_fault, minlength=len(program.faults))
    assert observed.tolist() == expected


def test_cached_program_dies_with_its_view(lib):
    """Nothing cached for a view refers back to it, so the per-view
    cache entry goes when the view does."""
    import gc

    from repro.dft import compiled

    module = pipeline_block("gone", lib, stages=1, width=4,
                            cloud_gates=12, seed=1)
    clear_fault_program_cache()
    view = CombinationalView(module)
    compile_fault_program(view, enumerate_faults(module))
    assert len(compiled._CACHE) == 1
    del view
    gc.collect()
    assert len(compiled._CACHE) == 0
