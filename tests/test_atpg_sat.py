"""Correctness tests for the SAT deterministic test generator.

The gold standard is exhaustive enumeration over all primary-input
assignments: with no conflict budget the generator is complete, so it
must say "detected" exactly when some assignment detects the fault,
and any pattern it emits must detect the fault on the big-int kernel
whatever the inputs outside its support carry.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import Module, make_default_library, pipeline_block
from repro.netlist.generators import random_combinational_cloud
from repro.dft import (
    CombinationalView,
    Fault,
    enumerate_faults,
    insert_scan,
    run_atpg,
)
from repro.dft.atpg import SatTestGenerator
from repro.oracles.faultsim import detect_mask, evaluate


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


@pytest.fixture(scope="module")
def e4_block(lib):
    """The E4 benchmark netlist (``bench_e04_fault_coverage``)."""
    block = pipeline_block("dsc_rep", lib, stages=3, width=24,
                           cloud_gates=120, seed=3)
    scanned, _ = insert_scan(block, n_chains=2)
    return scanned


def exhaustive_detectable(view, fault, n_inputs=None):
    inputs = view.pseudo_inputs
    for bits in itertools.product([0, 1], repeat=len(inputs)):
        pattern = dict(zip(inputs, bits))
        good = evaluate(view, pattern, 1)
        if detect_mask(view, fault, good, 1):
            return True
    return False


def detects_under_every_fill(view, fault, pattern):
    """Big-int check: ``pattern`` detects ``fault`` for every value of
    the pseudo inputs it leaves unassigned."""
    free = [net for net in view.pseudo_inputs if net not in pattern]
    for bits in itertools.product([0, 1], repeat=len(free)):
        full = {**pattern, **dict(zip(free, bits))}
        if not detect_mask(view, fault, evaluate(view, full, 1), 1):
            return False
    return True


class TestSatBasics:
    def test_single_gate_all_faults(self, lib):
        m = Module("t", lib)
        for p in ("a", "b"):
            m.add_port(p, "input")
        m.add_port("y", "output")
        m.add_instance("u0", "NAND2_X1", {"A": "a", "B": "b", "Y": "y"})
        view = CombinationalView(m)
        engine = SatTestGenerator(view)
        for fault in enumerate_faults(m):
            result = engine.generate(fault)
            assert result.status == "detected"
            pattern = {n: result.pattern.get(n, 0) for n in view.pseudo_inputs}
            good = evaluate(view, pattern, 1)
            assert detect_mask(view, fault, good, 1)

    def test_redundant_fault_proven_untestable(self, lib):
        # y = (a & b) | (a & ~b) == a: b's value never reaches y, yet
        # b-path faults can change y, so every verdict is checked
        # against exhaustive enumeration.
        m = Module("red", lib)
        for p in ("a", "b"):
            m.add_port(p, "input")
        m.add_port("y", "output")
        m.add_instance("u_nb", "INV_X1", {"A": "b", "Y": "nb"})
        m.add_instance("u_t1", "AND2_X1", {"A": "a", "B": "b", "Y": "t1"})
        m.add_instance("u_t2", "AND2_X1", {"A": "a", "B": "nb", "Y": "t2"})
        m.add_instance("u_or", "OR2_X1", {"A": "t1", "B": "t2", "Y": "y"})
        view = CombinationalView(m)
        engine = SatTestGenerator(view)
        for fault in enumerate_faults(m):
            result = engine.generate(fault)
            truth = exhaustive_detectable(view, fault, 2)
            assert (result.status == "detected") == truth, str(fault)
            assert result.status != "aborted"

    def test_known_redundant_structure(self, lib):
        # y = a | (a & b): the AND gate is absorbed.  t SA0 needs
        # a=1, b=1 to activate, but then y=1 via the direct a path
        # regardless -> undetectable.
        m = Module("absorb", lib)
        for p in ("a", "b"):
            m.add_port(p, "input")
        m.add_port("y", "output")
        m.add_instance("u_and", "AND2_X1", {"A": "a", "B": "b", "Y": "t"})
        m.add_instance("u_or", "OR2_X1", {"A": "a", "B": "t", "Y": "y"})
        view = CombinationalView(m)
        engine = SatTestGenerator(view)
        result = engine.generate(Fault("u_and", "Y", 0))
        assert result.status == "untestable"
        assert not exhaustive_detectable(view, Fault("u_and", "Y", 0), 2)

    def test_branch_fault_on_deep_path(self, lib):
        # Chain of ANDs: branch SA0 deep inside needs all side = 1.
        m = Module("chain", lib)
        for index in range(4):
            m.add_port(f"in{index}", "input")
        m.add_port("y", "output")
        m.add_instance("u0", "AND2_X1", {"A": "in0", "B": "in1", "Y": "n0"})
        m.add_instance("u1", "AND2_X1", {"A": "n0", "B": "in2", "Y": "n1"})
        m.add_instance("u2", "AND2_X1", {"A": "n1", "B": "in3", "Y": "y"})
        view = CombinationalView(m)
        engine = SatTestGenerator(view)
        result = engine.generate(Fault("u0", "A", 0))
        assert result.status == "detected"
        # The pattern necessarily sets every signal on the path to 1.
        assert result.pattern == {"in0": 1, "in1": 1, "in2": 1, "in3": 1}


def test_every_cell_footprint_matches_exhaustive(lib):
    """The prime-cube encoding of each combinational footprint -- tie,
    spare, clock-gate and pad cells included -- gives exact verdicts."""
    cells = {}
    for cell in lib:
        if not cell.is_sequential:
            cells.setdefault(cell.footprint, cell)
    for cell in cells.values():
        m = Module(f"one_{cell.name}", lib)
        conns = {cell.output_pins[0]: "y"}
        for pin in cell.input_pins:
            m.add_port(f"i_{pin}", "input")
            conns[pin] = f"i_{pin}"
        m.add_port("y", "output")
        m.add_instance("u0", cell.name, conns)
        view = CombinationalView(m)
        engine = SatTestGenerator(view)
        for fault in enumerate_faults(m):
            result = engine.generate(fault)
            truth = exhaustive_detectable(view, fault)
            assert (result.status == "detected") == truth, str(fault)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    n_gates=st.integers(min_value=5, max_value=30),
)
def test_sat_matches_exhaustive_on_random_clouds(seed, n_gates):
    """Property: SAT verdicts equal exhaustive enumeration, exactly."""
    lib = make_default_library(0.25)
    m = random_combinational_cloud(
        "c", lib, n_inputs=5, n_outputs=2, n_gates=n_gates, seed=seed
    )
    view = CombinationalView(m)
    engine = SatTestGenerator(view)
    for fault in enumerate_faults(m):
        result = engine.generate(fault)
        truth = exhaustive_detectable(view, fault, 5)
        assert (result.status == "detected") == truth, str(fault)
        if result.status == "detected":
            pattern = {n: result.pattern.get(n, 0) for n in view.pseudo_inputs}
            good = evaluate(view, pattern, 1)
            assert detect_mask(view, fault, good, 1)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    n_gates=st.integers(min_value=5, max_value=25),
)
def test_sat_pattern_detects_under_any_fill(seed, n_gates):
    """Property: a pattern fixes only the fault's structural support;
    every completion of the other pseudo inputs still detects."""
    lib = make_default_library(0.25)
    m = random_combinational_cloud(
        "c", lib, n_inputs=8, n_outputs=3, n_gates=n_gates, seed=seed
    )
    view = CombinationalView(m)
    engine = SatTestGenerator(view)
    for fault in enumerate_faults(m):
        result = engine.generate(fault)
        if result.status != "detected":
            continue
        support = {net for member in view.fanout_cone(fault.instance)
                   for net in view.support(member.name)}
        assert set(result.pattern) == support
        assert detects_under_every_fill(view, fault, result.pattern), \
            str(fault)


def test_e4_branch_faults_beyond_backtracking_proven_untestable(e4_block):
    """A 256-backtrack PODEM aborts both faults; SAT proves them."""
    engine = SatTestGenerator(CombinationalView(e4_block))
    for stuck in (0, 1):
        result = engine.generate(Fault("s2_u116", "B", stuck))
        assert result.status == "untestable"


def test_conflict_budget_aborts_deterministically(e4_block):
    results = [
        run_atpg(e4_block, seed=7, max_random_patterns=512,
                 conflict_limit=1)
        for _ in range(2)
    ]
    assert results[0].undetected
    assert results[0] == results[1]
    # Proofs found within the budget are still proofs.
    full = run_atpg(e4_block, seed=7, max_random_patterns=512)
    assert not full.undetected
    assert set(results[0].untestable) < set(full.untestable)
