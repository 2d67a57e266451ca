"""Tests for the gate layer of :class:`repro.sat.CnfBuilder`.

``CnfBuilder.gate`` is the one place where cell logic becomes clauses
for SAT ATPG, combinational equivalence and the BMC unroller, so its
literal must equal its truth table under every input assignment, with
constants, negations and repeated variables among the inputs.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dft.faultsim import CombinationalView
from repro.oracles.faultsim import evaluate
from repro.sat import CnfBuilder, Solver
from repro.netlist import make_default_library, pipeline_block

#: Truth tables over inputs (A, B): bit ``r`` is the output for row
#: ``r`` with A in bit 0 and B in bit 1.
AND2, NAND2 = 0b1000, 0b0111

#: Free variables one example may draw, so every assignment is solved.
MAX_FREE = 6


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


def _row(values):
    return sum(bit << k for k, bit in enumerate(values))


def _value(node, meaning, assignment):
    """0/1 value of ``node`` (a literal's meaning) under ``assignment``."""
    kind, args = node
    if kind == "var":
        return assignment[args]
    if kind == "const":
        return args
    if kind == "not":
        return 1 - _value(meaning[args], meaning, assignment)
    values = [_value(meaning[lit], meaning, assignment)
              for lit in args[-1]]
    if kind == "and":
        return int(all(values))
    if kind == "or":
        return int(any(values))
    return args[0] >> _row(values) & 1  # "gate": (table, inputs)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_gate_literal_equals_its_table(data):
    """Gates over fresh, negated, repeated and constant inputs,
    interleaved with AND/OR nodes on one builder, equal their tables
    under every assignment of the free variables."""
    solver = Solver()
    cnf = CnfBuilder(solver)
    free: list[int] = []
    # Literal -> (kind, args), the oracle's reading of it.
    meaning = {cnf.true_lit: ("const", 1), cnf.false_lit: ("const", 0)}

    def remember(lit, node):
        meaning.setdefault(lit, node)
        meaning.setdefault(-lit, ("not", lit))

    def fresh():
        var = cnf.new_var()
        free.append(var)
        remember(var, ("var", var))
        return var

    checked = []  # (literal, the node it must equal)
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        existing = sorted(lit for lit in meaning if abs(lit) != cnf.true_lit)
        if data.draw(st.booleans(), label="boolean node"):
            lits = data.draw(st.lists(
                st.sampled_from(existing or [cnf.true_lit]),
                min_size=1, max_size=3), label="node inputs")
            kind = data.draw(st.sampled_from(("and", "or")), label="kind")
            lit = (cnf.lit_and if kind == "and" else cnf.lit_or)(lits)
            node = (kind, (tuple(lits),))
        else:
            n = data.draw(st.integers(0, 4), label="inputs")
            table = data.draw(st.integers(0, (1 << (1 << n)) - 1),
                              label="table")
            inputs = []
            for _ in range(n):
                kind = data.draw(st.sampled_from(
                    ("fresh", "negation", "repeat", "constant")),
                    label="input kind")
                if kind == "constant":
                    inputs.append(data.draw(st.sampled_from(
                        (cnf.true_lit, cnf.false_lit)), label="constant"))
                elif kind == "fresh" or not existing:
                    inputs.append(fresh() if len(free) < MAX_FREE
                                  else data.draw(st.sampled_from(free)))
                else:
                    picked = data.draw(st.sampled_from(existing),
                                       label="existing")
                    inputs.append(-picked if kind == "negation" else picked)
            lit = cnf.gate(table, inputs)
            node = ("gate", (table, tuple(inputs)))
        remember(lit, node)
        checked.append((lit, node))

    for bits in itertools.product((0, 1), repeat=len(free)):
        assignment = dict(zip(free, bits))
        assumptions = [var if bit else -var for var, bit in assignment.items()]
        assert solver.solve(assumptions) is True
        for lit, node in checked:
            assert int(solver.value(lit)) == \
                _value(node, meaning, assignment), (lit, node)


class TestGateFolding:
    def test_constants_fold_without_a_variable(self):
        cnf = CnfBuilder(Solver())
        a = cnf.new_var()
        before = cnf.solver.n_vars
        assert cnf.gate(AND2, [cnf.true_lit, cnf.true_lit]) == cnf.true_lit
        assert cnf.gate(AND2, [a, cnf.false_lit]) == cnf.false_lit
        assert cnf.gate(AND2, [cnf.true_lit, a]) == a
        assert cnf.gate(NAND2, [a, cnf.true_lit]) == -a
        assert cnf.gate(AND2, [a, -a]) == cnf.false_lit
        assert cnf.gate(0b10, [a]) == a  # BUF
        assert cnf.gate(0b01, [a]) == -a  # INV
        assert cnf.gate(0b1, []) == cnf.true_lit  # TIEHI
        assert cnf.solver.n_vars == before

    def test_same_function_and_inputs_share_a_variable(self):
        cnf = CnfBuilder(Solver())
        a, b = cnf.new_var(), cnf.new_var()
        first = cnf.gate(NAND2, [a, b])
        assert cnf.gate(NAND2, [a, b]) == first
        assert cnf.gate(AND2, [a, b]) not in (first, -first)

    def test_guarded_gate_is_never_returned_unguarded(self):
        solver = Solver()
        cnf = CnfBuilder(solver)
        a, b, act = cnf.new_var(), cnf.new_var(), cnf.new_var()
        guarded = cnf.gate(NAND2, [a, b], guard=act)
        plain = cnf.gate(NAND2, [a, b])
        assert plain != guarded
        assert cnf.gate(NAND2, [a, b]) == plain
        assert cnf.gate(NAND2, [a, b], guard=act) not in (guarded, plain)
        # With its guard false the gate is unconstrained...
        assert solver.solve([-act, a, b, guarded]) is True
        # ...and with it true, it is the function.
        assert solver.solve([act, a, b, guarded]) is False


def test_cell_tables_match_the_fault_kernel(lib):
    """``CombinationalView.encode`` agrees with the big-int oracle's
    ``evaluate`` on every net of a scan view, for random input
    vectors; nets ``evaluate`` leaves out (undriven ones) read 0 in
    both."""
    block = pipeline_block("blk", lib, stages=2, width=4, cloud_gates=24,
                           seed=5)
    view = CombinationalView(block)
    solver = Solver()
    cnf = CnfBuilder(solver)
    inputs = {net: cnf.new_var() for net in view.pseudo_inputs}
    lits = view.encode(cnf, inputs)
    width = 16
    rng = np.random.default_rng(0)
    packed = {net: int(rng.integers(0, 1 << width))
              for net in view.pseudo_inputs}
    values = evaluate(view, packed, width)
    for lane in range(width):
        assumptions = [var if packed[net] >> lane & 1 else -var
                       for net, var in inputs.items()]
        assert solver.solve(assumptions) is True
        for net, lit in lits.items():
            assert int(solver.value(lit)) == \
                values.get(net, 0) >> lane & 1, net
