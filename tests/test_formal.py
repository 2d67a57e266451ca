"""Tests for equivalence checking."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.netlist import Module, counter, make_default_library
from repro.netlist.generators import random_combinational_cloud
from repro.dft import insert_scan
from repro.dft.faultsim import CombinationalView
from repro.formal import (
    InterfaceMismatch,
    check_combinational_equivalence,
    check_sequential_burn_in,
)


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


def and_tree(lib, name, width):
    """``y = in0 & ... & in{width-1}`` as a tree of AND2 gates."""
    module = Module(name, lib)
    signals = []
    for k in range(width):
        module.add_port(f"in{k}", "input")
        signals.append(f"in{k}")
    module.add_port("y", "output")
    for gate in range(width - 1):
        a, b = signals.pop(0), signals.pop(0)
        out = f"n{gate}" if signals else "y"
        module.add_instance(f"and{gate}", "AND2_X1",
                            {"A": a, "B": b, "Y": out})
        signals.append(out)
    return module


def _enumerate_mismatch(golden, revised):
    """Oracle: whether any vector of the shared pseudo inputs separates
    the designs, by enumerating all of them through
    ``CombinationalView.evaluate`` in one packed batch."""
    view_g, view_r = CombinationalView(golden), CombinationalView(revised)
    inputs = sorted(set(view_g.pseudo_inputs) & set(view_r.pseudo_inputs))
    outputs = sorted(
        set(view_g.pseudo_outputs) & set(view_r.pseudo_outputs)
    )
    width = 1 << len(inputs)
    packed = {
        net: sum(1 << row for row in range(width) if (row >> k) & 1)
        for k, net in enumerate(inputs)
    }
    values_g = view_g.evaluate(packed, width)
    values_r = view_r.evaluate(packed, width)
    return any(
        values_g.get(net, 0) != values_r.get(net, 0) for net in outputs
    )


#: Pin-compatible two-input functions a single-gate flip draws from.
_TWO_INPUT_CELLS = ("NAND2_X1", "NOR2_X1", "AND2_X1", "OR2_X1",
                    "XOR2_X1", "XNOR2_X1")


class TestCombinationalEquivalence:
    def test_copy_is_equivalent_exhaustive(self, lib):
        m = random_combinational_cloud(
            "c", lib, n_inputs=6, n_outputs=3, n_gates=40, seed=1
        )
        result = check_combinational_equivalence(m, m.copy("dup"))
        assert result.equivalent
        assert result.mode == "combinational"
        assert result.notes == "proven over the full input space"

    def test_resized_cells_still_equivalent(self, lib):
        """Drive-strength swaps change timing, never function."""
        m = random_combinational_cloud(
            "c", lib, n_inputs=6, n_outputs=2, n_gates=30, seed=2
        )
        revised = m.copy("r")
        swapped = 0
        for inst in list(revised.instances.values()):
            variants = lib.drive_variants(inst.cell.footprint)
            if len(variants) > 1 and inst.cell.name != variants[-1].name:
                revised.swap_cell(inst.name, variants[-1].name)
                swapped += 1
        assert swapped > 0
        assert check_combinational_equivalence(m, revised).equivalent

    def test_functional_change_caught_with_counterexample(self, lib):
        m = random_combinational_cloud(
            "c", lib, n_inputs=6, n_outputs=3, n_gates=40, seed=3
        )
        revised = m.copy("r")
        # Break one gate: NAND -> NOR on some instance.
        victim = next(
            i.name for i in revised.instances.values()
            if i.cell.footprint == "NAND2"
        )
        conn = dict(revised.instances[victim].connections)
        revised.remove_instance(victim)
        revised.add_instance(victim, "NOR2_X1", conn)
        result = check_combinational_equivalence(m, revised)
        assert not result.equivalent
        assert result.counterexample is not None
        assert result.mismatched_outputs

    def test_counterexample_replays(self, lib):
        from repro.dft.faultsim import CombinationalView

        m = random_combinational_cloud(
            "c", lib, n_inputs=5, n_outputs=2, n_gates=25, seed=4
        )
        revised = m.copy("r")
        victim = next(
            i.name for i in revised.instances.values()
            if i.cell.footprint in ("NAND2", "NOR2", "AND2", "OR2")
        )
        conn = dict(revised.instances[victim].connections)
        cell = ("NOR2_X1"
                if revised.instances[victim].cell.footprint != "NOR2"
                else "NAND2_X1")
        revised.remove_instance(victim)
        revised.add_instance(victim, cell, conn)
        result = check_combinational_equivalence(m, revised)
        assert not result.equivalent
        vg = CombinationalView(m).evaluate(result.counterexample, 1)
        vr = CombinationalView(revised).evaluate(result.counterexample, 1)
        assert any(
            vg.get(net, 0) != vr.get(net, 0)
            for net in result.mismatched_outputs
        )

    def test_random_mode_for_wide_designs(self, lib):
        """24 inputs are past any enumeration; the verdict is still a
        proof."""
        m = random_combinational_cloud(
            "c", lib, n_inputs=24, n_outputs=4, n_gates=80, seed=5
        )
        result = check_combinational_equivalence(m, m.copy("dup"))
        assert result.equivalent
        assert result.mode == "combinational"

    def test_wide_cone_single_minterm_change_refuted(self, lib):
        """Tying a 20-input AND tree low changes one vector in 2**20,
        which random vectors all but never hit."""
        golden = and_tree(lib, "g", 20)
        revised = Module("r", lib)
        for name, port in golden.ports.items():
            revised.add_port(name, port.direction)
        revised.add_instance("tie", "TIELO", {"Y": "y"})
        result = check_combinational_equivalence(golden, revised)
        assert not result.equivalent
        assert result.counterexample == {f"in{k}": 1 for k in range(20)}
        assert result.mismatched_outputs == ["y"]
        assert result.divergence.outputs == {"y": ("1", "0")}
        vg = CombinationalView(golden).evaluate(result.counterexample, 1)
        vr = CombinationalView(revised).evaluate(result.counterexample, 1)
        assert vg.get("y", 0) != vr.get("y", 0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_inputs=st.integers(min_value=1, max_value=12),
        n_outputs=st.integers(min_value=1, max_value=3),
        n_gates=st.integers(min_value=1, max_value=40),
        edit=st.sampled_from(("copy", "resize", "flip")),
        pick=st.integers(min_value=0, max_value=10_000),
        flip_to=st.sampled_from(_TWO_INPUT_CELLS),
    )
    def test_verdict_matches_enumeration(
        self, lib, seed, n_inputs, n_outputs, n_gates, edit, pick, flip_to
    ):
        """The proof agrees with enumerating every input vector, and
        each counterexample replays on the evaluation oracle."""
        golden = random_combinational_cloud(
            "c", lib, n_inputs=n_inputs, n_outputs=n_outputs,
            n_gates=n_gates, seed=seed,
        )
        revised = golden.copy("r")
        if edit == "resize":
            for inst in list(revised.instances.values()):
                variants = lib.drive_variants(inst.cell.footprint)
                revised.swap_cell(
                    inst.name, variants[pick % len(variants)].name
                )
        elif edit == "flip":
            victims = sorted(
                inst.name for inst in revised.instances.values()
                if inst.cell.name in _TWO_INPUT_CELLS
                and inst.cell.name != flip_to
            )
            assume(victims)
            victim = victims[pick % len(victims)]
            connections = dict(revised.instances[victim].connections)
            revised.remove_instance(victim)
            revised.add_instance(victim, flip_to, connections)

        result = check_combinational_equivalence(golden, revised)
        assert result.equivalent == (
            not _enumerate_mismatch(golden, revised)
        )
        if result.equivalent:
            assert result.counterexample is None
            return
        values_g = CombinationalView(golden).evaluate(
            result.counterexample, 1)
        values_r = CombinationalView(revised).evaluate(
            result.counterexample, 1)
        replayed = {
            net: (str(values_g.get(net, 0)), str(values_r.get(net, 0)))
            for net in sorted(CombinationalView(golden).pseudo_outputs)
            if values_g.get(net, 0) != values_r.get(net, 0)
        }
        assert replayed == result.divergence.outputs
        assert sorted(replayed) == result.mismatched_outputs

    def test_disjoint_interfaces_rejected(self, lib):
        a = random_combinational_cloud(
            "a", lib, n_inputs=3, n_outputs=1, n_gates=10, seed=6
        )
        b = Module("b", lib)
        b.add_port("zz", "input")
        b.add_port("yy", "output")
        b.add_instance("u0", "INV_X1", {"A": "zz", "Y": "yy"})
        with pytest.raises(InterfaceMismatch):
            check_combinational_equivalence(a, b)


class TestSequentialBurnIn:
    def test_counter_vs_copy(self, lib):
        m = counter("cnt", lib, width=6)
        result = check_sequential_burn_in(m, m.copy("dup"), cycles=32)
        assert result.equivalent

    def test_scan_inserted_design_matches_original(self, lib):
        """Scan insertion with scan_en low must be transparent --
        the formal sign-off step after DFT insertion."""
        m = counter("cnt", lib, width=6)
        scanned, _ = insert_scan(m)
        result = check_sequential_burn_in(m, scanned, cycles=48)
        assert result.equivalent, result.notes

    def test_width_mismatch_detected(self, lib):
        a = counter("cnt", lib, width=4)
        b = counter("cnt", lib, width=4)
        # Sabotage b: swap the XOR on bit 2 for XNOR.
        conn = dict(b.instances["sum2"].connections)
        b.remove_instance("sum2")
        b.add_instance("sum2", "XNOR2_X1", conn)
        result = check_sequential_burn_in(a, b, cycles=16)
        assert not result.equivalent
        assert "cycle" in result.notes

    def test_no_common_outputs_rejected(self, lib):
        a = counter("cnt", lib, width=2)
        b = Module("b", lib)
        b.add_port("clk", "input")
        b.add_port("weird", "output")
        b.add_instance("f", "DFF", {"D": "weird2", "CK": "clk", "Q": "weird2x"})
        b.add_instance("i", "INV_X1", {"A": "weird2x", "Y": "weird"})
        b.add_instance("i2", "INV_X1", {"A": "weird2x", "Y": "weird2"})
        with pytest.raises(InterfaceMismatch):
            check_sequential_burn_in(a, b)

    def test_report_format(self, lib):
        m = counter("cnt", lib, width=3)
        result = check_sequential_burn_in(m, m.copy("d"), cycles=8)
        assert "EQUIVALENT" in result.format_report()


class TestDivergenceReporting:
    """First-divergence reporting: net names plus values, both modes."""

    def _broken_pair(self, lib, *, n_inputs, seed):
        m = random_combinational_cloud(
            "c", lib, n_inputs=n_inputs, n_outputs=3, n_gates=40,
            seed=seed,
        )
        revised = m.copy("r")
        victim = next(
            i.name for i in revised.instances.values()
            if i.cell.footprint == "NAND2"
        )
        conn = dict(revised.instances[victim].connections)
        revised.remove_instance(victim)
        revised.add_instance(victim, "NOR2_X1", conn)
        return m, revised

    def test_combinational_divergence_names_and_values(self, lib):
        m, revised = self._broken_pair(lib, n_inputs=6, seed=3)
        result = check_combinational_equivalence(m, revised)
        assert not result.equivalent
        div = result.divergence
        assert div is not None
        assert div.cycle is None
        # The full separating input vector, named net by net.
        assert set(div.inputs) == set(result.counterexample)
        for net, value in div.inputs.items():
            assert value == str(result.counterexample[net])
        # Every reported output actually differs between the designs.
        assert div.outputs
        assert set(div.outputs) <= set(result.mismatched_outputs)
        for net, (golden, rev) in div.outputs.items():
            assert golden != rev
            assert {golden, rev} <= {"0", "1"}

    def test_combinational_divergence_replays(self, lib):
        from repro.dft.faultsim import CombinationalView

        m, revised = self._broken_pair(lib, n_inputs=6, seed=3)
        result = check_combinational_equivalence(m, revised)
        div = result.divergence
        packed = {net: int(bit) for net, bit in div.inputs.items()}
        vg = CombinationalView(m).evaluate(packed, 1)
        vr = CombinationalView(revised).evaluate(packed, 1)
        for net, (golden, rev) in div.outputs.items():
            assert str(vg.get(net, 0) & 1) == golden
            assert str(vr.get(net, 0) & 1) == rev

    def test_random_mode_divergence(self, lib):
        """A 24-input pair diverges on a vector the SAT model picks."""
        m, revised = self._broken_pair(lib, n_inputs=24, seed=7)
        result = check_combinational_equivalence(m, revised)
        assert not result.equivalent
        assert result.mode == "combinational"
        div = result.divergence
        assert div is not None
        assert div.outputs
        for net, value in div.inputs.items():
            assert value == str(result.counterexample[net])

    def test_sequential_divergence_locates_cycle(self, lib):
        a = counter("cnt", lib, width=4)
        b = counter("cnt", lib, width=4)
        conn = dict(b.instances["sum2"].connections)
        b.remove_instance("sum2")
        b.add_instance("sum2", "XNOR2_X1", conn)
        result = check_sequential_burn_in(a, b, cycles=16)
        assert not result.equivalent
        div = result.divergence
        assert div is not None
        assert div.cycle == result.counterexample["cycle"]
        assert div.outputs
        assert set(div.outputs) <= set(result.mismatched_outputs)
        for net, (golden, rev) in div.outputs.items():
            assert golden != rev
            assert {golden, rev} <= set("01xz")

    def test_divergence_in_report_and_json(self, lib):
        m, revised = self._broken_pair(lib, n_inputs=6, seed=3)
        result = check_combinational_equivalence(m, revised)
        text = result.format_report()
        assert "first differing vector" in text
        some_output = next(iter(result.divergence.outputs))
        assert some_output in text
        payload = result.divergence.to_dict()
        assert payload["cycle"] is None
        assert payload["inputs"] == dict(sorted(
            result.divergence.inputs.items()
        ))
