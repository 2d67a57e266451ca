"""Unit tests for the netlist IR."""

import pytest

from repro.lint import run_lint
from repro.netlist import Module, NetlistError, make_default_library
from repro.netlist.netlist import PinRef


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


def build_half_adder(lib):
    m = Module("half_adder", lib)
    m.add_port("a", "input")
    m.add_port("b", "input")
    m.add_port("sum", "output")
    m.add_port("carry", "output")
    m.add_instance("u_sum", "XOR2_X1", {"A": "a", "B": "b", "Y": "sum"})
    m.add_instance("u_carry", "AND2_X1", {"A": "a", "B": "b", "Y": "carry"})
    return m


class TestConstruction:
    def test_half_adder_structure(self, lib):
        m = build_half_adder(lib)
        assert m.gate_count == 2
        assert set(m.ports) == {"a", "b", "sum", "carry"}
        assert m.nets["a"].fanout == 2
        assert m.nets["sum"].driver.instance == "u_sum"
        assert run_lint([m], rules=["structural"], workers=1).findings == []

    def test_duplicate_instance_rejected(self, lib):
        m = build_half_adder(lib)
        with pytest.raises(NetlistError, match="duplicate instance"):
            m.add_instance("u_sum", "INV_X1", {"A": "a", "Y": "n1"})

    def test_unconnected_pin_rejected(self, lib):
        m = Module("t", lib)
        m.add_port("a", "input")
        with pytest.raises(NetlistError, match="unconnected pins"):
            m.add_instance("u0", "NAND2_X1", {"A": "a", "Y": "y"})

    def test_unknown_pin_rejected(self, lib):
        m = Module("t", lib)
        with pytest.raises(NetlistError, match="unknown pins"):
            m.add_instance("u0", "INV_X1", {"A": "a", "Y": "y", "Q": "q"})

    def test_double_driver_rejected(self, lib):
        m = Module("t", lib)
        m.add_port("a", "input")
        m.add_instance("u0", "INV_X1", {"A": "a", "Y": "n"})
        with pytest.raises(NetlistError, match="already driven"):
            m.add_instance("u1", "INV_X1", {"A": "a", "Y": "n"})

    def test_driving_an_input_port_net_rejected(self, lib):
        m = Module("t", lib)
        m.add_port("a", "input")
        with pytest.raises(NetlistError, match="already driven"):
            m.add_instance("u0", "INV_X1", {"A": "a", "Y": "a"})

    def test_duplicate_port_rejected(self, lib):
        m = Module("t", lib)
        m.add_port("a", "input")
        with pytest.raises(NetlistError, match="duplicate port"):
            m.add_port("a", "output")


class TestEditing:
    def test_remove_instance_detaches(self, lib):
        m = build_half_adder(lib)
        m.remove_instance("u_sum")
        assert "u_sum" not in m.instances
        assert m.nets["sum"].driver is None
        assert all(l.instance != "u_sum" for l in m.nets["a"].loads)

    def test_remove_missing_instance_raises(self, lib):
        m = build_half_adder(lib)
        with pytest.raises(NetlistError):
            m.remove_instance("nope")

    def test_rewire_input_pin(self, lib):
        m = build_half_adder(lib)
        m.rewire_pin("u_carry", "B", "a")
        assert m.instances["u_carry"].net_of("B") == "a"
        assert m.nets["b"].fanout == 1  # only the XOR remains

    def test_rewire_output_pin(self, lib):
        m = build_half_adder(lib)
        m.rewire_pin("u_carry", "Y", "carry2")
        assert m.nets["carry"].driver is None
        assert m.nets["carry2"].driver.instance == "u_carry"

    def test_rewire_moves_only_the_named_pin(self, lib):
        """Two input pins of one instance on one net: rewiring one of
        them moves that pin's load alone, and keeps the others in
        order."""
        m = Module("t", lib)
        for port in ("a", "b"):
            m.add_port(port, "input")
        m.add_instance("u0", "AND2_X1", {"A": "a", "B": "a", "Y": "y0"})
        m.add_instance("u1", "INV_X1", {"A": "a", "Y": "y1"})
        m.rewire_pin("u0", "A", "b")
        assert m.nets["a"].loads == [PinRef("u0", "B"), PinRef("u1", "A")]
        assert m.nets["b"].loads == [PinRef("u0", "A")]
        assert m.instances["u0"].connections == {"A": "b", "B": "a",
                                                 "Y": "y0"}

    def test_remove_instance_keeps_remaining_loads_in_order(self, lib):
        m = Module("t", lib)
        m.add_port("a", "input")
        for index in range(4):
            m.add_instance(f"u{index}", "AND2_X1",
                           {"A": "a", "B": "a", "Y": f"y{index}"})
        m.remove_instance("u1")
        assert m.nets["a"].loads == [
            PinRef(name, pin) for name in ("u0", "u2", "u3")
            for pin in ("A", "B")
        ]
        assert m.nets["y1"].driver is None

    def test_swap_cell_drive_strength(self, lib):
        m = build_half_adder(lib)
        m.swap_cell("u_sum", "XOR2_X4")
        assert m.instances["u_sum"].cell.name == "XOR2_X4"

    def test_swap_incompatible_cell_rejected(self, lib):
        m = build_half_adder(lib)
        with pytest.raises(NetlistError, match="not pin-compatible"):
            m.swap_cell("u_sum", "INV_X1")


class TestAnalysis:
    def test_topological_order_respects_dependencies(self, lib):
        m = Module("chain", lib)
        m.add_port("a", "input")
        m.add_port("y", "output")
        m.add_instance("u2", "INV_X1", {"A": "n1", "Y": "y"})
        m.add_instance("u1", "INV_X1", {"A": "n0", "Y": "n1"})
        m.add_instance("u0", "INV_X1", {"A": "a", "Y": "n0"})
        order = [i.name for i in m.topological_combinational_order()]
        assert order.index("u0") < order.index("u1") < order.index("u2")

    def test_combinational_loop_detected(self, lib):
        m = Module("loop", lib)
        m.add_instance("u0", "INV_X1", {"A": "n1", "Y": "n0"})
        m.add_instance("u1", "INV_X1", {"A": "n0", "Y": "n1"})
        with pytest.raises(NetlistError, match="combinational loop"):
            m.topological_combinational_order()

    def test_flops_break_loops(self, lib):
        m = Module("feedback", lib)
        m.add_port("clk", "input")
        m.add_instance("inv", "INV_X1", {"A": "q", "Y": "d"})
        m.add_instance("ff", "DFF", {"D": "d", "CK": "clk", "Q": "q"})
        order = m.topological_combinational_order()
        assert [i.name for i in order] == ["inv"]

    def test_validate_reports_floating_net(self, lib):
        m = Module("t", lib)
        m.add_net("floaty")
        m.nets["floaty"].loads.append(None)  # fake a load
        m.nets["floaty"].loads.pop()
        m.add_instance("u0", "INV_X1", {"A": "floaty", "Y": "y"})
        findings = run_lint([m], rules=["structural"], workers=1).findings
        assert any("no driver" in f.message for f in findings)

    def test_copy_is_independent(self, lib):
        m = build_half_adder(lib)
        dup = m.copy("copy")
        dup.remove_instance("u_sum")
        assert "u_sum" in m.instances
        assert m.nets["sum"].driver is not None

    def test_structural_signature_stable_under_copy(self, lib):
        m = build_half_adder(lib)
        dup = m.copy()
        assert m.structural_signature() == dup.structural_signature()

    def test_structural_signature_changes_on_edit(self, lib):
        m = build_half_adder(lib)
        dup = m.copy()
        dup.swap_cell("u_sum", "XOR2_X2")
        assert m.structural_signature() != dup.structural_signature()

    def test_area_and_counts(self, lib):
        m = build_half_adder(lib)
        assert m.total_area_um2 == pytest.approx(
            lib["XOR2_X1"].area_um2 + lib["AND2_X1"].area_um2
        )
        assert len(m.combinational_instances) == 2
        assert len(m.sequential_instances) == 0
