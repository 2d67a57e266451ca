"""Tests for structural Verilog write/read round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import (
    VerilogParseError,
    counter,
    make_default_library,
    pipeline_block,
    read_verilog,
    verilog_text,
)
from repro.netlist.generators import random_combinational_cloud
from repro.formal import check_combinational_equivalence, \
    check_sequential_burn_in


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


class TestWriter:
    def test_emits_wellformed_module(self, lib):
        module = counter("cnt", lib, width=4)
        text = verilog_text(module)
        assert text.startswith("// generated")
        assert "module cnt (" in text
        assert "endmodule" in text
        assert "input clk;" in text
        assert "output count0;" in text
        assert "DFFR ff0 (" in text

    def test_wire_declarations_exclude_ports(self, lib):
        module = counter("cnt", lib, width=2)
        text = verilog_text(module)
        assert "wire clk;" not in text
        assert "wire q0;" in text


class TestRoundTrip:
    def test_counter_roundtrip_structural(self, lib):
        original = counter("cnt", lib, width=4)
        restored = read_verilog(verilog_text(original), lib)
        assert restored.structural_signature() == \
            original.structural_signature()

    def test_counter_roundtrip_functional(self, lib):
        original = counter("cnt", lib, width=4)
        restored = read_verilog(verilog_text(original), lib)
        assert check_sequential_burn_in(original, restored,
                                        cycles=16).equivalent

    def test_pipeline_roundtrip(self, lib):
        original = pipeline_block("p", lib, stages=2, width=6,
                                  cloud_gates=25, seed=3)
        restored = read_verilog(verilog_text(original), lib)
        assert restored.gate_count == original.gate_count
        assert check_combinational_equivalence(original, restored).equivalent

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_random_cloud_roundtrip_property(self, seed):
        lib = make_default_library(0.25)
        original = random_combinational_cloud(
            "c", lib, n_inputs=4, n_outputs=2, n_gates=15, seed=seed
        )
        restored = read_verilog(verilog_text(original), lib)
        assert restored.structural_signature() == \
            original.structural_signature()


class TestParserErrors:
    def test_unknown_cell_rejected(self, lib):
        text = (
            "module t (a, y);\n  input a;\n  output y;\n"
            "  MYSTERY_GATE u0 (.A(a), .Y(y));\nendmodule\n"
        )
        with pytest.raises(VerilogParseError, match="MYSTERY_GATE"):
            read_verilog(text, lib)

    def test_truncated_input_rejected(self, lib):
        with pytest.raises(VerilogParseError):
            read_verilog("module t (a);\n  input a;\n", lib)

    def test_undeclared_header_port_rejected(self, lib):
        text = "module t (a, ghost);\n  input a;\nendmodule\n"
        with pytest.raises(VerilogParseError, match="ghost"):
            read_verilog(text, lib)

    def test_comments_are_ignored(self, lib):
        text = (
            "// line comment\nmodule t (a, y); /* block\ncomment */\n"
            "  input a;\n  output y;\n"
            "  INV_X1 u0 (.A(a), .Y(y));\nendmodule\n"
        )
        module = read_verilog(text, lib)
        assert module.gate_count == 1

    def test_garbage_rejected(self, lib):
        with pytest.raises(VerilogParseError):
            read_verilog("!!! not verilog", lib)
