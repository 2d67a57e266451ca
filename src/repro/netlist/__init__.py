"""Gate-level netlist substrate: logic values, cell library, netlist IR,
clock and reset tracing, synthetic generators and statistics."""

from .logic import (
    Logic,
    bits_to_int,
    int_to_bits,
    logic_and,
    logic_buf,
    logic_mux,
    logic_nand,
    logic_nor,
    logic_not,
    logic_or,
    logic_xnor,
    logic_xor,
    resolve,
)
from .library import Cell, PinSpec, StdCellLibrary, make_default_library
from .netlist import Instance, Module, Net, NetlistError, PinRef, Port
from .clocks import SourceTrace, trace_control_source
from .generators import (
    block_from_budget,
    counter,
    one_hot_ring,
    pipeline_block,
    random_combinational_cloud,
)
from .stats import NetlistStats, collect_stats
from .verilog import (
    VerilogParseError,
    read_verilog,
    verilog_text,
    write_verilog,
)

__all__ = [
    "Logic",
    "bits_to_int",
    "int_to_bits",
    "logic_and",
    "logic_buf",
    "logic_mux",
    "logic_nand",
    "logic_nor",
    "logic_not",
    "logic_or",
    "logic_xnor",
    "logic_xor",
    "resolve",
    "Cell",
    "PinSpec",
    "StdCellLibrary",
    "make_default_library",
    "Instance",
    "Module",
    "Net",
    "NetlistError",
    "PinRef",
    "Port",
    "SourceTrace",
    "trace_control_source",
    "block_from_budget",
    "counter",
    "one_hot_ring",
    "pipeline_block",
    "random_combinational_cloud",
    "NetlistStats",
    "collect_stats",
    "VerilogParseError",
    "read_verilog",
    "verilog_text",
    "write_verilog",
]
