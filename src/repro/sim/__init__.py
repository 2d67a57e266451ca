"""Four-value logic simulation with configurable vendor dialects.

Two engines share one semantic core (:func:`evaluate_cell`):

* :class:`BatchSimulator` -- the compiled word-parallel backend
  (:mod:`repro.sim.compiled`) that runs all production simulation:
  the module is levelized once into a flat numpy program and 64
  stimulus lanes evaluate per uint64 word.  Its ``run`` drives lane
  frames edge by edge; :func:`lane_frames` builds functional-mode ones.
* :class:`LogicSimulator` -- the interpreted, event-style reference:
  the dialect oracle the compiled engine is checked against, and the
  replayer of BMC counterexamples (whose CNF is built from the
  compiled program, so replay needs an independent engine).
"""

from .compiled import (
    BatchSimulator,
    CompileError,
    CompiledProgram,
    compile_module,
    lane_frames,
)
from .simulator import (
    LogicSimulator,
    SimulatorConfig,
    Trace,
    VENDOR_A_SIM,
    VENDOR_B_SIM,
    diff_traces,
    evaluate_cell,
    resolve_clock_connection,
)
from .vcd import (
    escape_signal_name,
    load_vcd,
    read_vcd,
    save_vcd,
    unescape_signal_name,
    write_vcd,
)

__all__ = [
    "BatchSimulator",
    "CompileError",
    "CompiledProgram",
    "LogicSimulator",
    "SimulatorConfig",
    "Trace",
    "VENDOR_A_SIM",
    "VENDOR_B_SIM",
    "compile_module",
    "diff_traces",
    "evaluate_cell",
    "escape_signal_name",
    "lane_frames",
    "load_vcd",
    "read_vcd",
    "resolve_clock_connection",
    "save_vcd",
    "unescape_signal_name",
    "write_vcd",
]
