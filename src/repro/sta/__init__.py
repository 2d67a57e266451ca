"""Static timing analysis.

Two generations live side by side:

* :class:`TimingAnalyzer` -- the legacy linear delay model
  (intrinsic + R * C), kept for the flow stages that predate the
  characterized library;
* :class:`NldmTimingAnalyzer` -- table-driven multi-corner signoff
  STA over a :class:`repro.liberty.CellLibrary`, on a vectorized
  level sweep (its bit-identical per-arc oracle is
  :mod:`repro.oracles.sta`).
"""

from .analyzer import (
    PathPoint,
    PathReport,
    TimingAnalyzer,
    TimingConstraints,
    TimingReport,
)
from .nldm import (
    CornerTimingReport,
    MultiCornerTimingReport,
    NldmPathPoint,
    NldmTimingAnalyzer,
    TimingGraph,
    analyze_timing,
    compile_timing_graph,
)

__all__ = [
    "CornerTimingReport",
    "MultiCornerTimingReport",
    "NldmPathPoint",
    "NldmTimingAnalyzer",
    "PathPoint",
    "PathReport",
    "TimingAnalyzer",
    "TimingConstraints",
    "TimingGraph",
    "TimingReport",
    "analyze_timing",
    "compile_timing_graph",
]
