"""The one SAT engine, below both :mod:`repro.dft` and :mod:`repro.formal`.

SAT ATPG, combinational equivalence and bounded model checking all
decide their queries here: **cdcl** is a deterministic CDCL solver,
**cnf** the Tseitin builder with the one cell encoder
(:meth:`CnfBuilder.gate`) and the dual-rail four-value :data:`Pair`
layer.
"""

from .cdcl import SatError, Solver, SolverStats
from .cnf import XOR2, CnfBuilder, Pair

__all__ = [
    "CnfBuilder",
    "Pair",
    "SatError",
    "Solver",
    "SolverStats",
    "XOR2",
]
