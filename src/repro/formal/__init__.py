"""Formal verification: equivalence, properties and model checking.

The paper's flow runs formal equivalence after every netlist
transformation and leans on multi-simulator regression for everything
else.  This package closes the gap with a formal stack on the SAT
engine of :mod:`repro.sat`, above the :mod:`repro.dft` scan view:

* **equivalence** -- combinational and sequential compare between two
  netlists, reporting the first differing input/output vector;
* **properties** -- assert/assume/cover properties over nets, with
  automatic derivation from analysis facts (constant nets, one-hot
  rings, synchronizer settling);
* **bmc** -- the bounded model checker: the levelized compiled-sim
  program unrolled frame by frame into CNF, per-property seeded
  solvers fanned out deterministically, counterexamples replayed on
  both simulator dialects, plus the pure-CNF bus-window exclusivity
  proof;
* **semiformal** -- constrained-random lanes drive deep states and
  BMC exhausts each state's k-neighborhood, banking replayed
  counterexamples into the coverage database as directed tests.
"""

from .bmc import (
    BmcError,
    BmcReport,
    BusExclusivityResult,
    Counterexample,
    PropertyCheck,
    ReplayResult,
    Unroller,
    check_bus_exclusivity,
    check_properties,
    counterexample_stimulus,
    replay_counterexample,
)
from .equivalence import (
    Divergence,
    EquivalenceResult,
    InterfaceMismatch,
    check_combinational_equivalence,
    check_sequential_burn_in,
)
from .properties import (
    And,
    AtMostOne,
    Known,
    NetIs,
    Not,
    Or,
    PropertyError,
    PropExpr,
    Property,
    PropertySet,
    derive_properties,
    exactly_one,
    implies,
)
from .semiformal import (
    SemiformalResult,
    SemiformalTrace,
    counterexample_to_test,
    semiformal_verify,
)

__all__ = [
    "And",
    "AtMostOne",
    "BmcError",
    "BmcReport",
    "BusExclusivityResult",
    "Counterexample",
    "Divergence",
    "EquivalenceResult",
    "InterfaceMismatch",
    "Known",
    "NetIs",
    "Not",
    "Or",
    "PropExpr",
    "Property",
    "PropertyCheck",
    "PropertyError",
    "PropertySet",
    "ReplayResult",
    "SemiformalResult",
    "SemiformalTrace",
    "Unroller",
    "check_bus_exclusivity",
    "check_combinational_equivalence",
    "check_properties",
    "check_sequential_burn_in",
    "counterexample_stimulus",
    "counterexample_to_test",
    "derive_properties",
    "exactly_one",
    "implies",
    "replay_counterexample",
    "semiformal_verify",
]
