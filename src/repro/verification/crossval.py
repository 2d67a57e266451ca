"""Cross-validation of static divergence predictions against real
dual-dialect simulation.

The DIV rules of :mod:`repro.lint.analysis` *predict* which nets the
two simulator dialects can disagree on.  This harness closes the loop:
it runs the module under both dialects with identical stimulus, records
every net that actually diverged, and scores the prediction --

* **precision** -- predicted nets that really diverged (a false alarm
  is an imprecise but sound prediction);
* **recall** -- diverged nets that were predicted.  Recall below 1.0
  is a *soundness bug*: the analysis claimed "proven safe" about a net
  the simulators disagree on.  The seeded-bug corpus in
  ``tests/test_analysis.py`` pins both at 1.0.

The stimulus protocol matches the analysis's modelling assumptions
(binary inputs, reset discipline):

1. every input port is driven to a random binary value; the clock is
   held low and scan controls low;
2. if the module has a reset port it is asserted for the very first
   vector (the async reset settles before any sampling), then held
   deasserted -- flops with no working reset keep their power-on value;
3. several *settle vectors* are applied and sampled before the first
   clock edge: power-on divergence is widest before uninitialised
   flops get overwritten, and varying the data inputs exercises the
   combinational cones around the divergent state;
4. then ``cycles`` clocked vectors run, sampling every net after each
   edge.  Multiple seeds union their observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set, Tuple

import numpy as np

from ..netlist import Module
from ..netlist.clocks import CLOCK_PORT, RESET_PORT, scan_mode_inputs
from ..sim import SimulatorConfig, VENDOR_A_SIM, VENDOR_B_SIM
from ..sim.compiled import BatchSimulator, lane_valid_words


def observed_divergent_nets_lanes(
    module: Module,
    *,
    cycles: int = 8,
    settle_vectors: int = 4,
    seeds: Sequence[int] = (0, 1, 2, 3),
    config_a: SimulatorConfig = VENDOR_A_SIM,
    config_b: SimulatorConfig = VENDOR_B_SIM,
) -> Set[str]:
    """Multi-seed divergence union as lanes of one compiled sweep.

    Seed *i* rides lane *i* of a :class:`~repro.sim.BatchSimulator`
    pair (one per dialect) and draws its vectors from the rng stream
    of that seed, so the result equals the union over ``seeds`` of
    the event-simulator oracle
    :func:`repro.oracles.verification.observed_divergent_nets` -- but
    both dialects' whole seed sweep costs two kernel passes per
    vector.
    """
    lanes = len(seeds)
    sim_a = BatchSimulator(module, config_a, lanes=lanes)
    sim_b = BatchSimulator(module, config_b, lanes=lanes)
    rngs = [np.random.default_rng(seed) for seed in seeds]

    can_clock = (
        CLOCK_PORT in module.ports
        and module.ports[CLOCK_PORT].direction == "input"
    )
    ties = dict.fromkeys(scan_mode_inputs(module), 0)
    if can_clock:
        ties[CLOCK_PORT] = 0
    data_ports = [
        name
        for name, port in module.ports.items()
        if port.direction == "input"
        and name not in ties and name != RESET_PORT
    ]
    has_reset = (
        RESET_PORT in module.ports
        and module.ports[RESET_PORT].direction == "input"
    )

    # Undriven tail lanes of the last word stay at power-on values,
    # which legitimately differ between dialects -- mask them out.
    valid = lane_valid_words(lanes, sim_a.words)
    diverged = np.zeros((sim_a.program.n_nets, sim_a.words),
                        dtype=np.uint64)

    def apply_vectors(index: int, *, reset_low: bool) -> None:
        vectors = []
        for rng in rngs:
            vector = {
                name: int(rng.integers(0, 2)) for name in data_ports
            }
            vector.update(ties)
            if has_reset:
                vector[RESET_PORT] = 0 if reset_low else 1
            vectors.append(vector)
        sim_a.set_lane_inputs(vectors)
        sim_b.set_lane_inputs(vectors)
        sim_a.evaluate()
        sim_b.evaluate()

    def snapshot() -> None:
        np.bitwise_or(diverged, sim_a.divergence_words(sim_b) & valid,
                      out=diverged)

    for index in range(max(1, settle_vectors)):
        apply_vectors(index, reset_low=index == 0)
        snapshot()

    for index in range(cycles):
        apply_vectors(index, reset_low=False)
        if can_clock:
            sim_a.clock_edge(CLOCK_PORT)
            sim_b.clock_edge(CLOCK_PORT)
        snapshot()

    hit = diverged.any(axis=1)
    names = sim_a.program.net_names
    return {names[i] for i in np.flatnonzero(hit)}


@dataclass(frozen=True)
class DivergenceValidation:
    """Scored comparison of predicted vs observed divergence."""

    module: str
    predicted: Tuple[str, ...]
    observed: Tuple[str, ...]

    @property
    def confirmed(self) -> Tuple[str, ...]:
        observed = set(self.observed)
        return tuple(n for n in self.predicted if n in observed)

    @property
    def false_alarms(self) -> Tuple[str, ...]:
        """Predicted but never observed (imprecision, not unsoundness)."""
        observed = set(self.observed)
        return tuple(n for n in self.predicted if n not in observed)

    @property
    def escapes(self) -> Tuple[str, ...]:
        """Observed but not predicted: a false 'proven safe' claim."""
        predicted = set(self.predicted)
        return tuple(n for n in self.observed if n not in predicted)

    @property
    def precision(self) -> float:
        if not self.predicted:
            return 1.0
        return len(self.confirmed) / len(self.predicted)

    @property
    def recall(self) -> float:
        if not self.observed:
            return 1.0
        return len(self.confirmed) / len(self.observed)

    @property
    def sound(self) -> bool:
        return not self.escapes

    def format_report(self) -> str:
        lines = [
            f"Divergence cross-validation for {self.module}",
            f"  predicted nets : {len(self.predicted)}",
            f"  observed nets  : {len(self.observed)}",
            f"  precision      : {self.precision:.2f}",
            f"  recall         : {self.recall:.2f}",
            f"  sound          : {self.sound}",
        ]
        if self.false_alarms:
            lines.append("  false alarms   : "
                         + ", ".join(self.false_alarms))
        if self.escapes:
            lines.append("  ESCAPES        : " + ", ".join(self.escapes))
        return "\n".join(lines)


def cross_validate_divergence(
    module: Module,
    *,
    cycles: int = 8,
    settle_vectors: int = 4,
    seeds: Sequence[int] = (0, 1, 2, 3),
    config_a: SimulatorConfig = VENDOR_A_SIM,
    config_b: SimulatorConfig = VENDOR_B_SIM,
) -> DivergenceValidation:
    """Predict, simulate under both dialects, and score.

    The multi-seed observation runs as lanes of one compiled sweep
    per dialect (:func:`observed_divergent_nets_lanes`).
    """
    from ..analysis import analyze_module, divergent_nets

    predicted = divergent_nets(analyze_module(module, config_a, config_b))
    observed = observed_divergent_nets_lanes(
        module,
        cycles=cycles,
        settle_vectors=settle_vectors,
        seeds=seeds,
        config_a=config_a,
        config_b=config_b,
    )
    return DivergenceValidation(
        module=module.name,
        predicted=tuple(predicted),
        observed=tuple(sorted(observed)),
    )
