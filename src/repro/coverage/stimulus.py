"""Constrained-random stimulus generation with seed-stream management.

Uniform random vectors (:func:`repro.verification.random_stimulus`)
toggle shallow logic well but rarely reach state that needs held or
biased inputs.  :func:`constrained_stimulus` generates per-port value
streams under :class:`PortConstraint` knobs -- a 0/1 weighting and a
hold-time range, the two constraints that matter for toggling control
logic (enables held through a burst, rare strobes, etc.).

Seed management follows the PR-1 determinism contract: the closure
loop spawns one independent ``numpy.random.SeedSequence`` child per
test (:func:`spawn_test_seeds`), so each test's stimulus is a pure
function of ``(base seed, test index)`` -- identical for any worker
count or partitioning, exactly like
``repro.manufacturing.simulate_lot``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..netlist import Module
from ..netlist.clocks import CLOCK_PORT, RESET_PORT, scan_mode_inputs


@dataclass(frozen=True)
class PortConstraint:
    """Randomization constraints for one input port.

    ``one_weight`` is the probability a freshly drawn value is 1;
    each drawn value is then held for a uniform random number of
    cycles in ``[hold_min, hold_max]``.  The defaults reproduce plain
    uniform random stimulus.
    """

    one_weight: float = 0.5
    hold_min: int = 1
    hold_max: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.one_weight <= 1.0:
            raise ValueError("one_weight must be in [0, 1]")
        if self.hold_min < 1 or self.hold_max < self.hold_min:
            raise ValueError("need 1 <= hold_min <= hold_max")


@dataclass(frozen=True)
class StimulusSpec:
    """Per-port constraints plus a default for unlisted ports."""

    constraints: Mapping[str, PortConstraint] = field(default_factory=dict)
    default: PortConstraint = PortConstraint()

    def constraint_for(self, port: str) -> PortConstraint:
        """The constraint governing one port."""
        return self.constraints.get(port, self.default)


def data_input_ports(module: Module) -> list[str]:
    """The randomizable input ports of a module, sorted by name: every
    input but the clock, the reset and the scan-mode inputs."""
    skip = {CLOCK_PORT, RESET_PORT, *scan_mode_inputs(module)}
    return sorted(
        name
        for name, port in module.ports.items()
        if port.direction == "input" and name not in skip
    )


def constrained_stimulus(
    module: Module,
    *,
    cycles: int,
    rng: np.random.Generator,
    spec: StimulusSpec | None = None,
) -> list[dict[str, int]]:
    """Generate ``cycles`` input vectors under a stimulus spec.

    Ports are processed in sorted order and each port's value stream
    is drawn as a whole column, so the result is a pure function of
    the generator state -- the determinism the closure loop's
    parallel fan-out relies on.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    spec = spec or StimulusSpec()
    ports = data_input_ports(module)
    columns: dict[str, list[int]] = {}
    for port in ports:
        constraint = spec.constraint_for(port)
        column: list[int] = []
        while len(column) < cycles:
            value = 1 if rng.random() < constraint.one_weight else 0
            if constraint.hold_max == 1:
                hold = 1
            else:
                hold = int(rng.integers(constraint.hold_min,
                                        constraint.hold_max + 1))
            column.extend([value] * min(hold, cycles - len(column)))
        columns[port] = column
    return [
        {port: columns[port][cycle] for port in ports}
        for cycle in range(cycles)
    ]


def spawn_test_seeds(
    seed: int, count: int, *, spawn_offset: int = 0
) -> list[np.random.SeedSequence]:
    """``count`` independent child seed streams of a base seed.

    Children ``spawn_offset .. spawn_offset+count-1`` of
    ``SeedSequence(seed)`` -- the closure loop passes the running test
    total as the offset so test *i* always receives child *i* no
    matter how tests are batched into rounds or partitioned across
    workers.
    """
    # Child k of SeedSequence(seed) is SeedSequence(seed, spawn_key=(k,));
    # constructing children directly keeps the offset arithmetic explicit.
    return [
        np.random.SeedSequence(seed, spawn_key=(spawn_offset + index,))
        for index in range(count)
    ]
