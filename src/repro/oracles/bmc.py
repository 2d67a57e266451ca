"""Compiled-lane property checking: the oracle of CDCL BMC.

:func:`check_properties_lanes` decides the same assert and cover
properties as :func:`repro.formal.check_properties`, on the same input
protocol (clock and scan ports tied low, reset-then-release, free ports
binary), by simulating stimulus lanes on a
:class:`~repro.sim.compiled.BatchSimulator` from power-on.  Below
:data:`LANES_EXHAUSTIVE_BITS` free input bits it enumerates every
stimulus, so a verdict without a counterexample is proven; above it,
:data:`LANES_RANDOM` seeded random lanes run and an unresolved
property reports ``unknown``.  Its checks record ``engine="lanes"``.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from ..formal.bmc import (
    BmcError,
    BmcReport,
    Counterexample,
    PropertyCheck,
    _InputPlan,
    _plan_inputs,
    _split_properties,
)
from ..formal.properties import Property, PropertySet
from ..netlist import Logic, Module
from ..sim import VENDOR_A_SIM
from ..sim.compiled import BatchSimulator, compile_module
from ..sim.simulator import SimulatorConfig

__all__ = [
    "LANES_EXHAUSTIVE_BITS",
    "LANES_RANDOM",
    "check_properties_lanes",
]

#: Free-stimulus budget below which the ``lanes`` checker enumerates
#: every binary input combination (2**bits simulator lanes) and its
#: no-counterexample verdict is therefore *proven*, not sampled.
LANES_EXHAUSTIVE_BITS = 14

#: Seeded random stimulus lanes when exhaustive enumeration is too big.
LANES_RANDOM = 256


def _lane_stimuli(
    plan: _InputPlan,
    depth: int,
    reset_frames: int,
    seed: int,
) -> tuple[list[list[dict[str, Logic]]], bool]:
    """Per-lane stimulus sequences and whether they are exhaustive."""
    free_bits = len(plan.free_ports) * depth
    protocol: list[dict[str, Logic]] = []
    for t in range(depth):
        vector: dict[str, Logic] = {}
        if plan.clock_port is not None:
            vector[plan.clock_port] = Logic.ZERO
        for port, value in plan.tied:
            vector[port] = value
        for port in plan.reset_ports:
            vector[port] = (
                Logic.ZERO if t < reset_frames else Logic.ONE
            )
        protocol.append(vector)

    if free_bits <= LANES_EXHAUSTIVE_BITS:
        lanes = []
        for pattern in range(1 << free_bits):
            sequence = []
            bit = 0
            for t in range(depth):
                vector = dict(protocol[t])
                for port in plan.free_ports:
                    vector[port] = Logic.from_bool(
                        bool((pattern >> bit) & 1)
                    )
                    bit += 1
                sequence.append(vector)
            lanes.append(sequence)
        return lanes, True

    rng = np.random.default_rng(seed)
    bits = rng.integers(
        0, 2, size=(LANES_RANDOM, depth, len(plan.free_ports))
    )
    lanes = []
    for lane in range(LANES_RANDOM):
        sequence = []
        for t in range(depth):
            vector = dict(protocol[t])
            for k, port in enumerate(plan.free_ports):
                vector[port] = Logic.from_bool(bool(bits[lane, t, k]))
            sequence.append(vector)
        lanes.append(sequence)
    return lanes, False


def _check_one_lanes(
    module: Module,
    config: SimulatorConfig,
    prop: Property,
    assumes: tuple[Property, ...],
    depth: int,
    seed: int,
    clock_port: str,
    reset_frames: int,
) -> PropertyCheck:
    """Decide one property by compiled-lane simulation."""
    program = compile_module(module, config)
    plan = _plan_inputs(program, clock_port)
    stimuli, exhaustive = _lane_stimuli(
        plan, depth, reset_frames, seed
    )
    sim = BatchSimulator(module, config, lanes=len(stimuli))

    # valid_until[lane]: first frame where an assume fails (or depth).
    valid_until = [depth] * len(stimuli)
    values: list[list[Logic]] = []  # [frame][lane]
    for t in range(depth):
        sim.set_lane_inputs([seq[t] for seq in stimuli])
        sim.evaluate()
        row: list[Logic] = []
        for lane in range(len(stimuli)):
            read = partial(sim.read, lane=lane)
            for assume in assumes:
                if (valid_until[lane] >= t
                        and assume.expr.evaluate(read)
                        is not Logic.ONE):
                    valid_until[lane] = t
            row.append(prop.expr.evaluate(read))
        values.append(row)
        if t < depth - 1 and plan.clock_port is not None:
            sim.clock_edge(plan.clock_port)

    def build_cex(lane: int, frame: int, kind: str) -> Counterexample:
        frames = tuple(
            {p: v for p, v in sorted(vec.items())
             if p != plan.clock_port}
            for vec in stimuli[lane]
        )
        bound = frame + 1 if kind == "witness" else depth
        return Counterexample(
            kind=kind,
            frame=frame,
            frames=frames[:bound],
            nets=(),
            clock_port=plan.clock_port,
        )

    hit: tuple[int, int] | None = None
    if prop.kind == "assert":
        for end in range(prop.within - 1, depth):
            for lane in range(len(stimuli)):
                if valid_until[lane] <= end:
                    continue
                if all(
                    values[t][lane] is Logic.ZERO
                    for t in range(end - prop.within + 1, end + 1)
                ):
                    hit = (lane, end)
                    break
            if hit:
                break
        if hit:
            status = "falsified"
            cex = build_cex(hit[0], hit[1], "violation")
        else:
            status = "proven" if exhaustive else "unknown"
            cex = None
    elif prop.kind == "cover":
        bound = depth if prop.within == 1 else min(prop.within, depth)
        for t in range(bound):
            for lane in range(len(stimuli)):
                if valid_until[lane] > t and \
                        values[t][lane] is Logic.ONE:
                    hit = (lane, t)
                    break
            if hit:
                break
        if hit:
            status = "covered"
            cex = build_cex(hit[0], hit[1], "witness")
        else:
            status = "unreachable" if exhaustive else "unknown"
            cex = None
    else:  # pragma: no cover - filtered by _split_properties
        raise BmcError(f"cannot check a {prop.kind!r} property")

    return PropertyCheck(
        name=prop.name,
        kind=prop.kind,
        fingerprint=prop.fingerprint,
        expr=prop.expr.describe(),
        within=prop.within,
        status=status,
        depth=depth,
        engine="lanes",
        counterexample=cex,
        message=prop.message,
    )


def check_properties_lanes(
    module: Module,
    properties: PropertySet | Sequence[Property],
    *,
    depth: int,
    config: SimulatorConfig | None = None,
    seed: int = 0,
    clock_port: str = "clk",
    reset_frames: int = 1,
) -> BmcReport:
    """:func:`repro.formal.check_properties` by lane simulation.

    Takes the same arguments, validated the same way, except
    ``initial_state`` (every run starts from power-on) and ``workers``
    (properties are checked one after another).  Assume properties
    mask out the lanes that violate them.
    """
    assumes, targets = _split_properties(module, properties, depth)
    config = config or VENDOR_A_SIM
    checks = tuple(
        _check_one_lanes(module, config, prop, assumes, depth, seed,
                         clock_port, reset_frames)
        for prop in targets
    )
    return BmcReport(
        module=module.name,
        depth=depth,
        engine="lanes",
        seed=seed,
        config=config.name,
        checks=checks,
    )
