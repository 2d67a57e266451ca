"""Bit-parallel stuck-at fault simulation on full-scan netlists.

Under full scan every flip-flop is a pseudo primary input (its Q net)
and pseudo primary output (its D net), so test generation reduces to
the combinational network between scan elements.
:class:`CombinationalView` extracts that network from a module: its
pseudo inputs and outputs, per-cell truth tables, the CNF encoding
ATPG and equivalence share, and memoized fanout cones and supports.

Every fault-detection job runs on the fused flat-program kernel of
:mod:`repro.dft.compiled`: campaign grading in
:func:`random_pattern_fault_sim`, ATPG, dictionary diagnosis and
:func:`simulate_single_pattern`.  Patterns ride the bit lanes of
``uint64`` words, and each fault re-evaluates only its fanout cone --
the classic serial-fault / parallel-pattern scheme, fused across the
whole fault universe.  The big-int evaluator, one Python integer per
net (:mod:`repro.oracles.faultsim`), is its test oracle, and the two
produce bit-identical results for the same RNG seed.
:func:`random_pattern_fault_sim` can fan the fault list out over a
process pool (:mod:`repro.perf`) with a deterministic merge, so the
result is independent of worker count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from ..netlist import Logic, Module
from ..netlist.clocks import CLOCK_PORT, is_scan_port, scan_mode_inputs
from ..netlist.library import Cell
from ..netlist.netlist import Instance
from ..perf import fanout, stage_timer
from .compiled import compiled_batch_hits
from .faults import Fault

if TYPE_CHECKING:
    from ..sat import CnfBuilder

#: Truth tables cached per Cell at module level: repeated
#: CombinationalView construction (benchmarks build many views over
#: the same library) reuses them instead of re-enumerating 2^n rows.
_TRUTH_CACHE: dict[Cell, tuple[tuple[int, ...], ...]] = {}


def _truth_minterms(cell: Cell) -> tuple[tuple[int, ...], ...]:
    """Input combinations (one tuple of 0/1 per input pin) for which a
    combinational cell outputs 1.  Cached per cell."""
    cached = _TRUTH_CACHE.get(cell)
    if cached is not None:
        return cached
    inputs = cell.input_pins
    minterms: list[tuple[int, ...]] = []
    for row in range(1 << len(inputs)):
        assignment = {
            pin: Logic((row >> k) & 1) for k, pin in enumerate(inputs)
        }
        if cell.evaluate(assignment) is Logic.ONE:
            minterms.append(tuple((row >> k) & 1 for k in range(len(inputs))))
    result = tuple(minterms)
    _TRUTH_CACHE[cell] = result
    return result


class CombinationalView:
    """The scan-test view of a module: combinational logic between
    pseudo primary inputs and pseudo primary outputs.  The clock and
    the scan ports are test infrastructure, not functional data."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self._order: list[Instance] = module.topological_combinational_order()
        self._minterms: dict[str, tuple[tuple[int, ...], ...]] = {}
        for inst in self._order:
            if inst.cell.name not in self._minterms:
                self._minterms[inst.cell.name] = _truth_minterms(inst.cell)
        #: Per cell, the on-set as :meth:`CnfBuilder.gate` takes it.
        self._tables = {
            name: sum(1 << sum(bit << k for k, bit in enumerate(row))
                      for row in rows)
            for name, rows in self._minterms.items()
        }

        flops = module.sequential_instances
        control = {CLOCK_PORT, *scan_mode_inputs(module)}
        port_inputs = [
            name for name, p in module.ports.items()
            if p.direction == "input" and name not in control
        ]
        self.pseudo_inputs: list[str] = port_inputs + sorted(
            f.net_of("Q") for f in flops
        )
        port_outputs = [
            name for name, p in module.ports.items()
            if p.direction == "output" and not is_scan_port(name)
        ]
        self.pseudo_outputs: list[str] = port_outputs + sorted(
            f.net_of(f.cell.data_pin) for f in flops
        )
        # Fanout adjacency: net -> combinational instances loading it.
        self._net_loads: dict[str, list[str]] = {}
        for inst in self._order:
            for pin in inst.cell.input_pins:
                self._net_loads.setdefault(inst.net_of(pin), []).append(inst.name)
        self._topo_index = {inst.name: k for k, inst in enumerate(self._order)}
        # Per-instance memos: a fault-sim campaign queries the same
        # cones for every fault in every batch.
        self._cone_cache: dict[str, tuple[Instance, ...]] = {}
        self._support_cache: dict[str, tuple[str, ...]] = {}

    def __getstate__(self) -> dict[str, Any]:
        # Drop memo caches when shipping the view to pool workers;
        # each worker rebuilds them as it simulates.
        state = self.__dict__.copy()
        state["_cone_cache"] = {}
        state["_support_cache"] = {}
        return state

    # -- patterns and encoding ----------------------------------------

    def random_pattern_bits(
        self, rng: np.random.Generator, count: int
    ) -> dict[str, np.ndarray]:
        """``count`` random patterns as unpacked 0/1 vectors per
        pseudo input (the pattern source production grading and its
        oracle share)."""
        return {
            net: rng.integers(0, 2, size=count, dtype=np.uint8)
            for net in self.pseudo_inputs
        }

    def compare_points(self) -> tuple[dict[str, str], dict[str, str]]:
        """Pseudo inputs and outputs keyed by identity, net as value: a
        port by its name, a flop by ``instance/pin`` (Q in, data pin
        out), whatever its nets are called."""
        flops = self.module.sequential_instances
        ports = slice(0, -len(flops) or None)  # port nets come first
        inputs = {net: net for net in self.pseudo_inputs[ports]}
        outputs = {net: net for net in self.pseudo_outputs[ports]}
        for flop in flops:
            pin = flop.cell.data_pin
            assert pin is not None  # sequential cells name their data pin
            inputs[f"{flop.name}/Q"] = flop.net_of("Q")
            outputs[f"{flop.name}/{pin}"] = flop.net_of(pin)
        return inputs, outputs

    def encode(
        self, cnf: CnfBuilder, input_literals: Mapping[str, int]
    ) -> dict[str, int]:
        """Every net's literal in ``cnf``, one ``cnf.gate`` per instance;
        undriven nets and pseudo inputs missing from ``input_literals``
        read false, as they read 0 in fault simulation."""
        lits = dict.fromkeys(self.module.nets, cnf.false_lit)
        for net in self.pseudo_inputs:
            lits[net] = input_literals.get(net, cnf.false_lit)
        for inst in self._order:
            lits[inst.net_of(inst.cell.output_pins[0])] = cnf.gate(
                self._tables[inst.cell.name],
                [lits[inst.net_of(pin)] for pin in inst.cell.input_pins],
            )
        return lits

    # -- fault machinery ------------------------------------------------

    def fanout_cone(self, start_instance: str) -> Sequence[Instance]:
        """Combinational instances affected by ``start_instance``'s
        output, in topological order (including the start).  Memoized;
        treat the result as read-only."""
        cached = self._cone_cache.get(start_instance)
        if cached is not None:
            return cached
        seen = {start_instance}
        queue = deque([start_instance])
        while queue:
            name = queue.popleft()
            inst = self.module.instances[name]
            if inst.cell.is_sequential:
                continue
            out_net = inst.net_of(inst.cell.output_pins[0])
            for load in self._net_loads.get(out_net, ()):
                if load not in seen:
                    seen.add(load)
                    queue.append(load)
        members = [self.module.instances[n] for n in seen
                   if not self.module.instances[n].cell.is_sequential]
        members.sort(key=lambda i: self._topo_index[i.name])
        result = tuple(members)
        self._cone_cache[start_instance] = result
        return result

    def support(self, instance: str) -> Sequence[str]:
        """Pseudo inputs in the transitive fanin of an instance.
        Memoized; treat the result as read-only."""
        cached = self._support_cache.get(instance)
        if cached is not None:
            return cached
        pi_set = set(self.pseudo_inputs)
        found: set[str] = set()
        seen_inst = {instance}
        queue = deque([instance])
        while queue:
            inst = self.module.instances[queue.popleft()]
            if inst.cell.is_sequential:
                continue
            for pin in inst.cell.input_pins:
                net = self.module.nets[inst.net_of(pin)]
                if net.name in pi_set:
                    found.add(net.name)
                if net.driver is not None:
                    drv = net.driver.instance
                    if drv not in seen_inst:
                        driver_inst = self.module.instances[drv]
                        if driver_inst.cell.is_sequential:
                            # its Q net is a pseudo input, caught above
                            continue
                        seen_inst.add(drv)
                        queue.append(drv)
        result = tuple(sorted(found))
        self._support_cache[instance] = result
        return result


@dataclass
class FaultSimResult:
    """Outcome of a fault-simulation campaign."""

    total_faults: int
    detected: set[Fault] = field(default_factory=set)
    patterns_applied: int = 0
    #: (cumulative patterns, cumulative coverage) after each batch.
    coverage_curve: list[tuple[int, float]] = field(default_factory=list)
    #: Single-pattern test set: for every detected fault, the first
    #: pattern that detected it (deduplicated; one dict of 0/1 values
    #: per pseudo input).
    effective_patterns: list[dict[str, int]] = field(default_factory=list)
    #: fault -> index into :attr:`effective_patterns` of the pattern
    #: that first detected it.
    detection_index: dict[Fault, int] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        if self.total_faults == 0:
            return 1.0
        return len(self.detected) / self.total_faults

    def detecting_pattern(self, fault: Fault) -> dict[str, int] | None:
        """The recorded pattern that first detected ``fault``."""
        index = self.detection_index.get(fault)
        if index is None:
            return None
        return self.effective_patterns[index]


def _record_batch(
    result: FaultSimResult,
    view: CombinationalView,
    bits: Mapping[str, np.ndarray],
    width: int,
    hits: Mapping[Fault, int],
) -> None:
    """Fold one batch's detections into the running result."""
    result.detected.update(hits)
    result.patterns_applied += width
    result.coverage_curve.append((result.patterns_applied, result.coverage))
    by_bit: dict[int, list[Fault]] = {}
    for fault, bit in hits.items():
        by_bit.setdefault(bit, []).append(fault)
    for bit in sorted(by_bit):
        pattern = {
            net: int(bits[net][bit]) for net in view.pseudo_inputs
        }
        index = len(result.effective_patterns)
        result.effective_patterns.append(pattern)
        for fault in by_bit[bit]:
            result.detection_index[fault] = index


def _batch_schedule(max_patterns: int, batch_size: int) -> list[int]:
    """Batch widths the serial loop would use, in order."""
    widths: list[int] = []
    applied = 0
    while applied < max_patterns:
        width = min(batch_size, max_patterns - applied)
        widths.append(width)
        applied += width
    return widths


_PartitionTask = tuple[
    CombinationalView, list[Fault], str, Mapping[str, Any], list[int],
]


def _fault_partition_worker(
    task: _PartitionTask,
) -> dict[Fault, tuple[int, int]]:
    """Simulate one fault partition over the shared pattern schedule.

    Returns fault -> (batch index, pattern bit) of its first
    detection.  Every worker regenerates the identical pattern stream
    from the snapshotted RNG state, so detections are exactly the ones
    the serial loop would have seen.
    """
    view, faults, generator_name, rng_state, widths = task
    bit_generator = getattr(np.random, generator_name)()
    bit_generator.state = rng_state
    rng = np.random.Generator(bit_generator)
    remaining = list(faults)
    first: dict[Fault, tuple[int, int]] = {}
    for batch_index, width in enumerate(widths):
        if not remaining:
            break
        bits = view.random_pattern_bits(rng, width)
        hits = compiled_batch_hits(view, bits, width, remaining)
        for fault, bit in hits.items():
            first[fault] = (batch_index, bit)
        remaining = [f for f in remaining if f not in hits]
    return first


def random_pattern_fault_sim(
    view: CombinationalView,
    faults: Sequence[Fault],
    *,
    rng: np.random.Generator,
    max_patterns: int = 4096,
    batch_size: int = 64,
    workers: int = 1,
) -> FaultSimResult:
    """Random-pattern fault simulation with fault dropping.

    Applies batches of random patterns until ``max_patterns`` is
    reached or every fault is detected; detected faults are dropped
    from further simulation.  Each batch is graded on the fused
    flat-program kernel of :mod:`repro.dft.compiled`.  ``workers >
    1`` partitions the fault list over a process pool; the merge
    replays the serial batch loop from per-fault first-detection
    records, so the result (and the caller's ``rng`` state afterwards)
    is identical for any worker count.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n_workers = max(1, int(workers)) if workers is not None else 1
    with stage_timer("dft.fault_sim") as stats:
        if n_workers > 1 and len(faults) > 1:
            result = _parallel_fault_sim(
                view, faults, rng=rng, max_patterns=max_patterns,
                batch_size=batch_size, workers=n_workers,
            )
        else:
            result = _serial_fault_sim(
                view, faults, rng=rng, max_patterns=max_patterns,
                batch_size=batch_size,
            )
        stats.add(patterns=result.patterns_applied,
                  faults=len(faults),
                  detected=len(result.detected))
    return result


def _serial_fault_sim(
    view: CombinationalView,
    faults: Sequence[Fault],
    *,
    rng: np.random.Generator,
    max_patterns: int,
    batch_size: int,
) -> FaultSimResult:
    result = FaultSimResult(total_faults=len(faults))
    remaining: list[Fault] = list(faults)
    while result.patterns_applied < max_patterns and remaining:
        width = min(batch_size, max_patterns - result.patterns_applied)
        bits = view.random_pattern_bits(rng, width)
        hits = compiled_batch_hits(view, bits, width, remaining)
        _record_batch(result, view, bits, width, hits)
        remaining = [f for f in remaining if f not in hits]
    return result


def _parallel_fault_sim(
    view: CombinationalView,
    faults: Sequence[Fault],
    *,
    rng: np.random.Generator,
    max_patterns: int,
    batch_size: int,
    workers: int,
) -> FaultSimResult:
    """Fault-partition fan-out with a deterministic serial replay.

    Workers each simulate a contiguous slice of the fault list against
    the full pattern schedule (regenerated from a snapshot of ``rng``).
    The parent then replays the serial batch loop -- advancing its own
    ``rng`` identically -- using the merged first-detection records
    instead of re-simulating, so it stops where the serial path does:
    at ``max_patterns`` or once every fault is detected.
    """
    widths = _batch_schedule(max_patterns, batch_size)
    generator_name = type(rng.bit_generator).__name__
    rng_state = rng.bit_generator.state
    n_chunks = min(workers, len(faults))
    bounds = np.linspace(0, len(faults), n_chunks + 1).astype(int)
    tasks = [
        (view, list(faults[bounds[k]:bounds[k + 1]]), generator_name,
         rng_state, widths)
        for k in range(n_chunks)
        if bounds[k] < bounds[k + 1]
    ]
    first: dict[Fault, tuple[int, int]] = {}
    for part in fanout(_fault_partition_worker, tasks, workers=workers,
                       stage="dft.fault_sim.fanout"):
        first.update(part)

    by_batch: dict[int, dict[Fault, int]] = {}
    for fault in faults:  # original order, for stable grouping
        hit = first.get(fault)
        if hit is not None:
            batch_index, bit = hit
            by_batch.setdefault(batch_index, {})[fault] = bit

    result = FaultSimResult(total_faults=len(faults))
    remaining_count = len(faults)
    for batch_index, width in enumerate(widths):
        if result.patterns_applied >= max_patterns or remaining_count == 0:
            break
        bits = view.random_pattern_bits(rng, width)  # same stream as serial
        hits = by_batch.get(batch_index, {})
        _record_batch(result, view, bits, width, hits)
        remaining_count -= len(hits)
    return result


def simulate_single_pattern(
    view: CombinationalView,
    pattern: Mapping[str, int],
    faults: Iterable[Fault],
) -> set[Fault]:
    """Which of ``faults`` does one (unpacked, 1-bit) pattern detect?

    Graded as a one-pattern batch on the compiled kernel; pseudo
    inputs missing from ``pattern`` read 0.
    """
    bits = {
        net: np.array([pattern.get(net, 0)], dtype=np.uint8)
        for net in view.pseudo_inputs
    }
    return set(compiled_batch_hits(view, bits, 1, list(faults)))
