"""Big-int fault simulation: the oracle of compiled fault detection.

:func:`evaluate` runs the good machine of a scan view with one Python
integer per net (bit *k* is pattern *k*), and :func:`detect_mask`
walks one fault's fanout cone over those values, returning the
patterns that detect it.  :func:`bigint_batch_hits` grades one batch
with them, and :func:`bigint_fault_sim` runs a whole serial
fault-dropping campaign on it.  Production detection runs only on the
compiled kernel of :mod:`repro.dft.compiled`, and must reproduce both
bit for bit: per-fault detection masks
(:func:`~repro.dft.compiled.detection_masks`, under dictionary
diagnosis), and the detected set, coverage curve, effective patterns
and first-detecting-pattern attribution of
:func:`~repro.dft.compiled.compiled_batch_hits` under
:func:`repro.dft.random_pattern_fault_sim`, serial or fanned out.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..dft.faults import Fault
from ..dft.faultsim import CombinationalView, FaultSimResult, _record_batch
from ..netlist.netlist import Instance

__all__ = [
    "bigint_batch_hits",
    "bigint_fault_sim",
    "detect_mask",
    "evaluate",
    "random_patterns",
]


def _pack_bigint(bits: np.ndarray) -> int:
    """Pack a 0/1 ``uint8`` vector into one Python big integer."""
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little"
    )


def random_patterns(
    view: CombinationalView, rng: np.random.Generator, count: int
) -> dict[str, int]:
    """Pack ``count`` random patterns: one integer per pseudo input,
    bit *k* of each integer is pattern *k*'s value."""
    return {
        net: _pack_bigint(bits)
        for net, bits in view.random_pattern_bits(rng, count).items()
    }


def _eval_instance(view: CombinationalView, inst: Instance,
                   values: Mapping[str, int], mask: int,
                   forced_pin: str | None = None,
                   forced_value: int = 0) -> int:
    minterms = view._minterms[inst.cell.name]
    pins = inst.cell.input_pins
    in_values = []
    for pin in pins:
        if pin == forced_pin:
            in_values.append(forced_value)
        else:
            in_values.append(values.get(inst.net_of(pin), 0))
    out = 0
    for minterm in minterms:
        term = mask
        for bit, value in zip(minterm, in_values):
            term &= value if bit else (~value & mask)
            if not term:
                break
        out |= term
    return out


def evaluate(
    view: CombinationalView, packed_inputs: Mapping[str, int], width: int
) -> dict[str, int]:
    """Evaluate all nets for a packed batch of ``width`` patterns."""
    mask = (1 << width) - 1
    values: dict[str, int] = {
        net: packed_inputs.get(net, 0) for net in view.pseudo_inputs
    }
    for inst in view._order:
        out_net = inst.net_of(inst.cell.output_pins[0])
        values[out_net] = _eval_instance(view, inst, values, mask)
    return values


def detect_mask(
    view: CombinationalView,
    fault: Fault,
    good_values: Mapping[str, int],
    width: int,
) -> int:
    """Bitmask of patterns (within the evaluated batch) that detect
    ``fault``, given the good-circuit net values."""
    mask = (1 << width) - 1
    inst = view.module.instances[fault.instance]
    stuck = mask if fault.stuck_at else 0
    overlay: dict[str, int] = {}

    def value_of(net: str) -> int:
        if net in overlay:
            return overlay[net]
        return good_values.get(net, 0)

    direction = inst.cell.pin(fault.pin).direction
    if direction == "output":
        out_net = inst.net_of(fault.pin)
        if value_of(out_net) == stuck:
            return 0  # fault never activated in this batch
        overlay[out_net] = stuck
    else:
        faulty = _eval_instance(
            view, inst, _OverlayView(overlay, good_values), mask,
            forced_pin=fault.pin, forced_value=stuck,
        )
        out_net = inst.net_of(inst.cell.output_pins[0])
        if faulty == good_values.get(out_net, 0):
            return 0
        overlay[out_net] = faulty

    for member in view.fanout_cone(fault.instance):
        if member.name == fault.instance:
            continue
        new = _eval_instance(
            view, member, _OverlayView(overlay, good_values), mask
        )
        member_out = member.net_of(member.cell.output_pins[0])
        if new != good_values.get(member_out, 0):
            overlay[member_out] = new

    detected = 0
    for net in view.pseudo_outputs:
        if net in overlay:
            detected |= overlay[net] ^ good_values.get(net, 0)
    return detected & mask


class _OverlayView(dict):
    """Read-through overlay: fault values shadow good values."""

    def __init__(self, overlay: dict, base: Mapping) -> None:
        super().__init__()
        self._overlay = overlay
        self._base = base

    def get(self, key: str, default: Any = 0) -> Any:
        if key in self._overlay:
            return self._overlay[key]
        return self._base.get(key, default)


def bigint_batch_hits(
    view: CombinationalView,
    bits: Mapping[str, np.ndarray],
    width: int,
    remaining: Sequence[Fault],
) -> dict[Fault, int]:
    """Big-int batch: fault -> first detecting bit."""
    packed = {net: _pack_bigint(vec) for net, vec in bits.items()}
    good = evaluate(view, packed, width)
    hits: dict[Fault, int] = {}
    for fault in remaining:
        mask = detect_mask(view, fault, good, width)
        if mask:
            hits[fault] = (mask & -mask).bit_length() - 1
    return hits


def bigint_fault_sim(
    view: CombinationalView,
    faults: Sequence[Fault],
    *,
    rng: np.random.Generator,
    max_patterns: int = 4096,
    batch_size: int = 64,
) -> FaultSimResult:
    """Serial random-pattern campaign with fault dropping.

    Draws each batch from ``rng`` with
    :meth:`~repro.dft.faultsim.CombinationalView.random_pattern_bits`,
    grades it with :func:`bigint_batch_hits`, books it with
    production's ``_record_batch`` (each newly detected fault under the
    first pattern that caught it), and stops at ``max_patterns`` or
    when no fault is left.
    """
    result = FaultSimResult(total_faults=len(faults))
    remaining = list(faults)
    while result.patterns_applied < max_patterns and remaining:
        width = min(batch_size, max_patterns - result.patterns_applied)
        bits = view.random_pattern_bits(rng, width)
        hits = bigint_batch_hits(view, bits, width, remaining)
        _record_batch(result, view, bits, width, hits)
        remaining = [f for f in remaining if f not in hits]
    return result
