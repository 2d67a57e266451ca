"""Big-int fault simulation: the oracle of compiled fault grading.

:func:`bigint_batch_hits` grades one batch with one Python integer per
net: a good-machine evaluation of the scan view, then one
:meth:`~repro.dft.faultsim.CombinationalView.detect_mask` cone walk per
fault.  :func:`bigint_fault_sim` runs a whole serial fault-dropping
campaign on it.  Production grading
(:func:`repro.dft.compiled.compiled_batch_hits` under
:func:`repro.dft.random_pattern_fault_sim`, serial or fanned out) must
reproduce both bit for bit: detected set, coverage curve, effective
patterns and first-detecting-pattern attribution.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..dft.faults import Fault
from ..dft.faultsim import (
    CombinationalView,
    FaultSimResult,
    _pack_bigint,
    _record_batch,
)

__all__ = ["bigint_batch_hits", "bigint_fault_sim"]


def bigint_batch_hits(
    view: CombinationalView,
    bits: Mapping[str, np.ndarray],
    width: int,
    remaining: Sequence[Fault],
) -> dict[Fault, int]:
    """Big-int batch: fault -> first detecting bit."""
    packed = {net: _pack_bigint(vec) for net, vec in bits.items()}
    good = view.evaluate(packed, width)
    hits: dict[Fault, int] = {}
    for fault in remaining:
        mask = view.detect_mask(fault, good, width)
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
