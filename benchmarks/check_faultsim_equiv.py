"""CI smoke check: production fault sim is bit-identical to its oracle.

Runs a small scanned netlist through the big-int oracle
(:func:`repro.oracles.faultsim.bigint_fault_sim`) and through
production :func:`repro.dft.random_pattern_fault_sim` serially and
under fault-partition fan-out, serializes each :class:`FaultSimResult`
to canonical JSON and requires the documents to compare *exactly* --
detected set, coverage curve, effective pattern set and
first-detecting-pattern attribution.

Exits non-zero (with a diff summary) on the first mismatch.
"""

from __future__ import annotations

import json
import sys
from functools import partial

import numpy as np

from repro.netlist import make_default_library, pipeline_block
from repro.dft import (
    CombinationalView,
    collapse_faults,
    enumerate_faults,
    insert_scan,
    random_pattern_fault_sim,
)
from repro.oracles.faultsim import bigint_fault_sim

#: label -> campaign; the oracle comes first and is the reference.
RUNS = {
    "oracle/workers=1": bigint_fault_sim,
    "compiled/workers=1": partial(random_pattern_fault_sim, workers=1),
    "compiled/workers=2": partial(random_pattern_fault_sim, workers=2),
}


def result_json(result) -> str:
    """Canonical JSON for a FaultSimResult (sorted, fully expanded)."""
    fault_key = lambda f: [f.instance, f.pin, f.stuck_at]  # noqa: E731
    doc = {
        "total_faults": result.total_faults,
        "patterns_applied": result.patterns_applied,
        "detected": sorted(fault_key(f) for f in result.detected),
        "coverage_curve": [list(point) for point in result.coverage_curve],
        "detection_index": sorted(
            [*fault_key(fault), index]
            for fault, index in result.detection_index.items()
        ),
        "effective_patterns": [
            sorted(pattern.items()) for pattern in result.effective_patterns
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def main() -> int:
    lib = make_default_library(0.25)
    block = pipeline_block("ci_equiv", lib, stages=2, width=8,
                           cloud_gates=40, seed=17)
    scanned, _ = insert_scan(block, n_chains=2)
    view = CombinationalView(scanned)
    faults = collapse_faults(scanned, enumerate_faults(scanned))

    documents = {}
    for label, campaign in RUNS.items():
        result = campaign(
            view, faults, rng=np.random.default_rng(23),
            max_patterns=256, batch_size=64,
        )
        documents[label] = result_json(result)
        coverage = len(result.detected) / result.total_faults
        print(f"{label:24s} detected {len(result.detected)}/"
              f"{result.total_faults} ({coverage:.1%})")

    labels = list(documents)
    reference = documents[labels[0]]
    for label in labels[1:]:
        if documents[label] != reference:
            print(f"MISMATCH: {label} != {labels[0]}", file=sys.stderr)
            for ref_line, other_line in zip(
                reference.splitlines(), documents[label].splitlines()
            ):
                if ref_line != other_line:
                    print(f"  - {ref_line}", file=sys.stderr)
                    print(f"  + {other_line}", file=sys.stderr)
                    break
            return 1
    print(f"OK: {len(labels)} runs bit-identical "
          f"({len(reference)} bytes of canonical JSON each)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
