"""Fault diagnosis: from failing test responses back to the defect.

Section 3: "manufacturing test uncovered that the yield killer (5%
loss) was in the insufficient driving strength of an output buffer in
the CPU."  Finding *which* circuit node is killing dies is diagnosis:
compare the tester's observed failing responses against the predicted
responses of every candidate fault (a fault dictionary) and rank
candidates by match quality.

This module implements dictionary-based diagnosis on the scan view:
build the dictionary with the compiled fault kernel
(:func:`~repro.dft.compiled.detection_masks`, every detecting pattern
of every fault), observe a 'silicon' defect's signature, and rank.
The E8 story becomes fully mechanical: inject the weak-driver fault,
diagnose it from tester data alone, and hand the located instance to
the metal-ECO engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .compiled import detection_masks
from .faults import Fault
from .faultsim import CombinationalView

#: Patterns per batch :func:`build_dictionary` draws: one 64-bit word.
_BATCH_PATTERNS = 64

#: Candidates :meth:`FaultDictionary.diagnose` keeps, best first;
#: every exact match is kept even past it.
_TOP_CANDIDATES = 10

#: Candidates :meth:`DiagnosisResult.format_report` lists.
_REPORT_CANDIDATES = 5


@dataclass(frozen=True)
class FailureSignature:
    """Per-pattern detection bits observed at the tester."""

    pattern_count: int
    #: For each applied pattern batch, the bitmask of failing patterns.
    failing_masks: tuple[int, ...]

    def matches(self, other: "FailureSignature") -> bool:
        return self.failing_masks == other.failing_masks

    def hamming_to(self, other: "FailureSignature") -> int:
        """Number of (pattern, fail/pass) disagreements."""
        distance = 0
        for mine, theirs in zip(self.failing_masks, other.failing_masks):
            distance += bin(mine ^ theirs).count("1")
        return distance


@dataclass
class DiagnosisCandidate:
    fault: Fault
    distance: int
    exact: bool


@dataclass
class DiagnosisResult:
    """Ranked candidates for one failing unit."""

    candidates: list[DiagnosisCandidate] = field(default_factory=list)

    @property
    def best(self) -> DiagnosisCandidate | None:
        return self.candidates[0] if self.candidates else None

    @property
    def exact_candidates(self) -> list[Fault]:
        return [c.fault for c in self.candidates if c.exact]

    def format_report(self) -> str:
        lines = ["Diagnosis candidates (best first):"]
        for candidate in self.candidates[:_REPORT_CANDIDATES]:
            marker = "EXACT" if candidate.exact else f"d={candidate.distance}"
            lines.append(f"  {candidate.fault!s:32s} {marker}")
        return "\n".join(lines)


class FaultDictionary:
    """Predicted failure signatures for every candidate fault."""

    def __init__(
        self,
        view: CombinationalView,
        patterns: Sequence[Mapping[str, np.ndarray]],
        faults: Sequence[Fault],
    ) -> None:
        """``patterns`` are pattern batches as
        :meth:`CombinationalView.random_pattern_bits` draws them: one
        0/1 vector per pseudo input, as long as the batch is wide."""
        self.view = view
        self.patterns = list(patterns)
        self.faults = list(faults)
        self._widths = [
            len(next(iter(batch.values()))) for batch in self.patterns
        ]
        #: Patterns applied across every batch.
        self.pattern_count = sum(self._widths)
        per_batch = [
            detection_masks(view, self.faults, batch, width)
            for batch, width in zip(self.patterns, self._widths)
        ]
        self._signatures: dict[Fault, FailureSignature] = {
            fault: FailureSignature(
                pattern_count=self.pattern_count,
                failing_masks=tuple(masks[fault] for masks in per_batch),
            )
            for fault in self.faults
        }

    def signature_of(self, fault: Fault) -> FailureSignature:
        """The predicted tester signature of a candidate fault."""
        return self._signatures[fault]

    def observe(self, defect: Fault) -> FailureSignature:
        """Simulate 'silicon' with the defect and record what the
        tester sees (same computation, but conceptually this side is
        measurement)."""
        return FailureSignature(
            pattern_count=self.pattern_count,
            failing_masks=tuple(
                detection_masks(self.view, [defect], batch, width)[defect]
                for batch, width in zip(self.patterns, self._widths)
            ),
        )

    def diagnose(self, observed: FailureSignature) -> DiagnosisResult:
        """Rank dictionary faults by signature distance.

        All exact (distance-0) matches are always returned -- they are
        indistinguishable equivalents of the defect and truncating
        them would hide the true site; the list is cut at
        ``_TOP_CANDIDATES`` only when fewer faults match exactly.
        """
        scored = []
        for fault, signature in self._signatures.items():
            distance = signature.hamming_to(observed)
            scored.append(
                DiagnosisCandidate(
                    fault=fault,
                    distance=distance,
                    exact=distance == 0,
                )
            )
        scored.sort(key=lambda c: (c.distance, str(c.fault)))
        exact_count = sum(1 for c in scored if c.exact)
        keep = max(_TOP_CANDIDATES, exact_count)
        return DiagnosisResult(candidates=scored[:keep])


def build_dictionary(
    view: CombinationalView,
    faults: Sequence[Fault],
    *,
    n_batches: int = 4,
    seed: int = 0,
) -> FaultDictionary:
    """Convenience constructor with ``n_batches`` random 64-pattern
    batches drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    patterns = [
        view.random_pattern_bits(rng, _BATCH_PATTERNS)
        for _ in range(n_batches)
    ]
    return FaultDictionary(view, patterns, faults)
