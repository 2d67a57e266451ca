"""Functional coverage primitives: covergroups, bins, cross coverage.

The SystemVerilog covergroup model in miniature: a
:class:`CoverGroup` owns named :class:`Coverpoint` objects (each a set
of value/range :class:`CoverBin` buckets over an integer sampled from
one or more netlist signals) and :class:`CoverCross` products between
point pairs.  Sampling is a pure bookkeeping operation over a
``bin id -> hit count`` dict, which keeps the group itself an
immutable, picklable *specification*: parallel coverage workers each
sample into their own hit dict and the databases merge exactly
(:mod:`repro.coverage.database`).

This is the "functional" half of knowing when verification is done --
the structural half (toggle/flop coverage) is the universe of
:func:`repro.coverage.database.structural_universe`, collected as
word masks in :mod:`repro.coverage.closure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, MutableMapping, Sequence


@dataclass(frozen=True)
class CoverBin:
    """One bucket of a coverpoint: the inclusive value range [lo, hi].

    A *value bin* has ``lo == hi``; a *range bin* spans several values.
    """

    name: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"bin {self.name!r}: hi {self.hi} < lo {self.lo}")

    def matches(self, value: int) -> bool:
        """True when ``value`` falls inside this bin."""
        return self.lo <= value <= self.hi


def value_bins(values: Iterable[int]) -> tuple[CoverBin, ...]:
    """One single-value bin per listed value, named after the value."""
    return tuple(CoverBin(str(v), v, v) for v in values)


def range_bins(lo: int, hi: int, count: int) -> tuple[CoverBin, ...]:
    """Split [lo, hi] into ``count`` near-equal contiguous range bins."""
    if count < 1:
        raise ValueError("count must be >= 1")
    span = hi - lo + 1
    if span < count:
        raise ValueError(f"cannot split {span} values into {count} bins")
    bins = []
    for index in range(count):
        b_lo = lo + (span * index) // count
        b_hi = lo + (span * (index + 1)) // count - 1
        bins.append(CoverBin(f"[{b_lo}:{b_hi}]", b_lo, b_hi))
    return tuple(bins)


@dataclass(frozen=True)
class Coverpoint:
    """A sampled integer variable and its bin set.

    ``signals`` names the netlist signals the value is decoded from,
    LSB first; closure workers read them off the simulator each cycle
    and hand the decoded integer to :meth:`CoverGroup.sample`.  A
    coverpoint sampled from testbench callbacks rather than a trace
    may leave ``signals`` empty and supply values directly.
    """

    name: str
    bins: tuple[CoverBin, ...]
    signals: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.bins:
            raise ValueError(f"coverpoint {self.name!r} has no bins")
        names = [b.name for b in self.bins]
        if len(set(names)) != len(names):
            raise ValueError(f"coverpoint {self.name!r} has duplicate bins")

    def bin_for(self, value: int) -> CoverBin | None:
        """First bin containing ``value`` (None when out of all bins)."""
        for candidate in self.bins:
            if candidate.matches(value):
                return candidate
        return None


@dataclass(frozen=True)
class CoverCross:
    """Cross coverage between two coverpoints of the same group."""

    name: str
    point_a: str
    point_b: str


@dataclass(frozen=True)
class CoverGroup:
    """An immutable covergroup specification.

    Bin identities are fully qualified -- ``group.point.bin`` and
    ``group.cross.binA*binB`` -- so databases from different groups
    never collide.  ``sample`` writes into a caller-supplied hit dict
    (per-test state); the group itself carries no counters.
    """

    name: str
    coverpoints: tuple[Coverpoint, ...]
    crosses: tuple[CoverCross, ...] = ()
    at_least: int = 1

    def __post_init__(self) -> None:
        points = {p.name for p in self.coverpoints}
        if len(points) != len(self.coverpoints):
            raise ValueError(f"covergroup {self.name!r}: duplicate points")
        for cross in self.crosses:
            missing = {cross.point_a, cross.point_b} - points
            if missing:
                raise ValueError(
                    f"cross {cross.name!r} references unknown points "
                    f"{sorted(missing)}"
                )
        if self.at_least < 1:
            raise ValueError("at_least must be >= 1")

    def point(self, name: str) -> Coverpoint:
        """Look up a coverpoint by name."""
        for candidate in self.coverpoints:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no coverpoint {name!r} in group {self.name!r}")

    @property
    def signals_needed(self) -> tuple[str, ...]:
        """Every netlist signal any coverpoint decodes from (sorted)."""
        needed: set[str] = set()
        for point in self.coverpoints:
            needed.update(point.signals)
        return tuple(sorted(needed))

    def bin_ids(self) -> tuple[str, ...]:
        """All fully-qualified bin identities (point bins then crosses)."""
        ids: list[str] = []
        for point in self.coverpoints:
            for b in point.bins:
                ids.append(f"{self.name}.{point.name}.{b.name}")
        for cross in self.crosses:
            for a in self.point(cross.point_a).bins:
                for b in self.point(cross.point_b).bins:
                    ids.append(f"{self.name}.{cross.name}.{a.name}*{b.name}")
        return tuple(ids)

    def sample(
        self,
        values: Mapping[str, int],
        hits: MutableMapping[str, int],
    ) -> None:
        """Record one sample: ``values`` maps coverpoint name -> value.

        Points absent from ``values`` (e.g. because a watched signal
        was X that cycle) are skipped; a cross hits only when both of
        its points landed in a bin this sample.
        """
        landed: dict[str, CoverBin] = {}
        for point in self.coverpoints:
            if point.name not in values:
                continue
            hit = point.bin_for(values[point.name])
            if hit is None:
                continue
            landed[point.name] = hit
            key = f"{self.name}.{point.name}.{hit.name}"
            hits[key] = hits.get(key, 0) + 1
        for cross in self.crosses:
            a = landed.get(cross.point_a)
            b = landed.get(cross.point_b)
            if a is None or b is None:
                continue
            key = f"{self.name}.{cross.name}.{a.name}*{b.name}"
            hits[key] = hits.get(key, 0) + 1

    def coverage(self, hits: Mapping[str, int]) -> float:
        """Fraction of bins hit at least ``at_least`` times."""
        ids = self.bin_ids()
        if not ids:
            return 1.0
        covered = sum(1 for i in ids if hits.get(i, 0) >= self.at_least)
        return covered / len(ids)


def decode_signals(
    signals: Sequence[str], read
) -> int | None:
    """Decode an LSB-first signal list into an int via ``read(name)``.

    ``read`` returns a :class:`repro.netlist.Logic`; any unknown bit
    makes the whole value unsampleable (returns None), mirroring how
    coverage tools refuse to bin X values.
    """
    value = 0
    for bit_index, signal in enumerate(signals):
        level = read(signal)
        if not level.is_known:
            return None
        value |= int(level) << bit_index
    return value
