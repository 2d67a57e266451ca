"""The mergeable, serialisable coverage database.

A :class:`CoverageDatabase` is a fixed *universe* of coverage items
(countable nets, flops, resettable flops, functional bins) plus one
:class:`TestCoverage` record per test naming exactly which items that
test hit.  Because per-test records are independent sets, merging is
a commutative dict union and the canonical JSON form is **bit
identical** no matter how runs were partitioned across processes --
the property `tests/test_coverage_determinism.py` pins.

On top of the raw sets the database answers the sign-off questions:

* :meth:`grade_tests` -- rank tests by *incremental* coverage, the
  verification analogue of ATPG's ``effective_patterns``;
* :meth:`minimize_suite` -- greedy suite minimisation: the smallest
  test subset preserving total coverage (what you keep for the
  nightly regression);
* :meth:`holes` -- the ranked list of what is still uncovered, with
  near-miss evidence first (a net that was seen at one level is
  closer to closure than one never exercised).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..netlist import Module
from ..netlist.clocks import CLOCK_PORT, RESET_PORT, is_scan_port
from .functional import CoverGroup


def structural_universe(
    module: Module,
) -> tuple[frozenset[str], tuple[tuple[str, str, str | None], ...]]:
    """The structural coverage universe of a module.

    Returns the nets that count toward toggle coverage (every net but
    the clock, the reset and the scan ports' nets, as coverage tools
    leave infrastructure out) and, per flop in
    ``module.sequential_instances`` order, its name, Q net and
    asynchronous reset net (``None`` without a reset pin).
    """
    excluded = {CLOCK_PORT, RESET_PORT}
    excluded.update(name for name in module.nets if is_scan_port(name))
    flops = tuple(
        (inst.name, inst.net_of("Q"),
         inst.net_of(inst.cell.reset_pin)
         if inst.cell.reset_pin is not None else None)
        for inst in module.sequential_instances
    )
    return frozenset(set(module.nets) - excluded), flops


@dataclass
class TestCoverage:
    """What one test hit: the unit of attribution and merging."""

    __test__ = False  # not a pytest collection target

    name: str
    cycles: int = 0
    duration_s: float = 0.0
    toggled: frozenset[str] = frozenset()
    half_toggled: frozenset[str] = frozenset()
    active_flops: frozenset[str] = frozenset()
    reset_flops: frozenset[str] = frozenset()
    bin_hits: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Canonical (sorted) JSON-ready form.

        ``duration_s`` is runtime telemetry, not coverage data: it is
        deliberately excluded so the canonical form is a pure function
        of the seeds (bit-identical across worker counts and reruns).
        """
        return {
            "name": self.name,
            "cycles": self.cycles,
            "toggled": sorted(self.toggled),
            "half_toggled": sorted(self.half_toggled),
            "active_flops": sorted(self.active_flops),
            "reset_flops": sorted(self.reset_flops),
            "bin_hits": {k: self.bin_hits[k] for k in sorted(self.bin_hits)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TestCoverage":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            cycles=int(data["cycles"]),
            toggled=frozenset(data["toggled"]),
            half_toggled=frozenset(data["half_toggled"]),
            active_flops=frozenset(data["active_flops"]),
            reset_flops=frozenset(data["reset_flops"]),
            bin_hits=dict(data["bin_hits"]),
        )

    def items_hit(self, at_least: int = 1) -> frozenset[tuple[str, str]]:
        """All (kind, name) coverage items this test covers alone."""
        items: set[tuple[str, str]] = set()
        items.update(("net", n) for n in self.toggled)
        items.update(("flop", f) for f in self.active_flops)
        items.update(("reset", f) for f in self.reset_flops)
        items.update(
            ("bin", b) for b, count in self.bin_hits.items()
            if count >= at_least
        )
        return frozenset(items)


@dataclass(frozen=True)
class Hole:
    """One uncovered item in the ranked hole report."""

    kind: str  # "net" | "flop" | "reset" | "bin"
    name: str
    near_miss: bool
    note: str


@dataclass(frozen=True)
class TestGrade:
    """One row of the incremental test grading."""

    __test__ = False  # not a pytest collection target

    name: str
    new_items: int
    cumulative_items: int
    cumulative_toggle: float
    cumulative_functional: float


class CoverageDatabase:
    """Universe of coverage items + per-test hit records."""

    def __init__(
        self,
        design: str,
        *,
        net_universe: tuple[str, ...] = (),
        flop_universe: tuple[str, ...] = (),
        reset_flop_universe: tuple[str, ...] = (),
        bin_universe: tuple[str, ...] = (),
        at_least: int = 1,
    ) -> None:
        self.design = design
        self.net_universe = tuple(sorted(net_universe))
        self.flop_universe = tuple(sorted(flop_universe))
        self.reset_flop_universe = tuple(sorted(reset_flop_universe))
        self.bin_universe = tuple(sorted(bin_universe))
        self.at_least = at_least
        self.tests: dict[str, TestCoverage] = {}

    @classmethod
    def for_module(
        cls,
        module: Module,
        covergroup: CoverGroup | None = None,
        *,
        at_least: int = 1,
    ) -> "CoverageDatabase":
        """Build the coverage universe for a module (+ optional group)."""
        countable, flops = structural_universe(module)
        return cls(
            module.name,
            net_universe=tuple(countable),
            flop_universe=tuple(name for name, _, _ in flops),
            reset_flop_universe=tuple(
                name for name, _, reset in flops if reset is not None),
            bin_universe=covergroup.bin_ids() if covergroup else (),
            at_least=at_least,
        )

    # -- recording and merging ---------------------------------------

    def add_test(self, test: TestCoverage) -> None:
        """Record one test's coverage; test names must be unique."""
        if test.name in self.tests:
            raise ValueError(f"duplicate test name {test.name!r}")
        self.tests[test.name] = test

    def merge(self, other: "CoverageDatabase") -> None:
        """Fold another database over the same universe into this one.

        Union of per-test records; commutative and associative, so a
        merge tree of any shape over any partitioning yields the same
        database (and the same canonical JSON).
        """
        if (other.net_universe != self.net_universe
                or other.bin_universe != self.bin_universe
                or other.flop_universe != self.flop_universe
                or other.reset_flop_universe != self.reset_flop_universe):
            raise ValueError(
                f"cannot merge {other.design!r}: coverage universe differs"
            )
        for test in other.tests.values():
            self.add_test(test)

    # -- aggregate coverage ------------------------------------------

    def _union(self, attribute: str) -> frozenset[str]:
        union: set[str] = set()
        for test in self.tests.values():
            union.update(getattr(test, attribute))
        return frozenset(union)

    @property
    def toggled_nets(self) -> frozenset[str]:
        """Nets toggled by any test."""
        return self._union("toggled")

    @property
    def active_flops(self) -> frozenset[str]:
        """Flops activated by any test."""
        return self._union("active_flops")

    @property
    def reset_flops(self) -> frozenset[str]:
        """Resettable flops whose reset any test exercised."""
        return self._union("reset_flops")

    def bin_hit_counts(self) -> dict[str, int]:
        """Total hit count per functional bin across all tests."""
        totals: dict[str, int] = {}
        for test in self.tests.values():
            for bin_id, count in test.bin_hits.items():
                totals[bin_id] = totals.get(bin_id, 0) + count
        return totals

    @property
    def hit_bins(self) -> frozenset[str]:
        """Functional bins hit at least ``at_least`` times in total."""
        return frozenset(
            b for b, count in self.bin_hit_counts().items()
            if count >= self.at_least and b in set(self.bin_universe)
        )

    @property
    def toggle_coverage(self) -> float:
        """Fraction of the net universe that toggled."""
        if not self.net_universe:
            return 1.0
        return len(self.toggled_nets) / len(self.net_universe)

    @property
    def flop_activity_coverage(self) -> float:
        """Fraction of flops that changed state."""
        if not self.flop_universe:
            return 1.0
        return len(self.active_flops) / len(self.flop_universe)

    @property
    def flop_reset_coverage(self) -> float:
        """Fraction of resettable flops whose reset was exercised."""
        if not self.reset_flop_universe:
            return 1.0
        return len(self.reset_flops) / len(self.reset_flop_universe)

    @property
    def functional_coverage(self) -> float:
        """Fraction of functional bins adequately hit."""
        if not self.bin_universe:
            return 1.0
        return len(self.hit_bins) / len(self.bin_universe)

    def covered_items(self) -> frozenset[tuple[str, str]]:
        """All (kind, name) items covered by the suite."""
        items: set[tuple[str, str]] = set()
        items.update(("net", n) for n in self.toggled_nets)
        items.update(("flop", f) for f in self.active_flops)
        items.update(("reset", f) for f in self.reset_flops)
        items.update(("bin", b) for b in self.hit_bins)
        return frozenset(items)

    def universe_items(self) -> frozenset[tuple[str, str]]:
        """Every item that could be covered."""
        items: set[tuple[str, str]] = set()
        items.update(("net", n) for n in self.net_universe)
        items.update(("flop", f) for f in self.flop_universe)
        items.update(("reset", f) for f in self.reset_flop_universe)
        items.update(("bin", b) for b in self.bin_universe)
        return frozenset(items)

    # -- grading, minimisation, holes --------------------------------

    def grade_tests(self) -> list[TestGrade]:
        """Greedy incremental grading (the ``effective_patterns`` of
        verification): repeatedly pick the test adding the most new
        items, ties broken by name for determinism."""
        remaining = dict(self.tests)
        covered: set[tuple[str, str]] = set()
        grades: list[TestGrade] = []
        nets = set(self.net_universe)
        bins = set(self.bin_universe)
        while remaining:
            best_name = None
            best_gain = -1
            for name in sorted(remaining):
                gain = len(remaining[name].items_hit(self.at_least)
                           - covered)
                if gain > best_gain:
                    best_name, best_gain = name, gain
            assert best_name is not None
            covered |= remaining.pop(best_name).items_hit(self.at_least)
            toggle = len({n for k, n in covered if k == "net"} & nets)
            functional = len({n for k, n in covered if k == "bin"} & bins)
            grades.append(TestGrade(
                name=best_name,
                new_items=best_gain,
                cumulative_items=len(covered),
                cumulative_toggle=(toggle / len(nets)) if nets else 1.0,
                cumulative_functional=(functional / len(bins))
                if bins else 1.0,
            ))
        return grades

    def minimize_suite(self) -> list[str]:
        """Smallest greedy test subset preserving total coverage."""
        return [
            grade.name for grade in self.grade_tests()
            if grade.new_items > 0
        ]

    def holes(self, limit: int | None = None) -> list[Hole]:
        """Ranked uncovered items: near misses first, then by kind/name.

        Note: per-test ``at_least`` grading aside, a functional bin
        with *some* hits (but fewer than ``at_least``) and a net seen
        at only one level rank as near misses -- they are the cheapest
        items to close next.
        """
        covered = self.covered_items()
        half = self._union("half_toggled")
        bin_totals = self.bin_hit_counts()
        holes: list[Hole] = []
        for net in self.net_universe:
            if ("net", net) in covered:
                continue
            near = net in half
            holes.append(Hole(
                "net", net, near,
                "toggled one way only" if near else "never exercised"))
        for flop in self.flop_universe:
            if ("flop", flop) not in covered:
                holes.append(Hole("flop", flop, False, "state never changed"))
        for flop in self.reset_flop_universe:
            if ("reset", flop) not in covered:
                holes.append(Hole("reset", flop, False,
                                  "reset never exercised"))
        for bin_id in self.bin_universe:
            if ("bin", bin_id) in covered:
                continue
            count = bin_totals.get(bin_id, 0)
            holes.append(Hole(
                "bin", bin_id, count > 0,
                f"hit {count} < {self.at_least} times" if count
                else "never hit"))
        holes.sort(key=lambda h: (not h.near_miss, h.kind, h.name))
        if limit is not None:
            holes = holes[:limit]
        return holes

    # -- serialisation ------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical sorted dict form (stable across merge orders)."""
        return {
            "design": self.design,
            "at_least": self.at_least,
            "net_universe": list(self.net_universe),
            "flop_universe": list(self.flop_universe),
            "reset_flop_universe": list(self.reset_flop_universe),
            "bin_universe": list(self.bin_universe),
            "tests": [
                self.tests[name].to_dict() for name in sorted(self.tests)
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON: byte-identical for equal databases."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_dict(cls, data: dict) -> "CoverageDatabase":
        """Inverse of :meth:`to_dict`."""
        db = cls(
            data["design"],
            net_universe=tuple(data["net_universe"]),
            flop_universe=tuple(data["flop_universe"]),
            reset_flop_universe=tuple(data["reset_flop_universe"]),
            bin_universe=tuple(data["bin_universe"]),
            at_least=int(data["at_least"]),
        )
        for test_data in data["tests"]:
            db.add_test(TestCoverage.from_dict(test_data))
        return db

    @classmethod
    def from_json(cls, text: str) -> "CoverageDatabase":
        """Parse a database from its JSON form."""
        return cls.from_dict(json.loads(text))

    def format_summary(self) -> str:
        """One-paragraph coverage summary."""
        return (
            f"coverage[{self.design}] {len(self.tests)} tests: "
            f"toggle {self.toggle_coverage * 100:.1f}% "
            f"({len(self.toggled_nets)}/{len(self.net_universe)} nets), "
            f"flop activity {self.flop_activity_coverage * 100:.1f}%, "
            f"reset {self.flop_reset_coverage * 100:.1f}%, "
            f"functional {self.functional_coverage * 100:.1f}% "
            f"({len(self.hit_bins)}/{len(self.bin_universe)} bins)"
        )
