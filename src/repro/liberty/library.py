"""Characterized-library object model.

A :class:`CellLibrary` is the signoff-grade companion of
:class:`repro.netlist.StdCellLibrary`: where the netlist library
carries one linear delay constant per cell, the characterized library
carries full NLDM lookup tables (delay and output transition over an
input-slew x output-load grid), per-arc internal-power tables, pin
capacitances, leakage, and a set of process :class:`Corner` derates --
the data a multi-corner STA signoff actually consumes.

Everything is an immutable dataclass over plain tuples, so libraries
pickle cleanly for process fan-out, compare with ``==``, and digest
into a stable :meth:`CellLibrary.fingerprint` that keys the compiled
timing-graph cache exactly like ``Module.fingerprint()`` keys the
compiled simulation cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .tables import TableValues, validate_table


@dataclass(frozen=True)
class Corner:
    """One process/voltage/temperature corner as a set of derates.

    Delay and slew derates multiply interpolated table values; the
    leakage derate scales characterized leakage; the wire derate
    scales extracted wire capacitance (metal corners track process).
    """

    name: str
    delay_derate: float = 1.0
    slew_derate: float = 1.0
    vdd_v: float = 2.5
    leakage_derate: float = 1.0
    wire_derate: float = 1.0

    def __post_init__(self) -> None:
        if self.delay_derate <= 0 or self.slew_derate <= 0:
            raise ValueError(f"corner {self.name}: derates must be positive")


#: The standard signoff corner set: slow/typical/fast.
STANDARD_CORNERS: tuple[Corner, ...] = (
    Corner("ss", delay_derate=1.18, slew_derate=1.22, vdd_v=2.25,
           leakage_derate=0.55, wire_derate=1.05),
    Corner("tt"),
    Corner("ff", delay_derate=0.85, slew_derate=0.82, vdd_v=2.75,
           leakage_derate=2.60, wire_derate=0.97),
)


@dataclass(frozen=True)
class LibertyPin:
    """One characterized cell pin."""

    name: str
    direction: str  # "input" | "output"
    capacitance_ff: float = 0.0
    is_clock: bool = False

    def __post_init__(self) -> None:
        if self.direction not in ("input", "output"):
            raise ValueError(f"bad pin direction {self.direction!r}")


@dataclass(frozen=True)
class TimingArc:
    """One characterized input->output timing arc.

    ``delay_ps`` and ``transition_ps`` are NLDM tables over the
    library's shared (slew, load) grid; ``internal_energy_fj`` is the
    per-switching-event internal energy over the same grid.  ``kind``
    is ``"combinational"`` for gate arcs and ``"rising_edge"`` for
    flop clock-to-output arcs.
    """

    related_pin: str
    output_pin: str
    kind: str
    delay_ps: TableValues
    transition_ps: TableValues
    internal_energy_fj: TableValues

    def __post_init__(self) -> None:
        if self.kind not in ("combinational", "rising_edge"):
            raise ValueError(f"bad arc kind {self.kind!r}")


@dataclass(frozen=True)
class LibertyCell:
    """One characterized standard cell."""

    name: str
    area_um2: float
    leakage_nw: float
    vt_class: str
    drive_strength: int
    footprint: str
    is_sequential: bool
    clock_pin: str | None
    data_pin: str | None
    pins: tuple[LibertyPin, ...]
    arcs: tuple[TimingArc, ...]

    def pin(self, name: str) -> LibertyPin:
        """Look up one pin spec by name."""
        for spec in self.pins:
            if spec.name == name:
                return spec
        raise KeyError(f"cell {self.name} has no pin {name!r}")

    @property
    def input_pins(self) -> tuple[str, ...]:
        """Input pin names in declaration order."""
        return tuple(p.name for p in self.pins if p.direction == "input")

    @property
    def output_pins(self) -> tuple[str, ...]:
        """Output pin names in declaration order."""
        return tuple(p.name for p in self.pins if p.direction == "output")

    def arcs_to(self, output_pin: str) -> tuple[TimingArc, ...]:
        """All arcs ending at one output pin, in declaration order."""
        return tuple(a for a in self.arcs if a.output_pin == output_pin)


@dataclass(frozen=True)
class CellLibrary:
    """A characterized NLDM cell library with multi-corner derates.

    One shared (slew, load) grid indexes every table in the library --
    the restriction that lets the vectorized STA stack all tables into
    a single ``[T, S, L]`` array and interpolate every arc of a level
    in one gather.
    """

    name: str
    source_library: str
    process_node_um: float
    seed: int
    slew_index_ps: tuple[float, ...]
    load_index_ff: tuple[float, ...]
    wire_cap_ff_per_um: float
    corners: tuple[Corner, ...] = STANDARD_CORNERS
    cells: dict[str, LibertyCell] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [c.name for c in self.corners]
        if len(names) != len(set(names)):
            raise ValueError("duplicate corner names")
        for cell in self.cells.values():
            for arc in cell.arcs:
                for label, values in (
                    ("delay", arc.delay_ps),
                    ("transition", arc.transition_ps),
                    ("internal", arc.internal_energy_fj),
                ):
                    validate_table(
                        values, self.slew_index_ps, self.load_index_ff,
                        name=f"{cell.name}.{arc.related_pin}->"
                             f"{arc.output_pin} {label}",
                    )

    # -- lookups -----------------------------------------------------

    def cell(self, name: str) -> LibertyCell:
        """Look up one characterized cell by name."""
        try:
            return self.cells[name]
        except KeyError:
            raise KeyError(
                f"library {self.name} has no characterized cell {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __iter__(self) -> Iterator[LibertyCell]:
        return iter(self.cells.values())

    def __len__(self) -> int:
        return len(self.cells)

    def corner(self, name: str) -> Corner:
        """Look up one corner by name."""
        for corner in self.corners:
            if corner.name == name:
                return corner
        raise KeyError(
            f"library {self.name} has no corner {name!r}; available: "
            f"{[c.name for c in self.corners]}"
        )

    def corner_names(self) -> tuple[str, ...]:
        """All corner names in declaration (slow-to-fast) order."""
        return tuple(c.name for c in self.corners)

    def wire_cap_per_um(self, corner: str = "tt") -> float:
        """Wire capacitance per micron at one corner (fF/um)."""
        return self.wire_cap_ff_per_um * self.corner(corner).wire_derate

    def drive_variants(self, footprint: str, *, vt_class: str = "svt"
                       ) -> list[LibertyCell]:
        """Drive-strength variants sharing a footprint, weakest first."""
        variants = [
            c for c in self.cells.values()
            if c.footprint == footprint and c.vt_class == vt_class
        ]
        return sorted(variants, key=lambda c: (c.drive_strength, c.name))

    def vt_variant(self, cell_name: str, vt_class: str) -> LibertyCell | None:
        """The same cell in another Vt class, or None if absent."""
        base = self.cell(cell_name)
        for candidate in self.cells.values():
            if (candidate.footprint == base.footprint
                    and candidate.vt_class == vt_class
                    and candidate.drive_strength == base.drive_strength):
                return candidate
        return None

    # -- identity ----------------------------------------------------

    def _canonical(self) -> tuple:
        cells = tuple(
            (
                cell.name, cell.area_um2, cell.leakage_nw, cell.vt_class,
                cell.drive_strength, cell.footprint, cell.is_sequential,
                cell.clock_pin, cell.data_pin,
                tuple(
                    (p.name, p.direction, p.capacitance_ff, p.is_clock)
                    for p in cell.pins
                ),
                tuple(
                    (a.related_pin, a.output_pin, a.kind, a.delay_ps,
                     a.transition_ps, a.internal_energy_fj)
                    for a in cell.arcs
                ),
            )
            for name, cell in sorted(self.cells.items())
        )
        corners = tuple(
            (c.name, c.delay_derate, c.slew_derate, c.vdd_v,
             c.leakage_derate, c.wire_derate)
            for c in self.corners
        )
        return (
            self.name, self.source_library, self.process_node_um, self.seed,
            self.slew_index_ps, self.load_index_ff, self.wire_cap_ff_per_um,
            corners, cells,
        )

    @cached_property
    def _digest(self) -> str:
        # Once per instance: the library is frozen and its ``cells``
        # are never mutated after construction.
        return hashlib.sha256(repr(self._canonical()).encode()).hexdigest()

    def fingerprint(self) -> str:
        """Stable sha256 digest of the full characterized content.

        Two libraries with equal fingerprints produce identical timing
        for any netlist; the digest keys the compiled timing-graph
        cache and the artifact cache alongside ``Module.fingerprint``.
        """
        return self._digest

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellLibrary):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CellLibrary {self.name}: {len(self.cells)} cells, "
            f"{len(self.corners)} corners, "
            f"{len(self.slew_index_ps)}x{len(self.load_index_ff)} grid>"
        )
