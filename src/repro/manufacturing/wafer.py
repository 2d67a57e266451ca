"""Wafer geometry and wafer-map simulation.

The Monte-Carlo path is fully vectorized: die-site geometry and the
edge-defectivity pass are whole-wafer numpy expressions, and
:func:`simulate_lot` fans wafers out over a process pool with one
spawned ``numpy.random.Generator`` stream per wafer.  The per-die
oracle of :mod:`repro.oracles.wafer` shares :func:`_wafer_sites` and
consumes its generator identically (``rng.random(k)`` draws the same
stream as ``k`` scalar ``rng.random()`` calls), so the two produce
bit-identical wafer maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..perf import fanout, stage_timer
from .yield_model import YieldStack


@dataclass(frozen=True)
class WaferSpec:
    """A production wafer."""

    diameter_mm: float = 200.0
    edge_exclusion_mm: float = 3.0

    @property
    def usable_radius_mm(self) -> float:
        return self.diameter_mm / 2.0 - self.edge_exclusion_mm


def gross_dies_per_wafer(wafer: WaferSpec, die_area_mm2: float) -> int:
    """De Vries' formula: dies lost to the round edge accounted for."""
    if die_area_mm2 <= 0:
        raise ValueError("die area must be positive")
    diameter = 2 * wafer.usable_radius_mm
    return max(
        0,
        int(
            math.pi * diameter**2 / (4.0 * die_area_mm2)
            - math.pi * diameter / math.sqrt(2.0 * die_area_mm2)
        ),
    )


class WaferMap:
    """Pass/fail grid for one probed wafer.

    Backed by flat site arrays when built by the vectorized simulator;
    the ``passing`` dict view is materialized lazily so yield-summary
    consumers (``gross`` / ``good`` / ``measured_yield``) never pay
    for a per-die Python dict.
    """

    def __init__(
        self,
        wafer: WaferSpec,
        die_width_mm: float,
        die_height_mm: float,
        passing: dict[tuple[int, int], bool] | None = None,
    ) -> None:
        self.wafer = wafer
        self.die_width_mm = die_width_mm
        self.die_height_mm = die_height_mm
        self._passing = dict(passing) if passing is not None else None
        self._cols: np.ndarray | None = None
        self._rows: np.ndarray | None = None
        self._ok: np.ndarray | None = None

    @classmethod
    def from_arrays(
        cls,
        wafer: WaferSpec,
        die_width_mm: float,
        die_height_mm: float,
        cols: np.ndarray,
        rows: np.ndarray,
        ok: np.ndarray,
    ) -> "WaferMap":
        """Array-backed construction (site order preserved)."""
        wafer_map = cls(wafer, die_width_mm, die_height_mm)
        wafer_map._cols = cols
        wafer_map._rows = rows
        wafer_map._ok = ok
        return wafer_map

    @property
    def passing(self) -> dict[tuple[int, int], bool]:
        """Site -> pass/fail dict (materialized on first access)."""
        if self._passing is None:
            if self._ok is None:
                self._passing = {}
            else:
                self._passing = dict(zip(
                    zip(self._cols.tolist(), self._rows.tolist()),
                    self._ok.tolist(),
                ))
        return self._passing

    @passing.setter
    def passing(self, value: dict[tuple[int, int], bool]) -> None:
        self._passing = value
        self._cols = self._rows = self._ok = None

    @property
    def gross(self) -> int:
        """Probed die sites on this wafer.

        Counts every site whose full outline fits inside the usable
        radius (edge-exclusion already subtracted) -- the probed-die
        population, so edge-region dies that failed the radial
        defect-gradient screen are still *gross* dies.  This is the
        simulated counterpart of :func:`gross_dies_per_wafer`; the two
        track each other but differ by the grid-vs-analytic edge
        treatment (De Vries' formula approximates the partial-die ring
        instead of rastering it).
        """
        if self._passing is None and self._ok is not None:
            return len(self._ok)
        return len(self.passing)

    @property
    def good(self) -> int:
        if self._passing is None and self._ok is not None:
            return int(np.count_nonzero(self._ok))
        return sum(self.passing.values())

    @property
    def measured_yield(self) -> float:
        """``good / gross`` over probed sites; 0.0 for an empty map.

        Because ``gross`` includes edge-region sites, the extra edge
        defectivity *lowers* measured yield rather than shrinking the
        denominator -- matching how a fab reports probe yield (edge
        dies are tested, not excluded).
        """
        gross = self.gross
        if gross == 0:
            return 0.0
        return self.good / gross

    def ascii_map(self) -> str:
        """Classic wafer-map printout: '.' pass, 'X' fail."""
        if not self.passing:
            return "(empty)"
        cols = [c for c, _ in self.passing]
        rows = [r for _, r in self.passing]
        lines = []
        for row in range(min(rows), max(rows) + 1):
            chars = []
            for col in range(min(cols), max(cols) + 1):
                state = self.passing.get((col, row))
                chars.append("." if state else "X" if state is not None
                             else " ")
            lines.append("".join(chars))
        return "\n".join(lines)


@lru_cache(maxsize=64)
def _wafer_sites(
    wafer: WaferSpec, die_width_mm: float, die_height_mm: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Die sites fully inside the usable radius, row-major order.

    Returns ``(cols, rows, radial)`` read-only arrays where ``radial``
    is the die-centre distance as a fraction of the usable radius.
    Shared with the per-die oracle so both see identical geometry
    (down to the last ulp of the hypot), and cached
    because the geometry is a pure function of the wafer spec and die
    dimensions (every wafer of a lot reuses it).
    """
    radius = wafer.usable_radius_mm
    n_cols = int(2 * radius / die_width_mm) + 2
    n_rows = int(2 * radius / die_height_mm) + 2
    row_idx = np.arange(-n_rows // 2, n_rows // 2 + 1)
    col_idx = np.arange(-n_cols // 2, n_cols // 2 + 1)
    # Row-outer / column-inner, matching the original scan order.
    rows = np.repeat(row_idx, len(col_idx))
    cols = np.tile(col_idx, len(row_idx))
    x = (cols + 0.5) * die_width_mm
    y = (rows + 0.5) * die_height_mm
    corner = np.hypot(np.abs(x) + die_width_mm / 2,
                      np.abs(y) + die_height_mm / 2)
    keep = corner <= radius
    out = (cols[keep], rows[keep], np.hypot(x[keep], y[keep]) / radius)
    for array in out:
        array.setflags(write=False)
    return out


def simulate_wafer(
    stack: YieldStack,
    *,
    die_width_mm: float,
    die_height_mm: float,
    wafer: WaferSpec | None = None,
    rng: np.random.Generator,
) -> WaferMap:
    """Probe one simulated wafer (vectorized).

    Die sites are laid out on a grid and kept when fully inside the
    usable radius; each die then passes/fails per the yield stack,
    with an extra radial defect gradient (edge dies see ~1.5x the
    defect rate, a second-order effect every fab fights).

    The edge pass draws ``rng.random(k)`` for the ``k`` base-passing
    edge dies in site order -- the same stream the per-die loop of
    :func:`repro.oracles.wafer.simulate_wafer_scalar` consumes -- so
    the map is bit-identical to the oracle's.
    """
    wafer = wafer or WaferSpec()
    with stage_timer("manufacturing.wafer") as stats:
        cols, rows, radial = _wafer_sites(wafer, die_width_mm,
                                          die_height_mm)
        die_area = die_width_mm * die_height_mm
        passing = np.array(
            stack.sample_dies(die_area, len(cols), rng), dtype=bool
        )
        candidates = np.flatnonzero(passing & (radial > 0.8))
        if len(candidates):
            draws = rng.random(len(candidates))
            # Edge-region extra defectivity; float-op order matches
            # the oracle's per-die loop exactly.
            threshold = 0.5 * stack.defect.d0_per_cm2 \
                * (die_area / 100.0) * (radial[candidates] - 0.8) / 0.2
            passing[candidates[draws < threshold]] = False
        wafer_map = WaferMap.from_arrays(
            wafer, die_width_mm, die_height_mm,
            cols, rows, passing,
        )
        stats.add(wafers=1, dies=len(cols))
    return wafer_map


def _lot_worker(task) -> WaferMap:
    """Simulate one wafer of a lot from its spawned seed sequence."""
    stack, die_width_mm, die_height_mm, seq = task
    return simulate_wafer(
        stack,
        die_width_mm=die_width_mm,
        die_height_mm=die_height_mm,
        rng=np.random.default_rng(seq),
    )


def simulate_lot(
    stack: YieldStack,
    *,
    die_width_mm: float,
    die_height_mm: float,
    wafers: int = 25,
    seed: int = 0,
    workers: int | None = 1,
) -> list[WaferMap]:
    """Simulate a standard 25-wafer lot.

    Each wafer gets an independent generator stream spawned from
    ``SeedSequence(seed)``, so the lot is a pure function of ``seed``
    -- identical for any ``workers`` count (``workers > 1`` fans the
    wafers out over a process pool).
    """
    sequences = np.random.SeedSequence(seed).spawn(wafers)
    tasks = [
        (stack, die_width_mm, die_height_mm, seq) for seq in sequences
    ]
    return fanout(
        _lot_worker, tasks, workers=workers, stage="manufacturing.lot"
    )
