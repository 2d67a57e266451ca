"""Per-die wafer Monte Carlo: the oracle of the vectorized wafer map.

:func:`simulate_wafer_scalar` walks the die sites one at a time,
drawing one ``rng.random()`` per base-passing edge die.
:func:`repro.manufacturing.simulate_wafer` draws the same stream as one
vector and must produce the same wafer map.
"""

from __future__ import annotations

import numpy as np

from ..manufacturing.wafer import WaferMap, WaferSpec, _wafer_sites
from ..manufacturing.yield_model import YieldStack

__all__ = ["simulate_wafer_scalar"]


def simulate_wafer_scalar(
    stack: YieldStack,
    *,
    die_width_mm: float,
    die_height_mm: float,
    wafer: WaferSpec | None = None,
    rng: np.random.Generator,
) -> WaferMap:
    """Per-die :func:`repro.manufacturing.simulate_wafer`.

    Property tests assert both produce the same map, and leave the
    generator in the same state, from the same seed.
    """
    wafer = wafer or WaferSpec()
    cols, rows, radials = _wafer_sites(wafer, die_width_mm, die_height_mm)
    die_area = die_width_mm * die_height_mm
    base_pass = stack.sample_dies(die_area, len(cols), rng)
    wafer_map = WaferMap(wafer, die_width_mm, die_height_mm)
    for col, row, radial, ok in zip(cols, rows, radials, base_pass):
        if ok and radial > 0.8:
            # Edge-region extra defectivity.
            edge_fail = rng.random() < 0.5 * stack.defect.d0_per_cm2 \
                * (die_area / 100.0) * (radial - 0.8) / 0.2
            ok = not edge_fail
        wafer_map.passing[(int(col), int(row))] = bool(ok)
    return wafer_map
