"""Dict-based annealing placement: the oracle of the incremental placer.

:func:`place_reference` is the original non-incremental anneal: every
move re-measures the full HPWL of each net touching the moved cells
from a location dict.  :meth:`repro.physical.AnnealingPlacer.place`
keeps integer coordinate arrays and per-net cached HPWL instead, and
must accept the same moves and return the same placement.
"""

from __future__ import annotations

import math

from ..physical.placement import AnnealingPlacer, Placement, PlacementReport
from ..sta import TimingConstraints

__all__ = ["place_reference"]


def place_reference(
    placer: AnnealingPlacer,
    *,
    iterations: int | None = None,
    timing_constraints: TimingConstraints | None = None,
    initial_temperature: float | None = None,
) -> tuple[Placement, PlacementReport]:
    """:meth:`AnnealingPlacer.place` without the incremental HPWL.

    Draws from ``placer.rng`` exactly as ``place`` does, so the same
    seed gives the same placement, report and generator end state.
    """
    locations = placer.initial_placement()
    weights = None
    if timing_constraints is not None:
        weights = placer.criticality_weights(timing_constraints)
    occupied: dict[tuple[int, int], str] = {
        loc: name for name, loc in locations.items()
    }
    current_cost = placer.total_hpwl(locations, weights)
    initial_cost = current_cost

    n = len(placer._cells)
    if iterations is None:
        iterations = max(2000, 40 * n)
    temperature = (
        initial_temperature
        if initial_temperature is not None
        else max(current_cost / max(len(placer._net_pins), 1), 1.0)
    )
    cooling = 0.995 if n < 500 else 0.999
    accepted = 0

    cell_nets: dict[str, list[str]] = {name: [] for name in placer._cells}
    for net, members in placer._net_pins.items():
        for member in members:
            cell_nets[member].append(net)

    for step in range(iterations):
        mover = placer._cells[int(placer.rng.integers(0, n))]
        target = (
            int(placer.rng.integers(0, placer.grid_width)),
            int(placer.rng.integers(0, placer.grid_height)),
        )
        swap_partner = occupied.get(target)
        if swap_partner == mover:
            continue
        affected = set(cell_nets[mover])
        if swap_partner is not None:
            affected |= set(cell_nets[swap_partner])
        before = sum(
            (1.0 if weights is None else weights.get(net, 1.0))
            * placer._net_hpwl(net, locations)
            for net in affected
        )
        old_loc = locations[mover]
        locations[mover] = target
        if swap_partner is not None:
            locations[swap_partner] = old_loc
        after = sum(
            (1.0 if weights is None else weights.get(net, 1.0))
            * placer._net_hpwl(net, locations)
            for net in affected
        )
        delta = after - before
        if delta <= 0 or placer.rng.random() < math.exp(
            -delta / max(temperature, 1e-9)
        ):
            # Accept: update occupancy and cost.
            occupied.pop(old_loc, None)
            occupied[target] = mover
            if swap_partner is not None:
                occupied[old_loc] = swap_partner
            current_cost += delta
            accepted += 1
        else:
            # Reject: roll back.
            locations[mover] = old_loc
            if swap_partner is not None:
                locations[swap_partner] = target
        temperature *= cooling

    placement = Placement(
        module_name=placer.module.name,
        site_pitch_um=placer.site_pitch_um,
        grid_width=placer.grid_width,
        grid_height=placer.grid_height,
        locations=dict(locations),
    )
    report = PlacementReport(
        hpwl_initial_um=initial_cost if weights is None
        else placer.total_hpwl(placer.initial_placement()),
        hpwl_final_um=placer.total_hpwl(locations),
        moves_attempted=iterations,
        moves_accepted=accepted,
        timing_driven=weights is not None,
    )
    return placement, report
