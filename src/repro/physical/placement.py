"""Timing-driven standard-cell placement by simulated annealing.

The placer maps every instance of a module onto a site grid and
minimises a weighted half-perimeter wirelength (HPWL).  Net weights
come from timing criticality (negative-slack endpoints upstream of a
net raise its weight), which is what "timing-driven placement" meant
in the paper's flow; ablation A5 compares pure-wirelength against
timing-driven annealing.

Placement results feed wire capacitances back into
:mod:`repro.sta` (cap per micron of HPWL), closing the placement <->
timing loop the way physical synthesis does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..liberty import CellLibrary
from ..netlist import Module
from ..perf import fanout, stage_timer
from ..sta import TimingAnalyzer, TimingConstraints

#: Routed-wire capacitance per micron of estimated length (0.25 um
#: metal stack ballpark).
WIRE_CAP_FF_PER_UM = 0.18


def _restart_worker(task):
    """One independent anneal for :meth:`AnnealingPlacer.multi_restart`.

    Module-level so it pickles into a process pool; rebuilds the placer
    from the task tuple, which makes the restart a pure function of its
    seed.
    """
    (module, site_pitch_um, utilization, seed, iterations,
     timing_constraints, initial_temperature) = task
    placer = AnnealingPlacer(
        module,
        site_pitch_um=site_pitch_um,
        utilization=utilization,
        seed=seed,
    )
    return placer.place(
        iterations=iterations,
        timing_constraints=timing_constraints,
        initial_temperature=initial_temperature,
    )


@dataclass
class Placement:
    """Cell coordinates on a uniform site grid."""

    module_name: str
    site_pitch_um: float
    grid_width: int
    grid_height: int
    locations: dict[str, tuple[int, int]] = field(default_factory=dict)

    def position_um(self, instance: str) -> tuple[float, float]:
        col, row = self.locations[instance]
        return (col * self.site_pitch_um, row * self.site_pitch_um)


@dataclass
class PlacementReport:
    """Quality metrics of one placement run."""

    hpwl_initial_um: float
    hpwl_final_um: float
    moves_attempted: int
    moves_accepted: int
    timing_driven: bool

    @property
    def improvement(self) -> float:
        if self.hpwl_initial_um == 0:
            return 0.0
        return 1.0 - self.hpwl_final_um / self.hpwl_initial_um


class AnnealingPlacer:
    """Simulated-annealing placer for one flat module."""

    def __init__(
        self,
        module: Module,
        *,
        site_pitch_um: float = 10.0,
        utilization: float = 0.6,
        seed: int = 0,
    ) -> None:
        self.module = module
        self.site_pitch_um = site_pitch_um
        self._seed = seed
        self._utilization = utilization
        self.rng = np.random.default_rng(seed)
        cells = list(module.instances)
        side = max(2, math.ceil(math.sqrt(len(cells) / utilization)))
        self.grid_width = side
        self.grid_height = side
        self._cells = cells
        self._net_pins = self._collect_net_pins()

    def _collect_net_pins(self) -> dict[str, list[str]]:
        """Instances on each multi-pin net (ports pinned to the edge)."""
        net_pins: dict[str, list[str]] = {}
        for inst in self.module.instances.values():
            for net_name in inst.connections.values():
                net_pins.setdefault(net_name, []).append(inst.name)
        # Only nets with 2+ distinct cells contribute to HPWL.
        return {
            net: sorted(set(members))
            for net, members in net_pins.items()
            if len(set(members)) >= 2
        }

    # -- cost -------------------------------------------------------------

    def _net_hpwl(self, net: str, locations: Mapping[str, tuple[int, int]]
                  ) -> float:
        xs = [locations[i][0] for i in self._net_pins[net]]
        ys = [locations[i][1] for i in self._net_pins[net]]
        return (max(xs) - min(xs) + max(ys) - min(ys)) * self.site_pitch_um

    def total_hpwl(self, locations: Mapping[str, tuple[int, int]],
                   weights: Mapping[str, float] | None = None) -> float:
        total = 0.0
        for net in self._net_pins:
            weight = 1.0 if weights is None else weights.get(net, 1.0)
            total += weight * self._net_hpwl(net, locations)
        return total

    # -- timing weights ------------------------------------------------------

    def criticality_weights(
        self, constraints: TimingConstraints
    ) -> dict[str, float]:
        """Net weights from worst arrival: a net arriving after 85% of
        the latest arrival gets weight 3, after 60% weight 2, anything
        else 1.  A module with no flop and no output port has no
        timing endpoint and gets no weights."""
        if not self.module.sequential_instances and all(
            port.direction != "output" for port in self.module.ports.values()
        ):
            return {}
        arrivals = TimingAnalyzer(self.module, constraints).compute_arrivals(
            worst=True
        )
        weights: dict[str, float] = {}
        # Weight nets by how close their arrival is to the worst path.
        max_arrival = max(arrivals.values()) if arrivals else 1.0
        for net in self._net_pins:
            arrival = arrivals.get(net, 0.0)
            ratio = arrival / max(max_arrival, 1e-9)
            if ratio > 0.85:
                weights[net] = 3.0
            elif ratio > 0.6:
                weights[net] = 2.0
            else:
                weights[net] = 1.0
        return weights

    # -- annealing -------------------------------------------------------------

    def initial_placement(self) -> dict[str, tuple[int, int]]:
        """Deterministic scan-order seeding."""
        locations: dict[str, tuple[int, int]] = {}
        for index, name in enumerate(self._cells):
            locations[name] = (index % self.grid_width,
                               index // self.grid_width)
        return locations

    def place(
        self,
        *,
        iterations: int | None = None,
        timing_constraints: TimingConstraints | None = None,
        initial_temperature: float | None = None,
    ) -> tuple[Placement, PlacementReport]:
        """Run the anneal; returns the placement and its report.

        The anneal is incremental: integer coordinate arrays, a flat
        occupancy grid, and per-net cached HPWL so a move only
        re-measures the nets touching the moved cell(s).  Its test
        oracle, the dict-based anneal of :mod:`repro.oracles.placement`,
        consumes the generator stream identically (three ``integers``
        draws per attempted move, one ``random`` draw only when
        ``delta > 0``), and with the default integer-exact geometry
        (site coordinates times a pitch like 10.0, weights from
        {1, 2, 3}) every float in the delta is exact, so the two accept
        the same moves and return bit-identical placements.
        """
        with stage_timer("placement.anneal") as stats:
            placement, report = self._anneal(
                iterations=iterations,
                timing_constraints=timing_constraints,
                initial_temperature=initial_temperature,
            )
            stats.add(moves=report.moves_attempted)
        return placement, report

    def _anneal(
        self,
        *,
        iterations: int | None = None,
        timing_constraints: TimingConstraints | None = None,
        initial_temperature: float | None = None,
    ) -> tuple[Placement, PlacementReport]:
        weights = None
        if timing_constraints is not None:
            weights = self.criticality_weights(timing_constraints)

        names = self._cells
        n = len(names)
        grid_w = self.grid_width
        grid_h = self.grid_height
        pitch = self.site_pitch_um
        rng = self.rng

        net_names = list(self._net_pins)
        index_of = {name: i for i, name in enumerate(names)}
        members: list[list[int]] = [
            [index_of[m] for m in self._net_pins[net]] for net in net_names
        ]
        net_weight: list[float] = [
            1.0 if weights is None else weights.get(net, 1.0)
            for net in net_names
        ]
        cell_nets: list[list[int]] = [[] for _ in range(n)]
        for nid, mem in enumerate(members):
            for cell in mem:
                cell_nets[cell].append(nid)
        cell_net_sets = [set(nets) for nets in cell_nets]

        # Initial placement: scan order, one cell per site.
        xs = [i % grid_w for i in range(n)]
        ys = [i // grid_w for i in range(n)]
        grid = [-1] * (grid_w * grid_h)
        for i in range(n):
            grid[ys[i] * grid_w + xs[i]] = i

        def measure(nid: int) -> float:
            mem = members[nid]
            first = mem[0]
            min_x = max_x = xs[first]
            min_y = max_y = ys[first]
            for cell in mem[1:]:
                x = xs[cell]
                y = ys[cell]
                if x < min_x:
                    min_x = x
                elif x > max_x:
                    max_x = x
                if y < min_y:
                    min_y = y
                elif y > max_y:
                    max_y = y
            return (max_x - min_x + max_y - min_y) * pitch

        net_hpwl = [measure(nid) for nid in range(len(members))]
        current_cost = 0.0
        for nid in range(len(net_names)):
            current_cost += net_weight[nid] * net_hpwl[nid]
        initial_cost = current_cost

        if iterations is None:
            iterations = max(2000, 40 * n)
        temperature = (
            initial_temperature
            if initial_temperature is not None
            else max(current_cost / max(len(net_names), 1), 1.0)
        )
        cooling = 0.995 if n < 500 else 0.999
        accepted = 0
        exp = math.exp

        for _step in range(iterations):
            mover = int(rng.integers(0, n))
            tx = int(rng.integers(0, grid_w))
            ty = int(rng.integers(0, grid_h))
            partner = grid[ty * grid_w + tx]
            if partner == mover:
                continue
            nets_m = cell_nets[mover]
            if partner >= 0:
                set_m = cell_net_sets[mover]
                affected = nets_m + [
                    nid for nid in cell_nets[partner] if nid not in set_m
                ]
            else:
                affected = nets_m
            before = 0.0
            for nid in affected:
                before += net_weight[nid] * net_hpwl[nid]
            old_x = xs[mover]
            old_y = ys[mover]
            xs[mover] = tx
            ys[mover] = ty
            if partner >= 0:
                xs[partner] = old_x
                ys[partner] = old_y
            after = 0.0
            new_hpwl = []
            for nid in affected:
                h = measure(nid)
                new_hpwl.append(h)
                after += net_weight[nid] * h
            delta = after - before
            if delta <= 0 or rng.random() < exp(
                -delta / max(temperature, 1e-9)
            ):
                grid[old_y * grid_w + old_x] = partner
                grid[ty * grid_w + tx] = mover
                for nid, h in zip(affected, new_hpwl):
                    net_hpwl[nid] = h
                current_cost += delta
                accepted += 1
            else:
                xs[mover] = old_x
                ys[mover] = old_y
                if partner >= 0:
                    xs[partner] = tx
                    ys[partner] = ty
            temperature *= cooling

        locations = {name: (xs[i], ys[i]) for i, name in enumerate(names)}
        placement = Placement(
            module_name=self.module.name,
            site_pitch_um=self.site_pitch_um,
            grid_width=grid_w,
            grid_height=grid_h,
            locations=locations,
        )
        # Unweighted final HPWL; the cache holds unweighted values.
        final_cost = 0.0
        for nid in range(len(members)):
            final_cost += measure(nid)
        report = PlacementReport(
            hpwl_initial_um=initial_cost if weights is None
            else self.total_hpwl(self.initial_placement()),
            hpwl_final_um=final_cost,
            moves_attempted=iterations,
            moves_accepted=accepted,
            timing_driven=weights is not None,
        )
        return placement, report

    # -- multi-restart ----------------------------------------------------------

    def multi_restart(
        self,
        *,
        restarts: int = 4,
        seed: int | None = None,
        workers: int | None = None,
        iterations: int | None = None,
        timing_constraints: TimingConstraints | None = None,
        initial_temperature: float | None = None,
    ) -> tuple[Placement, PlacementReport, int]:
        """Anneal ``restarts`` times from seeds ``seed .. seed+restarts-1``
        and keep the best (lowest final HPWL; ties break to the lowest
        seed).  Restarts are independent, so they fan out across a
        process pool when ``workers > 1`` -- the winner is identical for
        any worker count.  Returns ``(placement, report, winning_seed)``.
        """
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        base_seed = self._seed if seed is None else seed
        tasks = [
            (
                self.module,
                self.site_pitch_um,
                self._utilization,
                base_seed + k,
                iterations,
                timing_constraints,
                initial_temperature,
            )
            for k in range(restarts)
        ]
        results = fanout(
            _restart_worker, tasks, workers=workers,
            stage="placement.restarts",
        )
        best = min(
            range(restarts), key=lambda k: results[k][1].hpwl_final_um
        )
        placement, report = results[best]
        return placement, report, base_seed + best

    # -- STA feedback -----------------------------------------------------------

    def wire_caps_ff(
        self,
        placement: Placement,
        *,
        library: CellLibrary | None = None,
        corner: str = "tt",
    ) -> dict[str, float]:
        """Per-net wire capacitance from placed HPWL, for STA.

        With a characterized ``library`` the per-micron capacitance
        comes from the library's process node, derated to ``corner``;
        otherwise the legacy flat constant applies (identical numbers
        at the typical corner of the default 0.25 um node).
        """
        if library is not None:
            cap_per_um = library.wire_cap_per_um(corner)
        else:
            cap_per_um = WIRE_CAP_FF_PER_UM
        caps: dict[str, float] = {}
        for net in self._net_pins:
            caps[net] = (
                self._net_hpwl(net, placement.locations) * cap_per_um
            )
        return caps
