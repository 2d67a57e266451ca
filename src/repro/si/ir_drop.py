"""Static and dynamic IR-drop analysis with decap insertion.

The power grid is modelled as a resistive mesh over the placement
grid: VDD is fed from ring taps at the grid edge, each occupied site
draws its cell's switching current, and node voltages come from
solving G*v = i by a matrix-free conjugate gradient.  Dynamic
droop adds a local di/dt term that on-site decoupling capacitance
absorbs -- inserting decap cells into empty sites near hot spots is
the fix the paper's Section 4 names ("de-coupling cell insertion").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ..netlist import Module
from ..physical.placement import Placement

#: Mesh segment resistance (ohm) between adjacent power-grid nodes.
SEGMENT_RESISTANCE_OHM = 0.35
#: Conductance (S) tying every edge node to the VDD ring: a strong tap.
TAP_CONDUCTANCE_S = 1e4
#: Mesh solve stops when ||residual|| <= CG_TOLERANCE * ||load current||.
CG_TOLERANCE = 1e-12
#: Supply voltage at 0.25 um.
VDD = 2.5
#: Average switching current per cell (mA) at full activity.
CELL_CURRENT_MA = 0.035
#: Dynamic di/dt droop per cell without local decap (mV).
DYNAMIC_DROOP_MV_PER_CELL = 1.1
#: Droop absorbed per inserted decap cell (mV).
DECAP_RELIEF_MV = 6.0


@dataclass
class IrDropReport:
    """Voltage map summary."""

    worst_static_drop_mv: float
    mean_static_drop_mv: float
    worst_dynamic_droop_mv: float
    violating_nodes: int
    limit_mv: float
    decaps_inserted: int = 0

    @property
    def clean(self) -> bool:
        return self.violating_nodes == 0

    def format_report(self) -> str:
        return "\n".join(
            [
                "IR drop analysis",
                f"  worst static drop : {self.worst_static_drop_mv:.1f} mV",
                f"  mean static drop  : {self.mean_static_drop_mv:.1f} mV",
                f"  worst dynamic     : {self.worst_dynamic_droop_mv:.1f} mV",
                f"  violations (> {self.limit_mv:.0f} mV) : "
                f"{self.violating_nodes}",
                f"  decaps inserted   : {self.decaps_inserted}",
            ]
        )


class PowerGridAnalyzer:
    """Solves the placement-grid power mesh."""

    def __init__(self, module: Module, placement: Placement,
                 *, activity: float = 0.25) -> None:
        if not 0.0 < activity <= 1.0:
            raise ValueError("activity must be in (0, 1]")
        self.module = module
        self.placement = placement
        self.activity = activity
        self.width = placement.grid_width
        self.height = placement.grid_height
        self._decap_sites: set[tuple[int, int]] = set()

    def _node(self, col: int, row: int) -> int:
        return row * self.width + col

    def _occupancy(self) -> dict[tuple[int, int], int]:
        cells: dict[tuple[int, int], int] = {}
        for loc in self.placement.locations.values():
            cells[loc] = cells.get(loc, 0) + 1
        return cells

    def solve_static(self) -> np.ndarray:
        """Node voltages (V) under average switching current.

        Flat, indexed by :meth:`_node`.  Jacobi-preconditioned CG on the
        5-point stencil solves for the drop ``VDD - v`` from all nodes
        at VDD, so the residual never carries the large tap currents.
        """
        shape = (self.height, self.width)
        load = np.zeros(shape)  # current each node draws (A)
        for (col, row), count in self._occupancy().items():
            if 0 <= col < self.width and 0 <= row < self.height:
                load[row, col] = (
                    count * CELL_CURRENT_MA * 1e-3 * self.activity
                )

        def neighbour_sum(x: np.ndarray) -> np.ndarray:
            out = np.zeros(shape)
            out[1:, :] += x[:-1, :]
            out[:-1, :] += x[1:, :]
            out[:, 1:] += x[:, :-1]
            out[:, :-1] += x[:, 1:]
            return out

        segment = 1.0 / SEGMENT_RESISTANCE_OHM
        diagonal = np.full(shape, TAP_CONDUCTANCE_S)
        diagonal[1:-1, 1:-1] = 0.0  # only edge nodes are VDD taps
        diagonal += segment * neighbour_sum(np.ones(shape))
        # Not np.vdot: a threaded BLAS dot crawls when cores are busy.
        dot = partial(np.einsum, "ij,ij->")

        drop = np.zeros(shape)
        residual = load.copy()
        direction = preconditioned = residual / diagonal
        rho = dot(residual, preconditioned)
        stop = CG_TOLERANCE ** 2 * dot(load, load)
        while dot(residual, residual) > stop:
            flow = diagonal * direction - segment * neighbour_sum(direction)
            step = rho / dot(direction, flow)
            drop += step * direction
            residual -= step * flow
            preconditioned = residual / diagonal
            rho, previous = dot(residual, preconditioned), rho
            direction = preconditioned + (rho / previous) * direction
        return (VDD - drop).ravel()

    @cached_property
    def _static_drops_mv(self) -> np.ndarray:
        """:meth:`solve_static`'s drops (mV), solved once per analyzer:
        decaps change only the dynamic droop."""
        return (VDD - self.solve_static()) * 1e3

    def analyze(self, *, limit_mv: float = 50.0) -> IrDropReport:
        """Static solve + dynamic droop estimate per node."""
        drops_mv = self._static_drops_mv
        occupancy = self._occupancy()
        dynamic = np.zeros_like(drops_mv)
        for (col, row), count in occupancy.items():
            if 0 <= col < self.width and 0 <= row < self.height:
                node = self._node(col, row)
                droop = count * DYNAMIC_DROOP_MV_PER_CELL * self.activity
                if (col, row) in self._decap_sites:
                    droop = max(0.0, droop - DECAP_RELIEF_MV)
                dynamic[node] = droop
        total = drops_mv + dynamic
        return IrDropReport(
            worst_static_drop_mv=float(drops_mv.max()),
            mean_static_drop_mv=float(drops_mv.mean()),
            worst_dynamic_droop_mv=float(dynamic.max()),
            violating_nodes=int((total > limit_mv).sum()),
            limit_mv=limit_mv,
            decaps_inserted=len(self._decap_sites),
        )

    def insert_decaps(self, *, limit_mv: float = 50.0,
                      max_decaps: int = 200) -> int:
        """Place decap cells next to the worst droop sites.

        Decaps occupy empty placement sites adjacent to hot nodes;
        returns the number inserted.
        """
        drops_mv = self._static_drops_mv
        occupancy = self._occupancy()
        occupied = set(occupancy)
        hot = sorted(
            occupancy,
            key=lambda loc: -(
                drops_mv[self._node(*loc)]
                + occupancy[loc] * DYNAMIC_DROOP_MV_PER_CELL * self.activity
            ),
        )
        inserted = 0
        for col, row in hot:
            if inserted >= max_decaps:
                break
            node_total = (
                drops_mv[self._node(col, row)]
                + occupancy[(col, row)] * DYNAMIC_DROOP_MV_PER_CELL
                * self.activity
            )
            if node_total <= limit_mv:
                continue
            if (col, row) not in self._decap_sites:
                self._decap_sites.add((col, row))
                inserted += 1
            for neighbour in ((col + 1, row), (col - 1, row),
                              (col, row + 1), (col, row - 1)):
                if inserted >= max_decaps:
                    break
                if (0 <= neighbour[0] < self.width
                        and 0 <= neighbour[1] < self.height
                        and neighbour not in occupied
                        and neighbour not in self._decap_sites):
                    self._decap_sites.add(neighbour)
                    inserted += 1
        return inserted


def electromigration_check(
    module: Module, *, max_current_ma: float = 1.0,
    clock_mhz: float = 133.0,
) -> list[str]:
    """Nets whose average drive current exceeds the EM limit.

    Average current scales with load capacitance and frequency:
    I = C * V * f.  High-fanout nets driven hard are the offenders.
    """
    from ..sta import TimingAnalyzer, TimingConstraints

    analyzer = TimingAnalyzer(
        module, TimingConstraints(clock_period_ps=1e6 / clock_mhz)
    )
    offenders: list[str] = []
    for net_name, net in module.nets.items():
        if net.driver is None:
            continue
        cap_f = analyzer.load_cap_ff(net_name) * 1e-15
        current_ma = cap_f * VDD * clock_mhz * 1e6 * 1e3
        if current_ma > max_current_ma:
            offenders.append(net_name)
    return offenders
