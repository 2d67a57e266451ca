"""Vectorized multi-corner (arrival, slew) sweep.

One numpy pass per topological level, the same shape as the compiled
simulator's level sweep: gather per-arc source arrivals/slews,
bilinear-interpolate every delay/transition table of the level in one
batched lookup, add derates, and reduce per output net with
``np.maximum.reduceat`` (setup/late) and ``np.minimum.reduceat``
(hold/early).  Process corners ride as extra lanes ``[C, ...]`` on
every array, so analyzing ss/tt/ff costs one sweep, not three.

Bit-identity with the per-arc oracle
:func:`repro.oracles.sta.sweep_scalar_corner` is by construction: both
consume the same precomputed ``[C, N]`` load array and table stacks,
evaluate the same clamped bilinear formula in the same operation order
(:mod:`repro.liberty.tables`), and reduce with exact order-insensitive
max/min -- so every float64 in the swept arrays, and therefore the
canonical QoR JSON, matches the oracle for any corner set and worker
count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..liberty.tables import FloatArray, lookup_vector
from .analyzer import TimingConstraints

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .nldm import TimingGraph


def sweep_vectorized(
    graph: "TimingGraph",
    loads: FloatArray,
    delay_derates: FloatArray,
    slew_derates: FloatArray,
    constraints: TimingConstraints,
) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
    """Sweep all corners at once.

    ``loads`` is ``[C, N]`` from :func:`repro.sta.nldm.compute_loads`;
    returns ``(arrival_setup, slew_setup, arrival_hold, slew_hold)``,
    each ``[C, N]`` float64.
    """
    n_corners = len(delay_derates)
    n_nets = len(graph.net_names)
    dd = delay_derates[:, None]
    sd = slew_derates[:, None]

    arr_s = np.zeros((n_corners, n_nets), dtype=np.float64)
    arr_h = np.full((n_corners, n_nets), np.inf, dtype=np.float64)
    slew_s = np.full(
        (n_corners, n_nets), constraints.input_slew_ps, dtype=np.float64)
    slew_h = np.full(
        (n_corners, n_nets), constraints.input_slew_ps, dtype=np.float64)
    arr_s[:, graph.port_input_nets] = constraints.input_delay_ps

    if len(graph.flop_q_net):
        q = graph.flop_q_net
        q_loads = loads[:, q]
        q_slews = np.full_like(q_loads, constraints.clock_slew_ps)
        launch = lookup_vector(
            graph.delay_tables, graph.flop_table_id,
            graph.slew_grid, graph.load_grid, q_slews, q_loads,
        ) * dd
        launch_tran = lookup_vector(
            graph.tran_tables, graph.flop_table_id,
            graph.slew_grid, graph.load_grid, q_slews, q_loads,
        ) * sd
        arr_s[:, q] = launch
        arr_h[:, q] = launch
        slew_s[:, q] = launch_tran
        slew_h[:, q] = launch_tran

    for level in graph.levels:
        src = level.src_net
        out = level.out_net
        arc_loads = loads[:, level.out_net_per_arc]

        delays = lookup_vector(
            graph.delay_tables, level.table_id,
            graph.slew_grid, graph.load_grid, slew_s[:, src], arc_loads,
        ) * dd
        trans = lookup_vector(
            graph.tran_tables, level.table_id,
            graph.slew_grid, graph.load_grid, slew_s[:, src], arc_loads,
        ) * sd
        delays_h = lookup_vector(
            graph.delay_tables, level.table_id,
            graph.slew_grid, graph.load_grid, slew_h[:, src], arc_loads,
        ) * dd
        trans_h = lookup_vector(
            graph.tran_tables, level.table_id,
            graph.slew_grid, graph.load_grid, slew_h[:, src], arc_loads,
        ) * sd

        arr_s[:, out] = np.maximum.reduceat(
            arr_s[:, src] + delays, level.group_start, axis=1)
        slew_s[:, out] = np.maximum.reduceat(
            trans, level.group_start, axis=1)
        arr_h[:, out] = np.minimum.reduceat(
            arr_h[:, src] + delays_h, level.group_start, axis=1)
        slew_h[:, out] = np.minimum.reduceat(
            trans_h, level.group_start, axis=1)

    return arr_s, slew_s, arr_h, slew_h
