"""Per-arc scalar NLDM sweep: the oracle of the vectorized STA sweep.

:func:`sweep_scalar_corner` walks one corner of a compiled
:class:`~repro.sta.TimingGraph` arc by arc in plain Python arithmetic.
:func:`analyze_scalar` runs it over every requested corner of an
:class:`~repro.sta.NldmTimingAnalyzer` on the analyzer's own loads and
derates, and builds the report through production's
:func:`repro.sta.nldm.build_report`, so its canonical QoR JSON must
equal :meth:`NldmTimingAnalyzer.analyze`'s byte for byte.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..liberty.tables import FloatArray, lookup_scalar
from ..sta import NldmTimingAnalyzer, TimingConstraints
from ..sta.nldm import (
    MultiCornerTimingReport,
    TimingGraph,
    build_report,
    compute_loads,
)

__all__ = ["analyze_scalar", "sweep_scalar_corner"]


def sweep_scalar_corner(
    graph: TimingGraph,
    loads_row: FloatArray,
    delay_derate: float,
    slew_derate: float,
    constraints: TimingConstraints,
) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
    """Per-arc walk of one corner.

    Returns ``(arrival_setup, slew_setup, arrival_hold, slew_hold)``,
    each ``[N]`` float64.  Plain Python arithmetic per arc; the
    vectorized engine must reproduce every value bit-for-bit.
    """
    n = len(graph.net_names)
    inf = float("inf")
    arr_s = np.zeros(n, dtype=np.float64)
    arr_h = np.full(n, inf, dtype=np.float64)
    slew_s = np.full(n, constraints.input_slew_ps, dtype=np.float64)
    slew_h = np.full(n, constraints.input_slew_ps, dtype=np.float64)
    arr_s[graph.port_input_nets] = constraints.input_delay_ps

    delay_tables = graph.delay_tables
    tran_tables = graph.tran_tables
    sgrid, lgrid = graph.slew_grid_t, graph.load_grid_t
    clock_slew = constraints.clock_slew_ps

    for q_idx, tid in zip(graph.flop_q_net, graph.flop_table_id):
        load = float(loads_row[q_idx])
        delay = lookup_scalar(
            delay_tables[tid], sgrid, lgrid, clock_slew, load) * delay_derate
        tran = lookup_scalar(
            tran_tables[tid], sgrid, lgrid, clock_slew, load) * slew_derate
        arr_s[q_idx] = delay
        arr_h[q_idx] = delay
        slew_s[q_idx] = tran
        slew_h[q_idx] = tran

    for level in graph.levels:
        src = level.src_net
        tids = level.table_id
        starts = level.group_start
        n_groups = len(level.out_net)
        for g in range(n_groups):
            lo = int(starts[g])
            hi = int(starts[g + 1]) if g + 1 < n_groups else len(src)
            out_idx = int(level.out_net[g])
            load = float(loads_row[out_idx])
            best_as, best_ts = -inf, -inf
            best_ah, best_th = inf, inf
            for a in range(lo, hi):
                s_idx = int(src[a])
                tid = int(tids[a])
                cand = float(arr_s[s_idx]) + lookup_scalar(
                    delay_tables[tid], sgrid, lgrid,
                    float(slew_s[s_idx]), load) * delay_derate
                if cand > best_as:
                    best_as = cand
                tran = lookup_scalar(
                    tran_tables[tid], sgrid, lgrid,
                    float(slew_s[s_idx]), load) * slew_derate
                if tran > best_ts:
                    best_ts = tran
                cand_h = float(arr_h[s_idx]) + lookup_scalar(
                    delay_tables[tid], sgrid, lgrid,
                    float(slew_h[s_idx]), load) * delay_derate
                if cand_h < best_ah:
                    best_ah = cand_h
                tran_h = lookup_scalar(
                    tran_tables[tid], sgrid, lgrid,
                    float(slew_h[s_idx]), load) * slew_derate
                if tran_h < best_th:
                    best_th = tran_h
            arr_s[out_idx] = best_as
            slew_s[out_idx] = best_ts
            arr_h[out_idx] = best_ah
            slew_h[out_idx] = best_th

    return arr_s, slew_s, arr_h, slew_h


def analyze_scalar(
    analyzer: NldmTimingAnalyzer,
    *,
    corners: Sequence[str] | None = None,
    with_critical_path: bool = True,
) -> MultiCornerTimingReport:
    """:meth:`NldmTimingAnalyzer.analyze`, one scalar walk per corner."""
    names, corner_objs = analyzer._resolve_corners(corners)
    loads = compute_loads(analyzer.graph, analyzer.constraints,
                          analyzer.net_wire_cap_ff, corner_objs)
    delay_derates = np.asarray(
        [c.delay_derate for c in corner_objs], dtype=np.float64)
    slew_derates = np.asarray(
        [c.slew_derate for c in corner_objs], dtype=np.float64)
    sweeps = [
        sweep_scalar_corner(
            analyzer.graph, loads[i], float(delay_derates[i]),
            float(slew_derates[i]), analyzer.constraints)
        for i in range(len(names))
    ]
    arr_s = np.stack([sweep[0] for sweep in sweeps])
    slew_s = np.stack([sweep[1] for sweep in sweeps])
    arr_h = np.stack([sweep[2] for sweep in sweeps])
    return build_report(
        analyzer.graph, analyzer.constraints, names, delay_derates, loads,
        arr_s, slew_s, arr_h, with_critical_path=with_critical_path,
    )
