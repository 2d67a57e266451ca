"""Deterministic NLDM characterization of a standard-cell library.

Real libraries come out of SPICE characterization runs; here we play
the characterization tool: :func:`characterize_library` derives full
NLDM delay/transition/internal-power tables for every cell of a
:class:`repro.netlist.StdCellLibrary` from seeded, monotone scaling
laws over the cell's electrical attributes (intrinsic delay, drive
resistance, Vt class, drive strength).

The laws are physical in shape -- delay grows affinely in input slew
and output load with a weak sqrt coupling term, HVT cells are more
slew-sensitive than LVT -- and every coefficient is positive, so all
tables are strictly monotone along both axes (a property the test
suite checks via hypothesis).  A per-arc jitter drawn from
``np.random.default_rng([seed, crc32(arc name)])`` makes tables
realistically non-uniform while staying bit-reproducible regardless
of cell iteration order.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from repro.netlist.library import Cell, StdCellLibrary, make_default_library

from .library import (
    STANDARD_CORNERS,
    CellLibrary,
    Corner,
    LibertyCell,
    LibertyPin,
    TimingArc,
)
from .tables import TableValues

#: Default characterization grid: input transition in ps ...
DEFAULT_SLEW_INDEX_PS: tuple[float, ...] = (10.0, 25.0, 60.0, 150.0, 400.0)
#: ... by output load in fF.
DEFAULT_LOAD_INDEX_FF: tuple[float, ...] = (1.0, 4.0, 10.0, 25.0, 60.0, 150.0)

#: Wire capacitance per micron of estimated route at the 0.25 um
#: reference node; thinner nodes route on proportionally thinner metal.
_BASE_WIRE_CAP_FF_PER_UM = 0.18
_REFERENCE_NODE_UM = 0.25

#: Slew-sensitivity of delay per Vt class: high-Vt transistors switch
#: later on a slow edge, low-Vt earlier.
_VT_SLEW_SENSITIVITY = {"hvt": 1.10, "svt": 1.00, "lvt": 0.92}

#: Fraction of an event's load energy dissipated inside the cell.
_INTERNAL_ENERGY_PER_AREA_FJ = 0.012


def _arc_rng(seed: int, cell: str, related: str, output: str
             ) -> np.random.Generator:
    """The per-arc jitter stream; depends only on the seed + arc name."""
    tag = zlib.crc32(f"{cell}:{related}->{output}".encode())
    return np.random.default_rng([seed, tag])


def _arc_tables(
    cell: Cell,
    related: str,
    output: str,
    seed: int,
    slew_index: tuple[float, ...],
    load_index: tuple[float, ...],
) -> tuple[TableValues, TableValues, TableValues]:
    """Characterize one arc: (delay, transition, internal energy)."""
    rng = _arc_rng(seed, cell.name, related, output)
    # A fixed number of draws in a fixed order keeps the stream stable
    # if laws gain parameters later.
    j_delay = float(rng.uniform(0.96, 1.04))
    j_slope = float(rng.uniform(0.94, 1.06))
    j_tran = float(rng.uniform(0.95, 1.05))
    j_energy = float(rng.uniform(0.92, 1.08))

    intrinsic = cell.intrinsic_delay_ps
    r_drive = cell.drive_resistance_kohm
    slew_sens = _VT_SLEW_SENSITIVITY.get(cell.vt_class, 1.0)

    # delay(s, l) = a*I + b*s + R*l + c*sqrt(s*l): affine in both axes
    # with a weak positive coupling term.  kohm x fF = ps, so the load
    # slope is the cell's drive resistance directly.
    a_coeff = 0.85 * j_delay
    b_coeff = 0.16 * slew_sens * j_slope
    c_coeff = 0.040 * r_drive

    # transition(s, l) = t0 + 0.08*s + k*R*l: the output edge is set
    # mostly by R*C, with a weak dependence on the input edge.
    t0 = 9.0 * j_tran + 0.06 * intrinsic
    k_tran = 0.90 * j_tran

    # internal energy per event (fJ): crowbar + internal node charge.
    e0 = _INTERNAL_ENERGY_PER_AREA_FJ * cell.area_um2 * j_energy
    e_slew = 0.0035 * j_energy  # fJ per ps of input slew (crowbar)
    e_load = 0.0080 * r_drive  # fJ per fF (internal node coupling)

    delay_rows = []
    tran_rows = []
    energy_rows = []
    for s in slew_index:
        delay_row = []
        tran_row = []
        energy_row = []
        for load in load_index:
            coupling = c_coeff * math.sqrt(s * load)
            delay_row.append(
                a_coeff * intrinsic + b_coeff * s + r_drive * load + coupling
            )
            tran_row.append(t0 + 0.08 * s + k_tran * r_drive * load)
            energy_row.append(e0 + e_slew * s + e_load * load)
        delay_rows.append(tuple(delay_row))
        tran_rows.append(tuple(tran_row))
        energy_rows.append(tuple(energy_row))
    return tuple(delay_rows), tuple(tran_rows), tuple(energy_rows)


def _characterize_cell(
    cell: Cell,
    seed: int,
    slew_index: tuple[float, ...],
    load_index: tuple[float, ...],
) -> LibertyCell:
    pins = tuple(
        LibertyPin(
            name=p.name,
            direction=p.direction,
            capacitance_ff=p.capacitance_ff,
            is_clock=(cell.clock_pin == p.name),
        )
        for p in cell.pins
    )

    arcs: list[TimingArc] = []
    if cell.is_sequential:
        # One rising-edge clock-to-output arc per output pin.
        assert cell.clock_pin is not None
        for out in cell.output_pins:
            delay, tran, energy = _arc_tables(
                cell, cell.clock_pin, out, seed, slew_index, load_index)
            arcs.append(TimingArc(cell.clock_pin, out, "rising_edge",
                                  delay, tran, energy))
    else:
        for out in cell.output_pins:
            for inp in cell.input_pins:
                delay, tran, energy = _arc_tables(
                    cell, inp, out, seed, slew_index, load_index)
                arcs.append(TimingArc(inp, out, "combinational",
                                      delay, tran, energy))

    return LibertyCell(
        name=cell.name,
        area_um2=cell.area_um2,
        leakage_nw=cell.leakage_nw,
        vt_class=cell.vt_class,
        drive_strength=cell.drive_strength,
        footprint=cell.footprint,
        is_sequential=cell.is_sequential,
        clock_pin=cell.clock_pin,
        data_pin=cell.data_pin,
        pins=pins,
        arcs=tuple(arcs),
    )


def characterize_library(
    std_lib: StdCellLibrary,
    *,
    seed: int = 0,
    corners: tuple[Corner, ...] = STANDARD_CORNERS,
    slew_index_ps: tuple[float, ...] = DEFAULT_SLEW_INDEX_PS,
    load_index_ff: tuple[float, ...] = DEFAULT_LOAD_INDEX_FF,
) -> CellLibrary:
    """Characterize every cell of ``std_lib`` into a :class:`CellLibrary`.

    Deterministic: the same (library, seed, grid) always yields the
    same tables and therefore the same fingerprint, independent of
    cell registration order.
    """
    wire_cap = _BASE_WIRE_CAP_FF_PER_UM * (
        std_lib.process_node_um / _REFERENCE_NODE_UM
    )
    cells = {
        cell.name: _characterize_cell(cell, seed, slew_index_ps, load_index_ff)
        for cell in sorted(std_lib, key=lambda c: c.name)
    }
    return CellLibrary(
        name=f"{std_lib.name}_nldm_s{seed}",
        source_library=std_lib.name,
        process_node_um=std_lib.process_node_um,
        seed=seed,
        slew_index_ps=slew_index_ps,
        load_index_ff=load_index_ff,
        wire_cap_ff_per_um=wire_cap,
        corners=corners,
        cells=cells,
    )


_DEFAULT_CACHE: dict[tuple[str, str, float, int], CellLibrary] = {}


def default_cell_library(
    std_lib: StdCellLibrary | None = None, *, seed: int = 0
) -> CellLibrary:
    """The memoized default characterized library for one netlist library.

    Consumers (:mod:`repro.eco`, :mod:`repro.lowpower`,
    :mod:`repro.physical`) call this when no explicit library is
    supplied, so repeated analyses share one characterization.  The
    memo keys on the library's cell content
    (:meth:`~repro.netlist.StdCellLibrary.content_digest`), node and
    seed, and on its name, which the characterized library carries.
    """
    if std_lib is None:
        std_lib = make_default_library()
    key = (std_lib.name, std_lib.content_digest(),
           std_lib.process_node_um, seed)
    cached = _DEFAULT_CACHE.get(key)
    if cached is None:
        cached = characterize_library(std_lib, seed=seed)
        _DEFAULT_CACHE[key] = cached
    return cached
