"""Tests for repro.liberty: deterministic NLDM characterization, the
Liberty-subset round trip, and the bilinear lookup kernels."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.liberty import (
    DEFAULT_LOAD_INDEX_FF,
    DEFAULT_SLEW_INDEX_PS,
    STANDARD_CORNERS,
    CellLibrary,
    LibertyParseError,
    characterize_library,
    default_cell_library,
    lookup_scalar,
    lookup_vector,
    parse_lib,
    table_array,
    write_lib,
)
from repro.netlist import StdCellLibrary, counter, make_default_library
from repro.sta import NldmTimingAnalyzer, TimingConstraints

#: Regression anchor: the default characterization is part of the QoR
#: contract -- any change to the scaling laws, grids, corners or rng
#: recipe shows up here first.
DEFAULT_FINGERPRINT = (
    "0c982d2c6fc5e72db3ac2dce73bf997654a7599c697e457f42d389ffdd0bad7b"
)


@pytest.fixture(scope="module")
def std_lib():
    return make_default_library(0.25)


@pytest.fixture(scope="module")
def lib(std_lib):
    return default_cell_library(std_lib)


class TestCharacterization:
    def test_every_std_cell_characterized(self, std_lib, lib):
        assert sorted(lib.cells) == sorted(c.name for c in std_lib)

    def test_deterministic(self, std_lib, lib):
        again = characterize_library(std_lib, seed=0)
        assert again == lib
        assert again.fingerprint() == lib.fingerprint()

    def test_fingerprint_pinned(self, lib):
        assert lib.fingerprint() == DEFAULT_FINGERPRINT

    def test_fingerprint_built_once(self, std_lib, monkeypatch):
        """Every NLDM analyzer keys its graph cache on the library
        fingerprint; the digest is built once per library."""
        library = characterize_library(std_lib, seed=2)
        builds = []
        canonical = CellLibrary._canonical

        def counting(self):
            builds.append(self)
            return canonical(self)

        monkeypatch.setattr(CellLibrary, "_canonical", counting)
        block = counter("cnt", std_lib, width=4)
        constraints = TimingConstraints(clock_period_ps=5000)
        for _ in range(2):
            NldmTimingAnalyzer(block, constraints, library=library)
        assert len(builds) == 1

    def test_seed_changes_tables(self, std_lib, lib):
        other = characterize_library(std_lib, seed=1)
        assert other.fingerprint() != lib.fingerprint()

    def test_tables_strictly_monotone(self, lib):
        """More load or slower input edges never make a cell faster."""
        for cell in lib.cells.values():
            for arc in cell.arcs:
                for tables in (arc.delay_ps, arc.transition_ps):
                    grid = table_array(tables)
                    assert (np.diff(grid, axis=0) > 0).all(), cell.name
                    assert (np.diff(grid, axis=1) > 0).all(), cell.name

    def test_vt_delay_ordering(self, lib):
        """hvt slower than svt slower than lvt at the same point."""
        delays = []
        for name in ("INV_X1_HVT", "INV_X1", "INV_X1_LVT"):
            arc = lib.cell(name).arcs[0]
            delays.append(lookup_scalar(
                table_array(arc.delay_ps),
                lib.slew_index_ps, lib.load_index_ff, 60.0, 25.0,
            ))
        assert delays[0] > delays[1] > delays[2]

    def test_sequential_cells_have_clock_arcs(self, lib):
        dff = lib.cell("DFF")
        assert dff.is_sequential
        assert all(a.kind == "rising_edge" for a in dff.arcs)
        assert all(a.related_pin == "CK" for a in dff.arcs)

    def test_corners(self, lib):
        assert lib.corner_names() == ("ss", "tt", "ff")
        tt = lib.corner("tt")
        assert tt.delay_derate == 1.0 and tt.vdd_v == 2.5
        assert lib.corner("ss").delay_derate > 1.0
        assert lib.corner("ff").delay_derate < 1.0
        with pytest.raises(KeyError):
            lib.corner("mc")

    def test_default_cell_library_memoized(self, std_lib):
        assert default_cell_library(std_lib) is default_cell_library(std_lib)

    def test_default_cell_library_keys_on_cell_content(self, std_lib):
        """A library with the default's name, node and cell count but a
        heavier ``NAND2_X1`` input pin gets its own characterization,
        not the memoized default's."""
        default = default_cell_library(std_lib)
        heavy = StdCellLibrary(std_lib.name, std_lib.process_node_um)
        for cell in std_lib:
            if cell.name == "NAND2_X1":
                cell = dataclasses.replace(cell, pins=tuple(
                    dataclasses.replace(
                        pin, capacitance_ff=pin.capacitance_ff * 3)
                    if pin.direction == "input" else pin
                    for pin in cell.pins
                ))
            heavy.add(cell)
        assert len(heavy) == len(std_lib)
        characterized = default_cell_library(heavy)
        assert characterized.fingerprint() == \
            characterize_library(heavy).fingerprint()
        assert characterized.fingerprint() != default.fingerprint()
        assert default_cell_library(heavy) is characterized

    def test_library_digest_follows_added_cells(self, std_lib):
        copy = StdCellLibrary(std_lib.name, std_lib.process_node_um)
        cells = list(std_lib)
        for cell in cells[:-1]:
            copy.add(cell)
        partial = copy.content_digest()
        copy.add(cells[-1])
        assert copy.content_digest() != partial
        assert copy.content_digest() == std_lib.content_digest()


class TestLibertyRoundTrip:
    def test_write_parse_equality(self, lib):
        text = write_lib(lib)
        parsed = parse_lib(text)
        assert parsed == lib
        assert parsed.fingerprint() == lib.fingerprint()

    def test_written_form_is_stable(self, lib):
        assert write_lib(lib) == write_lib(parse_lib(write_lib(lib)))

    def test_header_fields_survive(self, lib):
        parsed = parse_lib(write_lib(lib))
        assert parsed.name == lib.name
        assert parsed.source_library == lib.source_library
        assert parsed.process_node_um == lib.process_node_um
        assert parsed.seed == lib.seed
        assert parsed.corners == STANDARD_CORNERS

    def test_parse_error(self):
        with pytest.raises(LibertyParseError):
            parse_lib("library (broken) { cell (X) ")
        with pytest.raises(LibertyParseError):
            parse_lib("cell (X) { }")


def _reference_table(lib):
    arc = lib.cell("NAND2_X1").arcs[0]
    return table_array(arc.delay_ps)


class TestBilinearLookup:
    @given(
        si=st.integers(0, len(DEFAULT_SLEW_INDEX_PS) - 1),
        li=st.integers(0, len(DEFAULT_LOAD_INDEX_FF) - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_points_exact(self, si, li):
        """Interpolation reproduces table entries exactly on the grid."""
        lib = default_cell_library(make_default_library(0.25))
        table = _reference_table(lib)
        got = lookup_scalar(
            table, lib.slew_index_ps, lib.load_index_ff,
            lib.slew_index_ps[si], lib.load_index_ff[li],
        )
        assert got == table[si, li]

    @given(
        s1=st.floats(0.0, 500.0),
        s2=st.floats(0.0, 500.0),
        l1=st.floats(0.0, 200.0),
        l2=st.floats(0.0, 200.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_between_grid_points(self, s1, s2, l1, l2):
        """Bilinear interpolation of a monotone table is monotone,
        including in the clamped region outside the grid."""
        lib = default_cell_library(make_default_library(0.25))
        table = _reference_table(lib)
        s_lo, s_hi = min(s1, s2), max(s1, s2)
        l_lo, l_hi = min(l1, l2), max(l1, l2)
        lo = lookup_scalar(
            table, lib.slew_index_ps, lib.load_index_ff, s_lo, l_lo)
        hi = lookup_scalar(
            table, lib.slew_index_ps, lib.load_index_ff, s_hi, l_hi)
        assert lo <= hi

    @given(
        queries=st.lists(
            st.tuples(st.floats(0.0, 500.0), st.floats(0.0, 200.0)),
            min_size=1, max_size=16,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_vector_matches_scalar_bitwise(self, queries):
        """Every lane of the batched lookup equals the scalar kernel
        bit for bit -- the engine-equivalence foundation."""
        lib = default_cell_library(make_default_library(0.25))
        table = _reference_table(lib)
        tables = table[None, :, :]
        slews = np.asarray([q[0] for q in queries], dtype=np.float64)
        loads = np.asarray([q[1] for q in queries], dtype=np.float64)
        ids = np.zeros(len(queries), dtype=np.int64)
        vec = lookup_vector(
            tables, ids,
            np.asarray(lib.slew_index_ps), np.asarray(lib.load_index_ff),
            slews, loads,
        )
        for lane, (slew, load) in enumerate(queries):
            scalar = lookup_scalar(
                table, lib.slew_index_ps, lib.load_index_ff, slew, load)
            assert vec[lane] == scalar

    def test_clamps_no_extrapolation(self, lib):
        table = _reference_table(lib)
        inside = lookup_scalar(
            table, lib.slew_index_ps, lib.load_index_ff,
            lib.slew_index_ps[-1], lib.load_index_ff[-1])
        beyond = lookup_scalar(
            table, lib.slew_index_ps, lib.load_index_ff, 1e6, 1e6)
        assert beyond == inside
