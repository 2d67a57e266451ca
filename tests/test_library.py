"""Unit tests for the standard-cell library model."""

import dataclasses

import pytest

from repro.netlist import (
    Cell,
    Logic,
    PinSpec,
    StdCellLibrary,
    make_default_library,
)


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


class TestDefaultLibrary:
    def test_core_cells_present(self, lib):
        for name in ("INV_X1", "NAND2_X1", "NOR2_X1", "XOR2_X1", "MUX2_X1",
                     "DFF", "DFFR", "SDFF", "SDFFR", "TIEHI", "TIELO",
                     "SPARE_BLOCK", "PAD_IN", "PAD_OUT_8MA"):
            assert name in lib

    def test_unknown_cell_raises(self, lib):
        with pytest.raises(KeyError):
            lib["NOT_A_CELL"]

    def test_inverter_function(self, lib):
        inv = lib["INV_X1"]
        assert inv.evaluate({"A": Logic.ZERO}) is Logic.ONE
        assert inv.evaluate({"A": Logic.ONE}) is Logic.ZERO

    def test_aoi21_function(self, lib):
        aoi = lib["AOI21_X1"]
        # Y = ~((A & B) | C)
        assert aoi.evaluate(
            {"A": Logic.ONE, "B": Logic.ONE, "C": Logic.ZERO}
        ) is Logic.ZERO
        assert aoi.evaluate(
            {"A": Logic.ZERO, "B": Logic.ONE, "C": Logic.ZERO}
        ) is Logic.ONE

    def test_drive_variants_sorted(self, lib):
        invs = lib.drive_variants("INV")
        strengths = [c.drive_strength for c in invs]
        assert strengths == sorted(strengths)
        assert len(invs) >= 3

    def test_higher_drive_lower_resistance(self, lib):
        x1 = lib["INV_X1"]
        x4 = lib["INV_X4"]
        assert x4.drive_resistance_kohm < x1.drive_resistance_kohm
        assert x4.area_um2 > x1.area_um2

    def test_scan_flop_metadata(self, lib):
        sdff = lib["SDFFR"]
        assert sdff.is_sequential
        assert sdff.scan_in_pin == "SI"
        assert sdff.scan_enable_pin == "SE"
        assert sdff.reset_pin == "RN"
        assert sdff.clock_pin == "CK"

    def test_pads_flagged(self, lib):
        assert lib["PAD_OUT_4MA"].is_pad
        assert lib["PAD_IN"].is_pad
        assert not lib["INV_X1"].is_pad

    def test_output_pad_drive_family(self, lib):
        pads = lib.cells_by_footprint("PAD_OUT")
        assert len(pads) >= 5
        drives = sorted(p.drive_strength for p in pads)
        assert drives[0] == 2 and drives[-1] == 24


class TestNodeScaling:
    def test_018_area_smaller(self):
        lib25 = make_default_library(0.25)
        lib18 = make_default_library(0.18)
        assert lib18["NAND2_X1"].area_um2 < lib25["NAND2_X1"].area_um2
        ratio = lib18["NAND2_X1"].area_um2 / lib25["NAND2_X1"].area_um2
        assert ratio == pytest.approx((0.18 / 0.25) ** 2, rel=1e-6)

    def test_018_faster(self):
        lib25 = make_default_library(0.25)
        lib18 = make_default_library(0.18)
        assert (lib18["NAND2_X1"].intrinsic_delay_ps
                < lib25["NAND2_X1"].intrinsic_delay_ps)

    def test_unsupported_node_rejected(self):
        with pytest.raises(ValueError, match="unsupported node"):
            make_default_library(0.09)


class TestCellValidation:
    def test_duplicate_pin_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate pin"):
            Cell("BAD", (PinSpec("A", "input"), PinSpec("A", "output")))

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            PinSpec("A", "bidirectional")

    def test_duplicate_cell_in_library_rejected(self):
        lib = StdCellLibrary("t", 0.25)
        cell = Cell("C", (PinSpec("Y", "output"),))
        lib.add(cell)
        with pytest.raises(ValueError, match="duplicate cell"):
            lib.add(cell)

    def test_evaluate_without_function_raises(self):
        dff = make_default_library(0.25)["DFF"]
        with pytest.raises(ValueError, match="no combinational function"):
            dff.evaluate({"D": Logic.ONE, "CK": Logic.ZERO})

    def test_pin_lookup(self, lib):
        nand = lib["NAND2_X1"]
        assert nand.pin("A").direction == "input"
        assert nand.pin("Y").direction == "output"
        with pytest.raises(KeyError, match="cell NAND2_X1 has no pin 'Q'"):
            nand.pin("Q")
        assert all(nand.pin(spec.name) is spec for spec in nand.pins)

    def test_pin_tuples_built_once(self, lib):
        """The formal encoders and the fault and dataflow kernels read
        the pin tuples for every instance visit; each is built once
        per cell, and the cell still compares and hashes by value."""
        for name in ("NAND2_X1", "SDFFR"):
            cell = lib[name]
            assert cell.input_pins is cell.input_pins
            assert cell.output_pins is cell.output_pins
        nand = lib["NAND2_X1"]
        assert nand.input_pins == ("A", "B")
        fresh = Cell("NAND2_X1", nand.pins, nand.function)
        cached = Cell("NAND2_X1", nand.pins, nand.function)
        assert cached.output_pins == ("Y",)
        assert cached == fresh and hash(cached) == hash(fresh)


def test_footprint_lookup_sees_cells_added_after_it():
    """The footprint index is built on first lookup; a cell added later
    (as ``heavy_pin_library`` in ``test_sta_incremental.py`` adds its
    twins) must show up in every later lookup, in insertion order."""
    lib = make_default_library(0.25)
    nand = lib["NAND2_X1"]
    assert lib.vt_variant(nand, "hvt") is lib["NAND2_X1_HVT"]
    before = lib.cells_by_footprint("NAND2")
    heavy = lib.add(dataclasses.replace(nand, name="NAND2_X1_HP"))
    assert lib.cells_by_footprint("NAND2") == before + [heavy]
    assert heavy in lib.drive_variants("NAND2")
    for footprint in {cell.footprint for cell in lib}:
        found = lib.cells_by_footprint(footprint)
        assert found == [c for c in lib if c.footprint == footprint]
        found.clear()  # a fresh list: the index is not the caller's
        assert lib.cells_by_footprint(footprint)
    assert lib.cells_by_footprint("NO_SUCH_FOOTPRINT") == []
