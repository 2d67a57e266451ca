"""Text-level checks of the Liberty (.lib) writer, ``write_lib``.

``tests/test_liberty_library.py`` proves ``parse_lib(write_lib(lib))``
round-trips, which a writer that duplicated a cell or mislabelled a
table axis would still pass.  These pin what the text itself says to
a reader outside this package: units and table axes, each cell once,
one ``timing ()`` group per input on a combinational output, the Vt
class, balanced groups and sane numbers.
"""

import re

import pytest

from repro.liberty import default_cell_library, write_lib
from repro.netlist import make_default_library


@pytest.fixture(scope="module")
def lib_text():
    return write_lib(default_cell_library(make_default_library(0.25)))


def cell_block(text: str, name: str) -> str:
    return text.split(f"cell ({name})")[1].split("cell (")[0]


class TestLibertyExport:
    def test_header_and_units(self, lib_text):
        assert lib_text.startswith("library (repro250_nldm_s0) {")
        assert "units: ps, fF, nW, fJ" in lib_text
        # The table axes an external STA tool indexes by.
        assert "variable_1 : input_net_transition;" in lib_text
        assert "variable_2 : total_output_net_capacitance;" in lib_text

    def test_every_cell_emitted(self, lib_text):
        library = make_default_library(0.25)
        emitted = re.findall(r"cell \((\w+)\)", lib_text)
        assert sorted(emitted) == sorted(cell.name for cell in library)

    def test_combinational_cell_timing_arcs(self, lib_text):
        nand_block = cell_block(lib_text, "NAND2_X1")
        # One timing group per input pin on the output.
        assert nand_block.count("timing ()") == 2
        assert 'related_pin : "A"' in nand_block
        assert 'related_pin : "B"' in nand_block
        assert nand_block.count("cell_delay (") == 2
        assert nand_block.count("output_transition (") == 2

    def test_hvt_cells_carry_vt_group(self, lib_text):
        hvt_block = cell_block(lib_text, "NAND2_X1_HVT")
        assert 'vt_class : "hvt";' in hvt_block

    def test_braces_balanced(self, lib_text):
        assert lib_text.count("{") == lib_text.count("}")

    def test_numbers_are_parsable(self, lib_text):
        for match in re.finditer(r"area : ([0-9.]+);", lib_text):
            assert float(match.group(1)) > 0
        for match in re.finditer(r"capacitance : ([0-9.]+);", lib_text):
            assert float(match.group(1)) >= 0
