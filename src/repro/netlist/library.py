"""Standard-cell library model.

A :class:`StdCellLibrary` is a named collection of :class:`Cell`
templates, each carrying the attributes the rest of the flow consumes:

* a logic function (for combinational cells) evaluated in four-value
  logic (see :mod:`repro.netlist.logic`);
* timing data for the linear delay model used by :mod:`repro.sta`
  (intrinsic delay, drive resistance, pin capacitance);
* physical data for placement and cost models (area, leakage).

The default library :func:`make_default_library` models the two
process nodes the paper uses: TSMC-style 0.25 um (the original DSC
controller) and 0.18 um (the cost-reduction migration in Section 4).
Values are representative textbook numbers, not foundry data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .logic import (
    Logic,
    logic_and,
    logic_buf,
    logic_mux,
    logic_nand,
    logic_nor,
    logic_not,
    logic_or,
    logic_xnor,
    logic_xor,
)

LogicFunction = Callable[..., Logic]


@dataclass(frozen=True)
class PinSpec:
    """Static description of one cell pin."""

    name: str
    direction: str  # "input" | "output"
    capacitance_ff: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("input", "output"):
            raise ValueError(f"bad pin direction: {self.direction!r}")


@dataclass(frozen=True)
class Cell:
    """A standard-cell template.

    Combinational cells have exactly one output pin and a ``function``
    mapping input pin values (in ``input_pins`` order) to the output.
    Sequential cells set ``is_sequential`` and name their control pins.
    """

    name: str
    pins: tuple[PinSpec, ...]
    function: LogicFunction | None = None
    area_um2: float = 1.0
    intrinsic_delay_ps: float = 1.0
    drive_resistance_kohm: float = 1.0
    leakage_nw: float = 0.1
    is_sequential: bool = False
    #: Level-sensitive latch (no clock edge); scan DRC rejects these.
    is_latch: bool = False
    clock_pin: str | None = None
    data_pin: str | None = None
    reset_pin: str | None = None
    scan_in_pin: str | None = None
    scan_enable_pin: str | None = None
    is_spare: bool = False
    is_pad: bool = False
    drive_strength: int = 1
    footprint: str = ""
    #: Threshold-voltage class: "svt" (standard), "hvt" (low leakage,
    #: slower), "lvt" (fast, leaky).  Same-footprint cells of any Vt
    #: are layout-swappable -- the Section-4 "multi Vt cell library".
    vt_class: str = "svt"
    is_clock_gate: bool = False

    def __post_init__(self) -> None:
        names = [pin.name for pin in self.pins]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate pin names on cell {self.name}")

    # Built once per cell (``pins`` is frozen): the fault, dataflow and
    # formal kernels read them for every instance they visit.
    @cached_property
    def input_pins(self) -> tuple[str, ...]:
        """Input pin names in declaration order."""
        return tuple(p.name for p in self.pins if p.direction == "input")

    @cached_property
    def output_pins(self) -> tuple[str, ...]:
        """Output pin names in declaration order."""
        return tuple(p.name for p in self.pins if p.direction == "output")

    @cached_property
    def _pins_by_name(self) -> dict[str, PinSpec]:
        return {spec.name: spec for spec in self.pins}

    def pin(self, name: str) -> PinSpec:
        """Look up a pin spec by name."""
        try:
            return self._pins_by_name[name]
        except KeyError:
            raise KeyError(f"cell {self.name} has no pin {name!r}") from None

    def evaluate(self, inputs: Mapping[str, Logic]) -> Logic:
        """Evaluate a combinational cell for the given input values."""
        if self.function is None:
            raise ValueError(f"cell {self.name} has no combinational function")
        args = [inputs[p] for p in self.input_pins]
        return self.function(*args)


class StdCellLibrary:
    """A named, immutable-ish collection of :class:`Cell` templates."""

    def __init__(self, name: str, process_node_um: float) -> None:
        self.name = name
        self.process_node_um = process_node_um
        self._cells: dict[str, Cell] = {}
        #: Footprint -> cells in insertion order, built on first lookup
        #: (sizing and multi-Vt loops ask once per candidate).
        self._by_footprint: dict[str, list[Cell]] | None = None
        #: :meth:`content_digest`, built on first request.
        self._digest: str | None = None

    def add(self, cell: Cell) -> Cell:
        """Register a cell; names must be unique."""
        if cell.name in self._cells:
            raise ValueError(f"duplicate cell {cell.name} in library {self.name}")
        self._cells[cell.name] = cell
        self._by_footprint = None
        self._digest = None
        return cell

    def content_digest(self) -> str:
        """sha256 over every field of every cell but ``function``, cells
        in name order.  The logic function is code, not data: it is
        taken to follow the cell's name and pins."""
        if self._digest is None:
            names = [f.name for f in fields(Cell) if f.name != "function"]
            payload = repr([
                tuple(getattr(cell, name) for name in names)
                for _, cell in sorted(self._cells.items())
            ])
            self._digest = hashlib.sha256(payload.encode()).hexdigest()
        return self._digest

    def __getitem__(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"library {self.name} has no cell {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self):
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def cells_by_footprint(self, footprint: str) -> list[Cell]:
        """All cells sharing a layout footprint (ECO-swappable set)."""
        if self._by_footprint is None:
            index: dict[str, list[Cell]] = {}
            for cell in self._cells.values():
                index.setdefault(cell.footprint, []).append(cell)
            self._by_footprint = index
        return list(self._by_footprint.get(footprint, ()))

    def drive_variants(self, footprint: str, *, vt_class: str = "svt"
                       ) -> list[Cell]:
        """Drive-strength variants sharing a footprint, weakest first.

        e.g. ``"INV"`` returns ``INV_X1, INV_X2, ...``; ``"PAD_OUT"``
        returns the output pads from 2 mA up.  Restricted to one Vt
        class so sizing loops never cross into a different leakage
        corner by accident.
        """
        variants = [
            c for c in self.cells_by_footprint(footprint)
            if c.vt_class == vt_class
        ]
        return sorted(variants, key=lambda c: c.drive_strength)

    def vt_variant(self, cell: Cell, vt_class: str) -> Cell | None:
        """The same cell in another Vt class, or None if absent."""
        for candidate in self.cells_by_footprint(cell.footprint):
            if (candidate.vt_class == vt_class
                    and candidate.drive_strength == cell.drive_strength):
                return candidate
        return None


# ---------------------------------------------------------------------------
# Default library construction
# ---------------------------------------------------------------------------

#: Per-node scaling of the 0.25 um reference numbers.  Area scales with
#: the square of the feature-size ratio; delay/caps scale roughly
#: linearly -- adequate for the cost and timing models in this repo.
_NODE_SCALE = {
    0.25: {"area": 1.0, "delay": 1.0, "cap": 1.0, "leak": 1.0},
    0.18: {"area": (0.18 / 0.25) ** 2, "delay": 0.72, "cap": 0.72, "leak": 1.8},
    0.13: {"area": (0.13 / 0.25) ** 2, "delay": 0.52, "cap": 0.52, "leak": 4.0},
}


# Module-level logic functions (not closures) so Cell objects -- and
# therefore whole Modules -- stay picklable for process-pool fan-out.
def logic_aoi21(a: Logic, b: Logic, c: Logic) -> Logic:
    return logic_nor(logic_and(a, b), c)


def logic_oai21(a: Logic, b: Logic, c: Logic) -> Logic:
    return logic_nand(logic_or(a, b), c)


def _tie_high() -> Logic:
    return Logic.ONE


def _tie_low() -> Logic:
    return Logic.ZERO


def _spare_undriven() -> Logic:
    return Logic.X


def _comb(
    lib: StdCellLibrary,
    scale: Mapping[str, float],
    family: str,
    n_inputs: int,
    function: LogicFunction,
    base_area: float,
    base_delay: float,
    drives: Sequence[int] = (1, 2, 4),
) -> None:
    """Register drive-strength variants of one combinational family."""
    input_names = ["A", "B", "C", "D", "E"][:n_inputs]
    for drive in drives:
        pins = tuple(
            [PinSpec(n, "input", 2.0 * scale["cap"]) for n in input_names]
            + [PinSpec("Y", "output")]
        )
        lib.add(
            Cell(
                name=f"{family}_X{drive}",
                pins=pins,
                function=function,
                area_um2=base_area * scale["area"] * (1.0 + 0.45 * (drive - 1)),
                intrinsic_delay_ps=base_delay * scale["delay"] * (1.0 + 0.08 * (drive - 1)),
                drive_resistance_kohm=1.6 / drive,
                leakage_nw=0.1 * drive * scale["leak"],
                drive_strength=drive,
                footprint=family,
            )
        )


def make_default_library(process_node_um: float = 0.25) -> StdCellLibrary:
    """Build the default library for one of the supported nodes.

    Supported nodes: 0.25, 0.18 and 0.13 um, mirroring the technology
    trajectory described in the paper (0.25 um product, 0.18 um cost
    shrink, 0.13 um current projects).
    """
    try:
        scale = _NODE_SCALE[process_node_um]
    except KeyError:
        supported = ", ".join(str(k) for k in _NODE_SCALE)
        raise ValueError(
            f"unsupported node {process_node_um}; supported: {supported}"
        ) from None

    lib = StdCellLibrary(f"repro{int(process_node_um * 1000)}", process_node_um)

    _comb(lib, scale, "INV", 1, logic_not, base_area=8.0, base_delay=28.0,
          drives=(1, 2, 4, 8))
    _comb(lib, scale, "BUF", 1, logic_buf, base_area=12.0, base_delay=45.0,
          drives=(1, 2, 4, 8, 16))
    _comb(lib, scale, "NAND2", 2, logic_nand, base_area=12.0, base_delay=38.0)
    _comb(lib, scale, "NAND3", 3, logic_nand, base_area=16.0, base_delay=52.0)
    _comb(lib, scale, "NAND4", 4, logic_nand, base_area=20.0, base_delay=66.0)
    _comb(lib, scale, "NOR2", 2, logic_nor, base_area=12.0, base_delay=44.0)
    _comb(lib, scale, "NOR3", 3, logic_nor, base_area=16.0, base_delay=60.0)
    _comb(lib, scale, "AND2", 2, logic_and, base_area=16.0, base_delay=60.0)
    _comb(lib, scale, "AND3", 3, logic_and, base_area=20.0, base_delay=72.0)
    _comb(lib, scale, "OR2", 2, logic_or, base_area=16.0, base_delay=64.0)
    _comb(lib, scale, "OR3", 3, logic_or, base_area=20.0, base_delay=76.0)
    _comb(lib, scale, "XOR2", 2, logic_xor, base_area=24.0, base_delay=85.0)
    _comb(lib, scale, "XNOR2", 2, logic_xnor, base_area=24.0, base_delay=88.0)

    _comb(lib, scale, "AOI21", 3, logic_aoi21, base_area=16.0, base_delay=55.0)
    _comb(lib, scale, "OAI21", 3, logic_oai21, base_area=16.0, base_delay=55.0)

    # MUX2: S selects between A (S=0) and B (S=1).
    for drive in (1, 2):
        lib.add(
            Cell(
                name=f"MUX2_X{drive}",
                pins=(
                    PinSpec("S", "input", 2.4 * scale["cap"]),
                    PinSpec("A", "input", 2.0 * scale["cap"]),
                    PinSpec("B", "input", 2.0 * scale["cap"]),
                    PinSpec("Y", "output"),
                ),
                function=logic_mux,
                area_um2=28.0 * scale["area"] * (1.0 + 0.45 * (drive - 1)),
                intrinsic_delay_ps=95.0 * scale["delay"],
                drive_resistance_kohm=1.6 / drive,
                leakage_nw=0.2 * drive * scale["leak"],
                drive_strength=drive,
                footprint="MUX2",
            )
        )

    # Tie cells.
    lib.add(Cell("TIEHI", (PinSpec("Y", "output"),), function=_tie_high,
                 area_um2=6.0 * scale["area"], intrinsic_delay_ps=0.0,
                 footprint="TIE"))
    lib.add(Cell("TIELO", (PinSpec("Y", "output"),), function=_tie_low,
                 area_um2=6.0 * scale["area"], intrinsic_delay_ps=0.0,
                 footprint="TIE"))

    # Flip-flops: plain, resettable, and scan variants.
    def _dff(name: str, *, reset: bool, scan: bool) -> Cell:
        pins = [PinSpec("D", "input", 1.8 * scale["cap"]),
                PinSpec("CK", "input", 1.2 * scale["cap"])]
        if reset:
            pins.append(PinSpec("RN", "input", 1.6 * scale["cap"]))
        if scan:
            pins.append(PinSpec("SI", "input", 1.8 * scale["cap"]))
            pins.append(PinSpec("SE", "input", 1.8 * scale["cap"]))
        pins.append(PinSpec("Q", "output"))
        area = 46.0 + (6.0 if reset else 0.0) + (14.0 if scan else 0.0)
        return Cell(
            name=name,
            pins=tuple(pins),
            area_um2=area * scale["area"],
            intrinsic_delay_ps=180.0 * scale["delay"],
            drive_resistance_kohm=1.4,
            leakage_nw=0.5 * scale["leak"],
            is_sequential=True,
            clock_pin="CK",
            data_pin="D",
            reset_pin="RN" if reset else None,
            scan_in_pin="SI" if scan else None,
            scan_enable_pin="SE" if scan else None,
            footprint="SDFF" if scan else "DFF",
        )

    lib.add(_dff("DFF", reset=False, scan=False))
    lib.add(_dff("DFFR", reset=True, scan=False))
    lib.add(_dff("SDFF", reset=False, scan=True))
    lib.add(_dff("SDFFR", reset=True, scan=True))

    # Spare cell: a bundle of uncommitted gates sprinkled over the die
    # for metal-only ECOs (Section 3 of the paper uses them to fix the
    # weak output buffer).
    lib.add(
        Cell(
            name="SPARE_BLOCK",
            pins=(PinSpec("Y", "output"),),
            function=_spare_undriven,
            area_um2=220.0 * scale["area"],
            is_spare=True,
            footprint="SPARE",
        )
    )

    # Multi-Vt variants of the workhorse combinational families: HVT
    # trades speed for ~5x lower leakage, LVT the reverse.  Swapping
    # within a footprint is the leakage-recovery flow of Section 4
    # ("low power solution (multi Vt/VDD cell library ...)").
    _VT_SCALING = {"hvt": (1.18, 0.22), "lvt": (0.88, 4.0)}
    for vt_name, (delay_scale, leak_scale) in _VT_SCALING.items():
        for base in list(lib):
            if base.footprint not in ("INV", "BUF", "NAND2", "NOR2",
                                      "AND2", "OR2"):
                continue
            if base.vt_class != "svt":
                continue
            lib.add(
                Cell(
                    name=f"{base.name}_{vt_name.upper()}",
                    pins=base.pins,
                    function=base.function,
                    area_um2=base.area_um2,
                    intrinsic_delay_ps=base.intrinsic_delay_ps * delay_scale,
                    drive_resistance_kohm=(
                        base.drive_resistance_kohm * delay_scale
                    ),
                    leakage_nw=base.leakage_nw * leak_scale,
                    drive_strength=base.drive_strength,
                    footprint=base.footprint,
                    vt_class=vt_name,
                )
            )

    # Integrated clock-gating cell: GCK follows CK while EN is high.
    # Used structurally by the low-power flow (gated clock trees).
    lib.add(
        Cell(
            name="ICG",
            pins=(
                PinSpec("CK", "input", 1.4 * scale["cap"]),
                PinSpec("EN", "input", 1.8 * scale["cap"]),
                PinSpec("GCK", "output"),
            ),
            function=logic_and,
            area_um2=38.0 * scale["area"],
            intrinsic_delay_ps=120.0 * scale["delay"],
            drive_resistance_kohm=0.8,
            leakage_nw=0.4 * scale["leak"],
            footprint="ICG",
            is_clock_gate=True,
        )
    )

    # I/O pad cells with explicit drive strengths in mA.  The paper's
    # yield killer was an output buffer with insufficient drive.
    for drive_ma in (2, 4, 8, 12, 16, 24):
        lib.add(
            Cell(
                name=f"PAD_OUT_{drive_ma}MA",
                pins=(PinSpec("A", "input", 4.0 * scale["cap"]),
                      PinSpec("PAD", "output")),
                function=logic_buf,
                area_um2=3600.0 * scale["area"],
                intrinsic_delay_ps=900.0 * scale["delay"] / (1 + drive_ma / 8.0),
                drive_resistance_kohm=8.0 / drive_ma,
                is_pad=True,
                drive_strength=drive_ma,
                footprint="PAD_OUT",
            )
        )
    lib.add(
        Cell(
            name="PAD_IN",
            pins=(PinSpec("PAD", "input", 6.0 * scale["cap"]),
                  PinSpec("Y", "output")),
            function=logic_buf,
            area_um2=2800.0 * scale["area"],
            intrinsic_delay_ps=450.0 * scale["delay"],
            is_pad=True,
            footprint="PAD_IN",
        )
    )

    return lib
