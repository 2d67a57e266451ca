"""Incremental re-timing of one cell swap (`TimingAnalyzer.swap_cell`).

A fresh full analysis is the oracle.  After every swap and every
revert, the analyzer's setup arrivals must equal a fresh
`compute_arrivals(worst=True)` bit for bit on every net, and the WNS
the swap returned must equal a fresh `analyze()`'s.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import (
    Cell,
    Module,
    PinSpec,
    StdCellLibrary,
    block_from_budget,
    counter,
    make_default_library,
    pipeline_block,
)
from repro.physical import AnnealingPlacer
from repro.sta import TimingAnalyzer, TimingConstraints


CONSTRAINTS = TimingConstraints(clock_period_ps=4000.0, input_delay_ps=35.0)


def heavy_pin_library() -> StdCellLibrary:
    """The 0.25 um library plus twins whose input pins are heavier.

    Every default Vt and drive twin has the same input capacitances as
    its svt X1 cell (at 0.25, 0.18 and 0.13 um alike), so no default
    swap changes the load on the nets a cell reads.  Added, each
    pin-compatible with a default cell:

    * ``NAND2_X1_HP``, a NAND2 drive-1 svt twin with heavier inputs;
    * ``DFF_HP`` and ``DFFR_HP``, slower flop twins with heavier
      input pins;
    * ``FA_X1`` / ``FA_X2``, a two-output full adder in two drives,
      the stronger one with heavier inputs.
    """
    lib = make_default_library(0.25)
    nand = lib["NAND2_X1"]
    lib.add(dataclasses.replace(
        nand, name="NAND2_X1_HP",
        pins=tuple(
            dataclasses.replace(pin, capacitance_ff=3.1)
            if pin.direction == "input" else pin
            for pin in nand.pins
        ),
    ))
    for name in ("DFF", "DFFR"):
        flop = lib[name]
        lib.add(dataclasses.replace(
            flop, name=f"{name}_HP", intrinsic_delay_ps=205.0,
            pins=tuple(
                dataclasses.replace(pin, capacitance_ff=2.6)
                if pin.direction == "input" else pin
                for pin in flop.pins
            ),
        ))
    for drive, cap in ((1, 2.0), (2, 2.9)):
        lib.add(Cell(
            name=f"FA_X{drive}",
            pins=(
                PinSpec("A", "input", cap),
                PinSpec("B", "input", cap),
                PinSpec("CI", "input", cap),
                PinSpec("S", "output"),
                PinSpec("CO", "output"),
            ),
            intrinsic_delay_ps=70.0 / drive ** 0.5,
            drive_resistance_kohm=2.0 / drive,
            drive_strength=drive,
            footprint="FA",
        ))
    return lib


LIB = heavy_pin_library()


def swap_variants(lib: StdCellLibrary, cell: Cell) -> list[Cell]:
    """Pin-compatible Vt and drive twins of ``cell`` (same footprint)."""
    pins = {p.name: p.direction for p in cell.pins}
    return [
        other for other in lib.cells_by_footprint(cell.footprint)
        if other.name != cell.name
        and {p.name: p.direction for p in other.pins} == pins
    ]


def add_adder_chain(module: Module, sources: list[str], length: int) -> None:
    """Append a ripple chain of ``FA_X1`` reading ``sources``.

    Each sum drives an output port; each carry feeds the next adder,
    and the last carry drives a buffer into an output port.
    """
    carry = sources[0]
    for k in range(length):
        a = sources[(2 * k + 1) % len(sources)]
        b = sources[(2 * k + 2) % len(sources)]
        module.add_port(f"fa_s{k}", "output")
        module.add_instance(f"fa{k}", "FA_X1", {
            "A": a, "B": b, "CI": carry, "S": f"fa_s{k}",
            "CO": f"fa_co{k}",
        })
        carry = f"fa_co{k}"
    module.add_port("fa_cout", "output")
    module.add_instance("fa_obuf", "BUF_X1", {"A": carry, "Y": "fa_cout"})


def data_sources(module: Module) -> list[str]:
    """Flop Q nets and data input ports, in a stable order."""
    qs = sorted(
        flop.net_of(pin)
        for flop in module.sequential_instances
        for pin in flop.cell.output_pins
    )
    ports = sorted(
        name for name, port in module.ports.items()
        if port.direction == "input" and name not in ("clk", "rst_n")
    )
    return qs + ports


def placed_wire_caps(module: Module, seed: int) -> dict[str, float]:
    placer = AnnealingPlacer(module, seed=seed)
    placement, _ = placer.place(iterations=300)
    return placer.wire_caps_ff(placement)


def assert_matches_full(analyzer: TimingAnalyzer, wns: float) -> None:
    fresh = TimingAnalyzer(analyzer.module, analyzer.constraints,
                           net_wire_cap_ff=analyzer.net_wire_cap_ff)
    expected = fresh.compute_arrivals(worst=True)
    assert analyzer.setup_arrivals.keys() == expected.keys()
    stale = {
        net: (arrival, expected[net])
        for net, arrival in analyzer.setup_arrivals.items()
        if arrival.hex() != expected[net].hex()
    }
    assert not stale
    assert wns.hex() == fresh.analyze(with_critical_path=False).wns_ps.hex()


def mixed_block() -> Module:
    """A two-stage pipeline with heavier-pinned NAND2s, a full-adder
    chain reading flop Qs and input ports, and a DFF behind a carry."""
    module = pipeline_block("mixed", LIB, stages=2, width=6,
                            cloud_gates=24, seed=11)
    for name in sorted(module.instances)[::3]:
        if module.instances[name].cell.name == "NAND2_X1":
            module.swap_cell(name, "NAND2_X1_HP")
    ports = [f"in{bit}" for bit in range(6)]
    add_adder_chain(module, data_sources(module)[:5] + ports[:2], 4)
    module.add_port("tail_q", "output")
    module.add_instance("tail_ff", "DFF", {
        "D": "fa_co1", "CK": "clk", "Q": "tail_q",
    })
    return module


def changes_input_caps(inst) -> bool:
    """Whether some twin of ``inst`` loads its input nets differently."""
    pins = inst.cell.input_pins
    caps = [inst.cell.pin(pin).capacitance_ff for pin in pins]
    return any(
        [twin.pin(pin).capacitance_ff for pin in pins] != caps
        for twin in swap_variants(LIB, inst.cell)
    )


def input_drivers(module: Module, inst) -> set[str]:
    """What drives ``inst``'s input nets: "port", "flop" or "gate"."""
    kinds = set()
    for pin in inst.cell.input_pins:
        net = module.nets[inst.net_of(pin)]
        if net.driver_port is not None:
            kinds.add("port")
        elif net.driver is not None:
            driver = module.instances[net.driver.instance]
            kinds.add("flop" if driver.cell.is_sequential else "gate")
    return kinds


class TestEverySwap:
    """Every swappable instance of one mixed block, to every twin and
    back, under estimated and placed wire caps."""

    @pytest.fixture(scope="class")
    def module(self):
        module = mixed_block()
        # It has swaps that change input caps on cells fed by each kind
        # of driver, on a two-output cell and on a flop.
        reseeded = [i for i in module.instances.values()
                    if changes_input_caps(i)]
        fed_by = set().union(*(input_drivers(module, i) for i in reseeded))
        assert fed_by == {"port", "flop", "gate"}
        assert any(len(i.cell.output_pins) == 2 for i in reseeded)
        assert any(i.cell.is_sequential for i in reseeded)
        return module

    @pytest.mark.parametrize("placed", [False, True],
                             ids=["estimated", "placed"])
    def test_each_swap_and_revert(self, module, placed):
        module = module.copy()
        wire = placed_wire_caps(module, seed=5) if placed else None
        analyzer = TimingAnalyzer(module, CONSTRAINTS, net_wire_cap_ff=wire)
        swaps = 0
        for name in sorted(module.instances):
            inst = module.instances[name]
            original = inst.cell.name
            for twin in swap_variants(LIB, inst.cell):
                assert_matches_full(analyzer,
                                    analyzer.swap_cell(name, twin.name))
                assert_matches_full(analyzer,
                                    analyzer.swap_cell(name, original))
                swaps += 1
        assert swaps > 100


def test_sequential_class_change_rejected():
    lib = make_default_library(0.25)
    lib.add(dataclasses.replace(lib["DFF"], name="DFF_COMB",
                                is_sequential=False))
    module = counter("c", lib, width=3, with_reset=False)
    analyzer = TimingAnalyzer(module, CONSTRAINTS)
    before = dict(analyzer.setup_arrivals)
    with pytest.raises(ValueError, match="sequential"):
        analyzer.swap_cell("ff0", "DFF_COMB")
    assert module.instances["ff0"].cell.name == "DFF"
    assert analyzer.setup_arrivals == before


def generated_block(kind: str, seed: int, size: int) -> Module:
    if kind == "budget":
        return block_from_budget("b", LIB, gate_budget=50 + 15 * size,
                                 seed=seed)
    if kind == "pipeline":
        return pipeline_block("p", LIB, stages=1 + seed % 3,
                              width=3 + size % 6, cloud_gates=8 + 3 * size,
                              seed=seed)
    return counter("c", LIB, width=3 + size % 7, with_reset=seed % 2 == 0)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["budget", "pipeline", "counter"]),
    seed=st.integers(0, 1000),
    size=st.integers(0, 12),
    adders=st.integers(0, 3),
    placed=st.booleans(),
    data=st.data(),
)
def test_random_swaps_and_reverts(kind, seed, size, adders, placed, data):
    module = generated_block(kind, seed, size)
    if adders:
        add_adder_chain(module, data_sources(module), adders)
    wire = placed_wire_caps(module, seed) if placed else None
    analyzer = TimingAnalyzer(module, CONSTRAINTS, net_wire_cap_ff=wire)
    swappable = sorted(
        name for name, inst in module.instances.items()
        if swap_variants(LIB, inst.cell)
    )
    history: list[tuple[str, str]] = []
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        if history and data.draw(st.booleans(), label="revert"):
            name, cell = history.pop()
        else:
            name = data.draw(st.sampled_from(swappable), label="instance")
            inst = module.instances[name]
            cell = data.draw(
                st.sampled_from(swap_variants(LIB, inst.cell)), label="twin"
            ).name
            history.append((name, inst.cell.name))
        assert_matches_full(analyzer, analyzer.swap_cell(name, cell))
