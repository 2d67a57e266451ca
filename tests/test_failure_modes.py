"""Failure-injection tests: every tool must fail loudly and precisely
when handed broken input, not limp onward -- the lesson behind half of
the paper's integration war stories."""

import pytest

from repro.netlist import (
    Logic,
    Module,
    NetlistError,
    counter,
    make_default_library,
)
from repro.netlist.netlist import Instance
from repro.sim import LogicSimulator, SimulatorConfig
from repro.sta import TimingConstraints
from repro.physical import FloorplanError, HardMacro, build_floorplan
from repro.eco import EcoError, EcoPatch, EcoEdit, apply_patch
from repro.core import DesignServiceFlow
from repro.ip import IpCatalog, IpBlock, IpSource, HdlLanguage, harden
from repro.lint import run_lint


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


class TestSimulatorFailureModes:
    def test_self_resetting_loop_settles_monotonically(self, lib):
        """A flop whose reset is driven by its own inverted output is
        a classic integration hazard.  Reset application is monotone
        (it only forces ZERO), so the simulator must converge -- to
        the reset state -- rather than oscillate or hang."""
        m = Module("selfrst", lib)
        m.add_port("clk", "input")
        m.add_instance("inv", "INV_X1", {"A": "q", "Y": "rn"})
        m.add_instance("ff", "DFFR",
                       {"D": "tie1", "CK": "clk", "RN": "rn", "Q": "q"})
        m.add_instance("tie", "TIEHI", {"Y": "tie1"})
        sim = LogicSimulator(m, SimulatorConfig(max_settle_rounds=4))
        sim.set_input("clk", 0)
        sim.flop_state["ff"] = Logic.ONE  # the hazardous state
        sim.evaluate()
        assert sim.flop_state["ff"] is Logic.ZERO
        assert sim.read("rn") is Logic.ONE

    def test_reading_missing_net_is_keyerror(self, lib):
        m = counter("cnt", lib, width=2)
        sim = LogicSimulator(m)
        with pytest.raises(KeyError, match="ghost"):
            sim.read("ghost")


class TestPhysicalFailureModes:
    def test_floorplan_grows_die_to_fit_giant_macros(self):
        """The floorplanner sizes the die from its content, so even
        absurd macros converge -- at an absurd die size it reports."""
        giant = [HardMacro.from_area(f"m{i}", 1e9) for i in range(4)]
        plan = build_floorplan(stdcell_area_um2=1e6, macros=giant)
        assert plan.die_area_mm2 > 4_000  # comically un-manufacturable

    def test_floorplan_rejects_bad_utilization(self):
        with pytest.raises(FloorplanError, match="utilization"):
            build_floorplan(
                stdcell_area_um2=1e6,
                macros=[HardMacro.from_area("m", 1e5)],
                target_utilization=0.99,
            )

    def test_constraints_reject_nonsense(self):
        with pytest.raises(ValueError):
            TimingConstraints(clock_period_ps=-5)


class TestEcoFailureModes:
    def test_patch_reports_which_edit_failed(self, lib):
        m = counter("cnt", lib, width=2)
        patch = EcoPatch("multi", [
            EcoEdit("swap_cell", "qbuf0", cell="BUF_X4"),
            EcoEdit("swap_cell", "missing", cell="BUF_X4"),
        ])
        with pytest.raises(EcoError) as excinfo:
            apply_patch(m, patch)
        assert "missing" in str(excinfo.value)

    def test_partial_patch_never_leaks(self, lib):
        """A failing patch must leave the input module untouched."""
        m = counter("cnt", lib, width=2)
        patch = EcoPatch("multi", [
            EcoEdit("swap_cell", "qbuf0", cell="BUF_X4"),
            EcoEdit("swap_cell", "missing", cell="BUF_X4"),
        ])
        with pytest.raises(EcoError):
            apply_patch(m, patch)
        assert m.instances["qbuf0"].cell.name == "BUF_X1"


class TestFlowFailureModes:
    def test_flow_with_gateless_catalog(self):
        catalog = IpCatalog()
        catalog.add(IpBlock(
            name="only_analog", function="a PLL",
            source=IpSource.FOUNDRY, language=HdlLanguage.ANALOG,
            gate_budget=0, is_analog=True,
        ))
        flow = DesignServiceFlow(catalog=catalog, scale=0.01, seed=1)
        flow.intake()
        with pytest.raises(KeyError):
            flow.harden_cpu()  # no risc_dsp in this catalogue

    def test_harden_analog_block_rejected(self, lib):
        block = IpBlock(
            name="pll", function="pll", source=IpSource.FOUNDRY,
            language=HdlLanguage.ANALOG, gate_budget=0, is_analog=True,
        )
        with pytest.raises(ValueError, match="analogue"):
            harden(block, lib)


class TestNetlistEdgeCases:
    def test_module_with_only_ports(self, lib):
        m = Module("empty", lib)
        m.add_port("a", "input")
        assert m.gate_count == 0
        assert m.topological_combinational_order() == []
        # Lint flags the dangling input -- exactly what a hand-off
        # review should see.
        findings = run_lint([m], rules=["structural"], workers=1).findings
        assert any("unloaded" in finding.message for finding in findings)

    def test_instance_net_of_unconnected(self, lib):
        inst = Instance("u", lib["INV_X1"], {})
        with pytest.raises(NetlistError, match="unconnected"):
            inst.net_of("A")

    def test_double_scan_insertion_refused(self, lib):
        """Scanning an already-scanned module is a flow error, not a
        silent double-wrap."""
        from repro.dft import insert_scan

        m = counter("cnt", lib, width=3)
        scanned, _ = insert_scan(m)
        with pytest.raises(ValueError, match="already contains scan"):
            insert_scan(scanned)
