"""The dataflow engine: domains, fixpoints, rule families, and the
cross-validation contract.

The corpus below plants exactly one class of semantic bug per builder
(the same seeded-bug methodology as ``test_lint.py``), asserts the
intended CONST/DEAD/DIV/RACE rule fires on the intended subject, and
-- for every DIV prediction -- confirms it against *actual*
dual-dialect simulation: 100% precision (every flagged net really
diverges) and 100% recall (no divergence escapes the analysis).
"""

import pytest

from repro.analysis import (
    BINARY,
    ONE,
    XBIT,
    ZERO,
    ConstantDomain,
    DualConstantDomain,
    analyze_module,
    component_a,
    component_b,
    constant_cones,
    divergent_nets,
    divergent_output_ports,
    format_mask,
    format_pair_mask,
    mask_levels,
    multi_driver_races,
    mux_select_x_sites,
    never_toggling_flops,
    pair_bit,
    reconvergent_x_sites,
    stuck_nets,
    unobservable_instances,
)
from repro.lint import Finding, Severity, clock_path_races, run_lint
from repro.netlist import Module, PinRef, make_default_library
from repro.netlist.logic import Logic
from repro.oracles.fixpoint import run_fixpoint
from repro.oracles.verification import observed_divergent_nets
from repro.sim import VENDOR_A_SIM, VENDOR_B_SIM
from repro.verification import cross_validate_divergence


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


def fingerprint(rule_id: str, module: str, subject: str) -> str:
    return Finding(
        rule_id, Severity.ERROR, "x", module, subject, ""
    ).fingerprint


def findings_for(module, rules):
    return run_lint([module], rules=rules, workers=1).findings


# ---------------------------------------------------------------------------
# Seeded-bug corpus
# ---------------------------------------------------------------------------

def build_uninit_flop(lib):
    """A flop with no reset: power-on X under dialect A, 0 under B."""
    m = Module("uninit", lib)
    m.add_port("clk", "input")
    m.add_port("d", "input")
    m.add_port("y", "output")
    m.add_instance("f0", "DFF", {"CK": "clk", "D": "d", "Q": "q"})
    m.add_instance("g0", "BUF_X1", {"A": "q", "Y": "y"})
    return m


def build_reset_clean(lib):
    """Same shape with a working reset: provably divergence-free."""
    m = Module("resetok", lib)
    m.add_port("clk", "input")
    m.add_port("rst_n", "input")
    m.add_port("d", "input")
    m.add_port("y", "output")
    m.add_instance("f0", "DFFR",
                   {"CK": "clk", "RN": "rst_n", "D": "d", "Q": "q"})
    m.add_instance("g0", "BUF_X1", {"A": "q", "Y": "y"})
    return m


def build_mux_select_x(lib):
    """An uninitialised flop drives a MUX2 select with unequal legs."""
    m = Module("muxx", lib)
    m.add_port("clk", "input")
    m.add_port("a", "input")
    m.add_port("b", "input")
    m.add_port("y", "output")
    m.add_instance("f0", "DFF", {"CK": "clk", "D": "a", "Q": "sel"})
    m.add_instance("mx", "MUX2_X1",
                   {"S": "sel", "A": "a", "B": "b", "Y": "y"})
    return m


def build_reconvergent_x(lib):
    """XOR(q, ~q): one X source reconverges on both pins of a gate."""
    m = Module("reconv", lib)
    m.add_port("clk", "input")
    m.add_port("d", "input")
    m.add_port("y", "output")
    m.add_instance("f0", "DFF", {"CK": "clk", "D": "d", "Q": "q"})
    m.add_instance("g0", "INV_X1", {"A": "q", "Y": "qn"})
    m.add_instance("x0", "XOR2_X1", {"A": "q", "B": "qn", "Y": "y"})
    return m


def build_stuck(lib):
    """AND with a tied-low leg: net n1 frozen at 0, flop never toggles."""
    m = Module("stuck", lib)
    m.add_port("clk", "input")
    m.add_port("rst_n", "input")
    m.add_port("a", "input")
    m.add_port("y", "output")
    m.add_instance("t0", "TIELO", {"Y": "lo"})
    m.add_instance("g0", "AND2_X1", {"A": "a", "B": "lo", "Y": "n1"})
    m.add_instance("f0", "DFFR",
                   {"CK": "clk", "RN": "rst_n", "D": "n1", "Q": "q"})
    m.add_instance("g1", "BUF_X1", {"A": "q", "Y": "y"})
    return m


def build_unobservable(lib):
    """A two-gate cone whose sink net reaches no output port."""
    m = Module("dead", lib)
    m.add_port("a", "input")
    m.add_port("y", "output")
    m.add_instance("g0", "BUF_X1", {"A": "a", "Y": "y"})
    m.add_instance("g1", "INV_X1", {"A": "a", "Y": "n1"})
    m.add_instance("g2", "BUF_X1", {"A": "n1", "Y": "n2"})
    return m


def build_gated_race(lib):
    """f0 on the raw clock launches into f1 behind a clock gate."""
    m = Module("gated", lib)
    m.add_port("clk", "input")
    m.add_port("rst_n", "input")
    m.add_port("en", "input")
    m.add_port("d", "input")
    m.add_port("y", "output")
    m.add_instance("icg", "ICG", {"CK": "clk", "EN": "en", "GCK": "gclk"})
    m.add_instance("f0", "DFFR",
                   {"CK": "clk", "RN": "rst_n", "D": "d", "Q": "q0"})
    m.add_instance("f1", "DFFR",
                   {"CK": "gclk", "RN": "rst_n", "D": "q0", "Q": "y"})
    return m


def build_inverted_race(lib):
    """f0 on the rising edge launches into f1 on the falling edge."""
    m = Module("invrace", lib)
    m.add_port("clk", "input")
    m.add_port("rst_n", "input")
    m.add_port("d", "input")
    m.add_port("y", "output")
    m.add_instance("u0", "INV_X1", {"A": "clk", "Y": "clkn"})
    m.add_instance("f0", "DFFR",
                   {"CK": "clk", "RN": "rst_n", "D": "d", "Q": "q0"})
    m.add_instance("f1", "DFFR",
                   {"CK": "clkn", "RN": "rst_n", "D": "q0", "Q": "y"})
    return m


def build_multi_driver(lib):
    """An instance output shorted onto an input-port net."""
    m = Module("short", lib)
    m.add_port("a", "input")
    m.add_port("b", "input")
    m.add_port("y", "output")
    m.add_instance("g1", "INV_X1", {"A": "b", "Y": "y"})
    # Hand-edit the contention in (the constructor rejects it).
    m.nets["a"].driver = PinRef("g1", "Y")
    return m


# ---------------------------------------------------------------------------
# Domain and engine units
# ---------------------------------------------------------------------------

class TestDomains:
    def test_mask_formatting(self):
        assert format_mask(ZERO | ONE) == "{0,1}"
        assert format_mask(ZERO | XBIT) == "{0,x}"
        assert mask_levels(BINARY) == (Logic.ZERO, Logic.ONE)

    def test_pair_components(self):
        mask = pair_bit(Logic.X, Logic.ZERO)
        assert component_a(mask) == XBIT
        assert component_b(mask) == ZERO
        assert format_pair_mask(mask) == "{(x,0)}"

    def test_constant_transfer_enumerates(self, lib):
        m = Module("t", lib)
        m.add_port("a", "input")
        m.add_port("b", "input")
        m.add_port("y", "output")
        m.add_instance("g0", "AND2_X1", {"A": "a", "B": "b", "Y": "y"})
        domain = ConstantDomain(VENDOR_A_SIM)
        inst = m.instances["g0"]
        assert domain.transfer(inst, (ONE, ONE)) == ONE
        assert domain.transfer(inst, (ZERO, BINARY)) == ZERO
        assert domain.transfer(inst, (BINARY, BINARY)) == BINARY
        # X on one leg with 1 on the other: output tracks the X.
        assert domain.transfer(inst, (XBIT, ONE)) == XBIT

    def test_dual_transfer_stays_diagonal_on_binary(self, lib):
        m = Module("t", lib)
        m.add_port("a", "input")
        m.add_port("b", "input")
        m.add_port("y", "output")
        m.add_instance("g0", "NAND2_X1", {"A": "a", "B": "b", "Y": "y"})
        domain = DualConstantDomain(VENDOR_A_SIM, VENDOR_B_SIM)
        binary = domain.input_value("a")
        out = domain.transfer(m.instances["g0"], (binary, binary))
        assert out == binary  # NAND of correlated binary pairs

    def test_fixpoint_survives_combinational_loop(self, lib):
        m = Module("loop", lib)
        m.add_port("y", "output")
        m.add_instance("u0", "INV_X1", {"A": "n2", "Y": "n1"})
        m.add_instance("u1", "INV_X1", {"A": "n1", "Y": "n2"})
        m.add_instance("u2", "BUF_X1", {"A": "n1", "Y": "y"})
        result = run_fixpoint(m, ConstantDomain(VENDOR_A_SIM))
        assert result.visits > 0
        # The loop feeds on nothing: its nets stay unconstrained-free
        # of 1/0 evidence but must reach *a* fixpoint.
        assert "n1" in result.net_values


# ---------------------------------------------------------------------------
# Analysis queries on the corpus
# ---------------------------------------------------------------------------

class TestQueries:
    def test_uninit_flop_diverges(self, lib):
        analysis = analyze_module(build_uninit_flop(lib))
        assert divergent_nets(analysis) == ["q", "y"]
        assert divergent_output_ports(analysis) == [("y", "{(x,0)}")]
        assert analysis.reset_assured == frozenset()

    def test_reset_flop_proven_safe(self, lib):
        analysis = analyze_module(build_reset_clean(lib))
        assert divergent_nets(analysis) == []
        assert analysis.reset_assured == frozenset({"f0"})

    def test_mux_select_x_site(self, lib):
        analysis = analyze_module(build_mux_select_x(lib))
        assert mux_select_x_sites(analysis) == [("mx", "y")]

    def test_reconvergent_x_site(self, lib):
        analysis = analyze_module(build_reconvergent_x(lib))
        assert reconvergent_x_sites(analysis) == [
            ("x0", "y", ("flop:f0",))
        ]

    def test_stuck_and_never_toggling(self, lib):
        analysis = analyze_module(build_stuck(lib))
        assert stuck_nets(analysis) == [("n1", "0")]
        assert never_toggling_flops(analysis) == [("f0", "{0,x}")]
        assert constant_cones(analysis) == [("g0", "n1", "0")]

    def test_unobservable_instances(self, lib):
        analysis = analyze_module(build_unobservable(lib))
        assert unobservable_instances(analysis) == ["g1", "g2"]

    def test_gated_clock_race(self, lib):
        assert clock_path_races(build_gated_race(lib)) == [
            ("f0", "f1", "gated")
        ]

    def test_inverted_clock_race(self, lib):
        assert clock_path_races(build_inverted_race(lib)) == [
            ("f0", "f1", "inverted")
        ]

    def test_multi_driver_race(self, lib):
        analysis = analyze_module(build_multi_driver(lib))
        races = multi_driver_races(analysis)
        assert [net for net, _ in races] == ["a"]
        assert "port 'a'" in races[0][1]


# ---------------------------------------------------------------------------
# Lint rule families
# ---------------------------------------------------------------------------

class TestRuleFamilies:
    def test_div_001_fingerprint(self, lib):
        found = findings_for(build_uninit_flop(lib), ["DIV-001"])
        assert [f.fingerprint for f in found] == \
            [fingerprint("DIV-001", "uninit", "y")]
        assert found[0].severity is Severity.ERROR

    def test_div_002_fingerprint(self, lib):
        found = findings_for(build_mux_select_x(lib), ["DIV-002"])
        assert [f.fingerprint for f in found] == \
            [fingerprint("DIV-002", "muxx", "mx")]

    def test_div_003_names_source(self, lib):
        found = findings_for(build_reconvergent_x(lib), ["DIV-003"])
        assert [f.subject for f in found] == ["x0"]
        assert "flop:f0" in found[0].message

    def test_const_family(self, lib):
        found = findings_for(build_stuck(lib), ["const"])
        by_rule = {f.rule_id: f.subject for f in found}
        assert by_rule == {"CONST-001": "n1", "CONST-002": "f0"}

    def test_dead_family(self, lib):
        found = findings_for(build_unobservable(lib), ["dead"])
        assert [(f.rule_id, f.subject) for f in found] == [
            ("DEAD-001", "g1"), ("DEAD-001", "g2")
        ]

    def test_race_family(self, lib):
        assert [
            (f.rule_id, f.subject)
            for f in findings_for(build_gated_race(lib), ["race"])
        ] == [("RACE-002", "f0->f1")]
        assert [
            (f.rule_id, f.subject)
            for f in findings_for(build_inverted_race(lib), ["race"])
        ] == [("RACE-003", "f0->f1")]
        assert [
            (f.rule_id, f.subject)
            for f in findings_for(build_multi_driver(lib), ["race"])
        ] == [("RACE-001", "a")]

    def test_clean_design_all_families(self, lib):
        found = findings_for(
            build_reset_clean(lib),
            ["const", "dead", "divergence", "race"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# Cross-validation: the soundness contract
# ---------------------------------------------------------------------------

class TestCrossValidation:
    def test_uninit_prediction_confirmed(self, lib):
        validation = cross_validate_divergence(build_uninit_flop(lib))
        assert validation.predicted == ("q", "y")
        assert validation.observed == ("q", "y")
        assert validation.precision == 1.0
        assert validation.recall == 1.0
        assert validation.sound

    def test_clean_design_nothing_predicted_or_observed(self, lib):
        validation = cross_validate_divergence(build_reset_clean(lib))
        assert validation.predicted == ()
        assert validation.observed == ()
        assert validation.precision == 1.0
        assert validation.recall == 1.0

    def test_corpus_wide_precision_and_recall(self, lib):
        """Every DIV prediction on the seeded-bug corpus is confirmed
        by real dual-dialect simulation, and nothing escapes."""
        for builder in (build_uninit_flop, build_reset_clean,
                        build_mux_select_x, build_reconvergent_x,
                        build_stuck):
            validation = cross_validate_divergence(builder(lib))
            assert validation.precision == 1.0, validation.format_report()
            assert validation.recall == 1.0, validation.format_report()
            assert validation.sound, validation.format_report()

    def test_report_mentions_escapes(self, lib):
        from repro.verification import DivergenceValidation

        validation = DivergenceValidation(
            "m", predicted=("a",), observed=("a", "b")
        )
        assert validation.escapes == ("b",)
        assert not validation.sound
        assert validation.recall == 0.5
        assert "ESCAPES" in validation.format_report()

    def test_observed_respects_seed(self, lib):
        module = build_uninit_flop(lib)
        first = observed_divergent_nets(module, seed=0)
        again = observed_divergent_nets(module, seed=0)
        assert first == again


# ---------------------------------------------------------------------------
# Determinism and scale
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_analyze_modules_parallel_byte_identical(self, lib):
        modules = [
            build_uninit_flop(lib), build_mux_select_x(lib),
            build_stuck(lib), build_gated_race(lib),
            build_reset_clean(lib),
        ]
        rules = ["const", "dead", "divergence", "race"]
        serial = run_lint(modules, design="corpus", rules=rules, workers=1)
        fanned = run_lint(modules, design="corpus", rules=rules, workers=3)
        assert serial.to_json() == fanned.to_json()
        assert serial.findings

    def test_lint_families_parallel_byte_identical(self, lib):
        modules = [
            build_uninit_flop(lib), build_reconvergent_x(lib),
            build_inverted_race(lib), build_unobservable(lib),
        ]
        rules = ["const", "dead", "divergence", "race"]
        serial = run_lint(modules, design="c", rules=rules, workers=1)
        fanned = run_lint(modules, design="c", rules=rules, workers=2)
        assert serial.to_json() == fanned.to_json()

    def test_dsc_database_is_clean(self):
        from repro.lint import dsc_lint_targets

        targets = dsc_lint_targets(scale=0.02, seed=0)
        report = run_lint(
            targets.modules, design="dsc",
            rules=["const", "dead", "divergence", "race"], workers=1,
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# Flow integration
# ---------------------------------------------------------------------------

class TestFlowStage:
    def test_analyze_stage_populates_counters(self):
        from repro.core.flow import DesignServiceFlow

        flow = DesignServiceFlow(scale=0.01, seed=1)
        flow.intake()
        flow.harden_cpu()
        flow.assemble()
        payloads = flow.analyze()
        assert payloads.keys() == flow.blocks.keys()
        assert all(p["findings"] == 0 for p in payloads.values())
        assert flow.report.analysis_divergent_outputs == 0
        assert flow.report.analysis_race_findings == 0
        assert "static analysis" in flow.report.format_report()

    def test_analyze_requires_assemble(self):
        from repro.core.flow import DesignServiceFlow

        with pytest.raises(RuntimeError, match="assemble"):
            DesignServiceFlow(scale=0.01).analyze()
