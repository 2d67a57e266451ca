"""Seeded-bug regressions for the static-analysis rules.

Each builder plants exactly one class of design bug and the test
asserts the intended rule fires on the intended subject (by stable
fingerprint), plus the clean-design and waiver contracts, and that
scan insertion gates on exactly the violations the SCAN rules report.
"""

import pytest

from repro.dft import ScanDrcError, insert_scan
from repro.lint import (
    Finding,
    LintError,
    Severity,
    Waiver,
    WaiverSet,
    check_scan_drc,
    dsc_lint_targets,
    infer_clock_domains,
    run_lint,
)
from repro.netlist import (
    Cell,
    Module,
    NetlistError,
    PinRef,
    PinSpec,
    counter,
    make_default_library,
    trace_control_source,
)
from repro.soc import RegisterFile, SystemBus
from repro.store import ArtifactStore, using_store


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


def fingerprint(rule_id: str, module: str, subject: str) -> str:
    return Finding(rule_id, Severity.ERROR, "x", module, subject, "").fingerprint


def findings_for(module, rules):
    return run_lint([module], rules=rules, workers=1).findings


# ---------------------------------------------------------------------------
# Structural rules
# ---------------------------------------------------------------------------

def build_multi_driven(lib):
    """An instance output shorted onto an input-port net (STR-005)."""
    m = Module("md", lib)
    m.add_port("a", "input")
    m.add_port("y", "output")
    m.add_instance("u0", "INV_X1", {"A": "a", "Y": "y"})
    # Hand-edit the contention in (the constructor rejects it).
    m.nets["a"].driver = PinRef("u0", "Y")
    return m


def build_comb_loop(lib):
    """Cross-coupled inverters (STR-004)."""
    m = Module("loop", lib)
    m.add_port("y", "output")
    m.add_instance("u0", "INV_X1", {"A": "n2", "Y": "n1"})
    m.add_instance("u1", "INV_X1", {"A": "n1", "Y": "n2"})
    m.add_instance("u2", "BUF_X1", {"A": "n1", "Y": "y"})
    return m


class TestStructuralRules:
    def test_multi_driven_fingerprint(self, lib):
        found = findings_for(build_multi_driven(lib), ["STR-005"])
        assert [f.fingerprint for f in found] == \
            [fingerprint("STR-005", "md", "a")]
        assert found[0].severity is Severity.ERROR

    def test_comb_loop_names_cycle(self, lib):
        found = findings_for(build_comb_loop(lib), ["STR-004"])
        assert [f.fingerprint for f in found] == \
            [fingerprint("STR-004", "loop", "u0->u1")]
        assert "u0 -> u1 -> u0" in found[0].message

    def test_loop_search_runs_only_on_a_loop(self, lib, monkeypatch):
        """STR-004 trusts the cached topological order of a loop-free
        module and searches for the cycle only when that order fails."""
        calls = []
        search = Module.find_combinational_cycle

        def counting(module):
            calls.append(module.name)
            return search(module)

        monkeypatch.setattr(Module, "find_combinational_cycle", counting)
        with using_store(ArtifactStore()):
            loop_free = findings_for(counter("cnt", lib, width=4),
                                     ["STR-004"])
            assert loop_free == [] and calls == []
            found = findings_for(build_comb_loop(lib), ["STR-004"])
        assert [f.fingerprint for f in found] == \
            [fingerprint("STR-004", "loop", "u0->u1")]
        assert "u0 -> u1 -> u0" in found[0].message
        assert set(calls) == {"loop"}

    def test_undriven_and_floating(self, lib):
        m = Module("t", lib)
        m.add_port("unused", "input")
        m.add_instance("u0", "INV_X1", {"A": "floating", "Y": "dead"})
        found = findings_for(m, ["structural"])
        subjects = {}
        for f in found:
            subjects.setdefault(f.rule_id, []).append(f.subject)
        assert subjects["STR-001"] == ["floating"]
        # The unloaded input-port net counts as driven-but-unloaded too,
        # alongside the port-level rule.
        assert subjects["STR-002"] == ["dead", "unused"]
        assert subjects["STR-006"] == ["unused"]

    def test_structural_family_reports_loop(self, lib):
        found = findings_for(build_comb_loop(lib), ["structural"])
        assert any("combinational loop" in f.message for f in found)

    def test_validate_keeps_legacy_messages(self, lib):
        m = Module("t", lib)
        m.add_instance("u0", "INV_X1", {"A": "floating", "Y": "dead"})
        messages = [f.message for f in findings_for(m, ["structural"])]
        assert any("no driver" in message for message in messages)
        assert any("unloaded" in message for message in messages)

    def test_topo_order_error_names_instances(self, lib):
        m = build_comb_loop(lib)
        with pytest.raises(NetlistError, match="u0 -> u1 -> u0"):
            m.topological_combinational_order()


# ---------------------------------------------------------------------------
# Clock domains / CDC
# ---------------------------------------------------------------------------

def build_cdc_violation(lib):
    """Two clock domains crossed through an AND gate (CDC-001)."""
    m = Module("cdc", lib)
    for port in ("clk_a", "clk_b", "rst_n", "din", "en"):
        m.add_port(port, "input")
    m.add_port("dout", "output")
    m.add_instance("src", "DFFR",
                   {"D": "din", "CK": "clk_a", "RN": "rst_n", "Q": "q_src"})
    m.add_instance("u_mix", "AND2_X1", {"A": "q_src", "B": "en", "Y": "mix"})
    m.add_instance("dst", "DFFR",
                   {"D": "mix", "CK": "clk_b", "RN": "rst_n", "Q": "dout"})
    return m


def build_synchronizer(lib):
    """The same crossing, properly double-flopped."""
    m = Module("sync", lib)
    for port in ("clk_a", "clk_b", "rst_n", "din"):
        m.add_port(port, "input")
    m.add_port("dout", "output")
    m.add_instance("src", "DFFR",
                   {"D": "din", "CK": "clk_a", "RN": "rst_n", "Q": "q_src"})
    m.add_instance("sync1", "DFFR",
                   {"D": "q_src", "CK": "clk_b", "RN": "rst_n", "Q": "q_s1"})
    m.add_instance("sync2", "DFFR",
                   {"D": "q_s1", "CK": "clk_b", "RN": "rst_n", "Q": "dout"})
    return m


class TestCdc:
    def test_crossing_fingerprint(self, lib):
        found = findings_for(build_cdc_violation(lib), ["CDC-001"])
        assert [f.fingerprint for f in found] == \
            [fingerprint("CDC-001", "cdc", "src->dst")]

    def test_synchronizer_is_clean(self, lib):
        assert findings_for(build_synchronizer(lib), ["CDC-001"]) == []

    def test_domain_inference_traces_buffers(self, lib):
        m = build_cdc_violation(lib)
        m.add_instance("u_buf", "BUF_X2", {"A": "clk_a", "Y": "clk_a_b"})
        m.add_instance("late", "DFFR",
                       {"D": "din", "CK": "clk_a_b", "RN": "rst_n",
                        "Q": "q_late"})
        m.add_port("dout2", "output")
        m.add_instance("u_sink", "BUF_X1", {"A": "q_late", "Y": "dout2"})
        domains = infer_clock_domains(m)
        assert domains.domain_of["late"] == domains.domain_of["src"]
        assert domains.domain_of["src"] != domains.domain_of["dst"]

    def test_derived_clock_warns(self, lib):
        m = Module("dclk", lib)
        for port in ("clk", "sel", "rst_n", "din"):
            m.add_port(port, "input")
        m.add_port("q", "output")
        m.add_instance("u_div", "AND2_X1",
                       {"A": "clk", "B": "sel", "Y": "gclk"})
        m.add_instance("f0", "DFFR",
                       {"D": "din", "CK": "gclk", "RN": "rst_n", "Q": "q"})
        found = findings_for(m, ["CDC-002"])
        assert [f.fingerprint for f in found] == \
            [fingerprint("CDC-002", "dclk", "f0")]
        trace = trace_control_source(m, "gclk")
        assert trace.kind == "derived" and trace.root == "u_div"


# ---------------------------------------------------------------------------
# X-source analysis
# ---------------------------------------------------------------------------

class TestXSource:
    def test_uninit_counter_flops(self, lib):
        m = counter("cnt", lib, width=3, with_reset=False)
        found = findings_for(m, ["X-001"])
        assert len(found) == 3
        assert all(f.severity is Severity.WARNING for f in found)
        # The power-on X surfaces at the counter outputs too.
        assert findings_for(m, ["X-003"])

    def test_reset_counter_is_clean(self, lib):
        m = counter("cnt", lib, width=3, with_reset=True)
        assert findings_for(m, ["xprop"]) == []

    def test_spare_x_to_output_fingerprint(self, lib):
        m = Module("xs", lib)
        m.add_port("y", "output")
        m.add_instance("spare0", "SPARE_BLOCK", {"Y": "n_sp"})
        m.add_instance("u0", "BUF_X1", {"A": "n_sp", "Y": "y"})
        found = findings_for(m, ["X-002"])
        assert [f.fingerprint for f in found] == \
            [fingerprint("X-002", "xs", "spare0")]
        assert "y" in found[0].message

    def test_unloaded_spare_is_clean(self, lib):
        m = Module("xs2", lib)
        m.add_port("a", "input")
        m.add_port("y", "output")
        m.add_instance("spare0", "SPARE_BLOCK", {"Y": "n_sp"})
        m.add_instance("u0", "BUF_X1", {"A": "a", "Y": "y"})
        assert findings_for(m, ["X-002"]) == []


# ---------------------------------------------------------------------------
# Scan DRC
# ---------------------------------------------------------------------------

def build_logic_reset(lib):
    m = Module("sr", lib)
    for port in ("clk", "rst_a", "rst_b", "din"):
        m.add_port(port, "input")
    m.add_port("q", "output")
    m.add_instance("u_rst", "AND2_X1",
                   {"A": "rst_a", "B": "rst_b", "Y": "rst_gated"})
    m.add_instance("f0", "DFFR",
                   {"D": "din", "CK": "clk", "RN": "rst_gated", "Q": "q"})
    return m


def build_gated_clock(lib):
    m = Module("gc", lib)
    for port in ("clk", "en", "din"):
        m.add_port(port, "input")
    m.add_port("q", "output")
    m.add_instance("u_icg", "ICG", {"CK": "clk", "EN": "en", "GCK": "gclk"})
    m.add_instance("f0", "DFF", {"D": "din", "CK": "gclk", "Q": "q"})
    return m


def build_tied_reset(lib, tie):
    """A DFFR whose active-low reset is tied through ``tie``."""
    m = Module("tied", lib)
    for port in ("clk", "din"):
        m.add_port(port, "input")
    m.add_port("q", "output")
    m.add_instance("u_tie", tie, {"Y": "rn"})
    m.add_instance("f0", "DFFR",
                   {"D": "din", "CK": "clk", "RN": "rn", "Q": "q"})
    return m


def _exotic_lib(*, latch: bool):
    lib = make_default_library(0.25)
    if latch:
        lib.add(Cell(
            "DLAT",
            (PinSpec("D", "input"), PinSpec("E", "input"),
             PinSpec("Q", "output")),
            is_sequential=True, is_latch=True, data_pin="D",
        ))
    else:
        lib.add(Cell(
            "DFFX",
            (PinSpec("D", "input"), PinSpec("CK", "input"),
             PinSpec("Q", "output")),
            is_sequential=True, clock_pin="CK", data_pin="D",
        ))
    return lib


def build_no_scan_equivalent():
    """A flop cell the scan map has no replacement for (SCAN-003)."""
    m = Module("ns", _exotic_lib(latch=False))
    for port in ("clk", "din"):
        m.add_port(port, "input")
    m.add_port("q", "output")
    m.add_instance("f0", "DFFX", {"D": "din", "CK": "clk", "Q": "q"})
    return m


def build_latch():
    """A level-sensitive latch in the scan path (SCAN-004)."""
    m = Module("lt", _exotic_lib(latch=True))
    for port in ("en", "din"):
        m.add_port(port, "input")
    m.add_port("q", "output")
    m.add_instance("l0", "DLAT", {"D": "din", "E": "en", "Q": "q"})
    return m


class TestScanDrc:
    def test_logic_reset_fingerprint(self, lib):
        found = findings_for(build_logic_reset(lib), ["SCAN-001"])
        assert [f.fingerprint for f in found] == \
            [fingerprint("SCAN-001", "sr", "f0")]

    def test_tied_inactive_reset_is_clean(self, lib):
        m = build_tied_reset(lib, "TIEHI")
        assert findings_for(m, ["SCAN-001"]) == []

    def test_tied_active_reset_flagged(self, lib):
        found = findings_for(build_tied_reset(lib, "TIELO"), ["SCAN-001"])
        assert [f.subject for f in found] == ["f0"]

    def test_gated_clock_fingerprint(self, lib):
        found = findings_for(build_gated_clock(lib), ["SCAN-002"])
        assert [f.fingerprint for f in found] == \
            [fingerprint("SCAN-002", "gc", "f0")]

    def test_no_scan_equivalent(self):
        found = findings_for(build_no_scan_equivalent(), ["SCAN-003"])
        assert [f.fingerprint for f in found] == \
            [fingerprint("SCAN-003", "ns", "f0")]

    def test_latch_rejected(self):
        found = check_scan_drc(build_latch())
        assert [f.rule_id for f in found] == ["SCAN-004"]
        assert found[0].fingerprint == fingerprint("SCAN-004", "lt", "l0")

    def test_insert_scan_gates_on_drc(self, lib):
        m = build_gated_clock(lib)
        with pytest.raises(ScanDrcError, match="scan DRC failed"):
            insert_scan(m)
        # The gate is a ValueError subclass.
        with pytest.raises(ValueError):
            insert_scan(m)

    @pytest.mark.parametrize("build", [
        build_gated_clock,
        lambda lib: build_tied_reset(lib, "TIELO"),
        lambda lib: build_no_scan_equivalent(),
        lambda lib: build_latch(),
    ], ids=["gated-clock", "tied-reset", "no-scan-equivalent", "latch"])
    def test_insert_scan_violations_match_lint(self, lib, build):
        m = build(lib)
        with pytest.raises(ScanDrcError) as error:
            insert_scan(m)
        assert error.value.violations == [
            (f.rule_id, f.subject, f.message) for f in check_scan_drc(m)
        ]
        assert error.value.violations

    def test_insert_scan_clean_module_unaffected(self, lib):
        m = counter("cnt", lib, width=4, with_reset=True)
        scanned, report = insert_scan(m)
        assert report.replaced_flops == 4


# ---------------------------------------------------------------------------
# SoC map audit
# ---------------------------------------------------------------------------

def build_broken_bus():
    bus = SystemBus("broken")
    bus.attach_slave("ip_a", 0x4000_0000, 0x1000, RegisterFile({"r": 0}))
    bus.attach_slave("ip_b", 0x4000_0800, 0x1000, RegisterFile({"r": 0}),
                     allow_overlap=True)
    return bus


class TestSocMap:
    def test_overlap_fingerprint(self):
        report = run_lint(soc=build_broken_bus(), workers=1)
        overlaps = [f for f in report.findings if f.rule_id == "MAP-001"]
        assert [f.fingerprint for f in overlaps] == \
            [fingerprint("MAP-001", "broken", "ip_a|ip_b")]

    def test_misaligned_window_warns(self):
        bus = SystemBus("mis")
        bus.attach_slave("ip_a", 0x1000, 0x300, RegisterFile({"r": 0}))
        report = run_lint(soc=bus, workers=1)
        assert any(f.rule_id == "MAP-002" and f.subject == "ip_a"
                   for f in report.findings)

    def test_register_span_overflow(self):
        bus = SystemBus("span")
        regs = RegisterFile({f"r{i}": i for i in range(8)})  # 32 bytes
        bus.attach_slave("ip_a", 0x1000, 0x10, regs)
        report = run_lint(soc=bus, workers=1)
        assert any(f.rule_id == "MAP-005" and f.subject == "ip_a"
                   for f in report.findings)

    def test_dangling_ip(self):
        targets = dsc_lint_targets(scale=0.005)
        binding = dict(targets.binding)
        del binding["tv_encoder"]
        report = run_lint(soc=targets.soc, catalog=targets.catalog,
                          binding=binding, workers=1)
        dangling = [f for f in report.findings if f.rule_id == "MAP-003"]
        assert [f.subject for f in dangling] == ["tv_encoder"]

    def test_width_mismatch(self):
        bus = SystemBus("w16", data_width_bits=16)
        bus.attach_slave("ip_a", 0x1000, 0x100, RegisterFile({"r": 0}))
        report = run_lint(soc=bus, workers=1)
        assert any(f.rule_id == "MAP-004" for f in report.findings)


# ---------------------------------------------------------------------------
# Waivers / report plumbing
# ---------------------------------------------------------------------------

class TestWaivers:
    def test_fingerprint_waiver_roundtrip(self, lib, tmp_path):
        m = build_comb_loop(lib)
        fp = fingerprint("STR-004", "loop", "u0->u1")
        waivers = WaiverSet([Waiver(reason="known cross-coupled keeper",
                                    fingerprint=fp)])
        path = tmp_path / "waivers.json"
        waivers.save(str(path))
        loaded = WaiverSet.load(str(path))
        assert loaded.to_json() == waivers.to_json()

        report = run_lint([m], rules=["STR-004"], waivers=loaded, workers=1)
        assert report.findings == []
        assert [f.fingerprint for f, _ in report.waived] == [fp]
        assert not report.failed("error")

    def test_glob_waiver(self, lib):
        m = counter("cnt", lib, width=2, with_reset=False)
        waivers = WaiverSet([Waiver(reason="reset-free by design",
                                    rule="X-*", module="cnt")])
        report = run_lint([m], rules=["xprop"], waivers=waivers, workers=1)
        assert report.findings == []
        assert len(report.waived) > 0

    def test_waiver_requires_reason(self):
        with pytest.raises(LintError, match="reason"):
            Waiver(reason="  ")

    def test_fail_on_thresholds(self, lib):
        m = counter("cnt", lib, width=2, with_reset=False)  # warnings only
        report = run_lint([m], rules=["X-001"], workers=1)
        assert not report.failed("error")
        assert report.failed("warning")
        assert not report.failed("none")


class TestSharedWalks:
    def test_one_lint_pass_walks_stuck_nets_once_per_module(
        self, monkeypatch
    ):
        """CONST-001, DEAD-002 and the derived properties share one
        stuck-net walk per module analysis."""
        import repro.analysis.analyses as analyses
        from repro.analysis import clear_analysis_memo
        from repro.formal import derive_properties

        calls = []
        walk = analyses._find_stuck_nets

        def counting(analysis):
            calls.append(analysis.module.name)
            return walk(analysis)

        monkeypatch.setattr(analyses, "_find_stuck_nets", counting)
        modules = dsc_lint_targets(scale=0.005).modules
        clear_analysis_memo()
        with using_store(ArtifactStore()):
            run_lint(modules, workers=1)
            for module in modules:
                derive_properties(module)
        assert sorted(calls) == sorted(m.name for m in modules)


# ---------------------------------------------------------------------------
# The acceptance gate: the generated DSC database lints clean
# ---------------------------------------------------------------------------

class TestDscClean:
    def test_dsc_database_has_no_errors(self):
        targets = dsc_lint_targets(scale=0.005)
        report = run_lint(targets.modules, soc=targets.soc,
                          catalog=targets.catalog, binding=targets.binding,
                          design="dsc", workers=1)
        assert report.errors == []
        assert report.count(Severity.WARNING) == 0
        assert report.modules_checked == len(targets.modules) + 1


# ---------------------------------------------------------------------------
# Control-source tracing edge cases
# ---------------------------------------------------------------------------

class TestTraceControlSourceEdges:
    def test_icg_of_icg_chain(self, lib):
        """Nested clock gates: the trace walks both ICGs back to the
        root port and records the path inner-first."""
        m = Module("icg2", lib)
        for port in ("clk", "en1", "en2", "rst_n", "d"):
            m.add_port(port, "input")
        m.add_port("q", "output")
        m.add_instance("icg1", "ICG",
                       {"CK": "clk", "EN": "en1", "GCK": "g1"})
        m.add_instance("icg2", "ICG",
                       {"CK": "g1", "EN": "en2", "GCK": "g2"})
        m.add_instance("f0", "DFFR",
                       {"CK": "g2", "RN": "rst_n", "D": "d", "Q": "q"})
        trace = trace_control_source(m, "g2")
        assert (trace.root, trace.kind) == ("clk", "port")
        assert trace.through_gate
        assert not trace.inverted
        assert trace.path == ("icg2", "icg1")
        # The domain label carries the gated annotation exactly once.
        assert trace.domain == "port:clk+gated"

    def test_inverter_loop_on_clock_path(self, lib):
        """Cross-coupled inverters feeding a clock pin terminate as a
        'derived' source instead of looping forever."""
        m = Module("ringclk", lib)
        for port in ("rst_n", "d"):
            m.add_port(port, "input")
        m.add_port("q", "output")
        m.add_instance("u0", "INV_X1", {"A": "n2", "Y": "n1"})
        m.add_instance("u1", "INV_X1", {"A": "n1", "Y": "n2"})
        m.add_instance("f0", "DFFR",
                       {"CK": "n1", "RN": "rst_n", "D": "d", "Q": "q"})
        trace = trace_control_source(m, "n1")
        assert trace.kind == "derived"
        assert trace.root == "n1"
        assert trace.path == ("u0", "u1")

    def test_clock_root_is_primary_inout(self, lib):
        """A bidirectional pad net used as a clock traces to a port
        root -- inout ports drive their net like inputs do."""
        m = Module("ioclk", lib)
        m.add_port("pad_clk", "inout")
        for port in ("rst_n", "d"):
            m.add_port(port, "input")
        m.add_port("q", "output")
        m.add_instance("u0", "BUF_X4", {"A": "pad_clk", "Y": "iclk"})
        m.add_instance("f0", "DFFR",
                       {"CK": "iclk", "RN": "rst_n", "D": "d", "Q": "q"})
        trace = trace_control_source(m, "iclk")
        assert (trace.root, trace.kind) == ("pad_clk", "port")
        assert trace.path == ("u0",)
        domains = infer_clock_domains(m)
        assert domains.domain_of["f0"] == "port:pad_clk"
