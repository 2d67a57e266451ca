"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


def subcommands():
    """Every subcommand the parser registers."""
    (action,) = (a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("flow", "camera", "ramp", "atpg", "mbist",
                        "pins", "migrate", "regress", "sta", "cover",
                        "lint", "bmc"):
            assert command in text

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", subcommands())
    def test_single_engine_commands_reject_engine_flag(self, command,
                                                       capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--engine", "scalar"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in \
            capsys.readouterr().err


class TestCommands:
    def test_migrate(self, capsys):
        assert main(["migrate"]) == 0
        out = capsys.readouterr().out
        assert "die cost saving" in out
        assert "20" in out

    def test_ramp(self, capsys):
        assert main(["ramp", "--months", "8", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "foundry model: 93.4%" in out

    def test_camera_writes_jpeg(self, capsys, tmp_path):
        out_path = tmp_path / "shot.jpg"
        assert main(["camera", "--grade", "2mp", "--out",
                     str(out_path)]) == 0
        assert out_path.exists()
        assert out_path.read_bytes()[:2] == b"\xff\xd8"
        assert "PSNR" in capsys.readouterr().out

    def test_atpg_small(self, capsys):
        assert main(["atpg", "--gates", "300", "--patterns", "128"]) == 0
        out = capsys.readouterr().out
        assert "fault coverage" in out

    def test_mbist(self, capsys):
        assert main(["mbist", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "pattern generators : 30" in out

    def test_pins(self, capsys):
        assert main(["pins", "--iterations", "800"]) == 0
        out = capsys.readouterr().out
        assert "initial substrate layers" in out

    def test_flow_tiny(self, capsys):
        assert main(["flow", "--scale", "0.01", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "SOC DESIGN SERVICE FLOW REPORT" in out

    def test_flow_store_warm_rerun_prints_the_same_report(self, capsys,
                                                          tmp_path):
        from repro.perf import REGISTRY

        store = str(tmp_path / "flow_store.json")
        args = ["flow", "--scale", "0.01", "--seed", "2", "--store", store]
        assert main(args) == 0
        cold = capsys.readouterr().out
        REGISTRY.reset()
        try:
            assert main(args) == 0
            stages = REGISTRY.as_dict()
        finally:
            REGISTRY.reset()
        assert capsys.readouterr().out == cold
        for unit in ("verify", "implement", "advanced_signoff",
                     "package_design", "tapeout", "produce"):
            assert stages[f"store.flow.{unit}"]["hits"] == 1
            assert "misses" not in stages[f"store.flow.{unit}"]

    def test_regress_consistent_suite(self, capsys):
        assert main(["regress", "--benches", "2", "--cycles", "8"]) == 0
        out = capsys.readouterr().out
        assert "Regression under vendor_a_4state" in out
        assert "Regression under vendor_b_2state" in out
        assert "consistent         : True" in out
        assert "benches passed" in out

    def test_regress_no_reset_detects_mismatch(self, capsys):
        assert main(["regress", "--benches", "1", "--cycles", "8",
                     "--no-reset"]) == 1
        out = capsys.readouterr().out
        assert "consistent         : False" in out

    def test_regress_parallel_matches_serial(self, capsys):
        assert main(["regress", "--benches", "2", "--cycles", "8",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "consistent         : True" in out

    def test_sta_clean_block(self, capsys):
        assert main(["sta", "--stages", "2", "--width", "6",
                     "--cloud-gates", "30", "--period", "20000"]) == 0
        out = capsys.readouterr().out
        assert "NLDM STA QoR" in out
        assert "[ss]" in out and "[tt]" in out and "[ff]" in out

    def test_sta_violating_block_exits_nonzero(self, capsys):
        assert main(["sta", "--stages", "2", "--width", "6",
                     "--cloud-gates", "30", "--period", "400"]) == 1
        assert "WNS" in capsys.readouterr().out

    def test_sta_json_identical_across_engines(self, capsys):
        from repro.netlist import make_default_library, pipeline_block
        from repro.oracles.sta import analyze_scalar
        from repro.sta import NldmTimingAnalyzer, TimingConstraints

        main(["sta", "--stages", "2", "--width", "6",
              "--cloud-gates", "30", "--json", "--corner", "ss,ff"])
        vec = capsys.readouterr().out
        module = pipeline_block("blk", make_default_library(0.25),
                                stages=2, width=6, cloud_gates=30, seed=3)
        scalar = analyze_scalar(
            NldmTimingAnalyzer(
                module, TimingConstraints(clock_period_ps=7500.0)),
            corners=["ss", "ff"],
        ).canonical_json()
        assert vec == scalar + "\n"
        assert '"corners"' in vec

    def test_cover_reaches_default_targets(self, capsys):
        assert main(["cover", "--tests-per-round", "8",
                     "--rounds", "6"]) == 0
        out = capsys.readouterr().out
        assert "TARGET REACHED" in out
        assert "graded tests" in out
        assert "Regression under vendor_a_4state" in out

    def test_cover_impossible_target_fails(self, capsys):
        assert main(["cover", "--toggle-target", "1.0",
                     "--tests-per-round", "2", "--cycles", "8",
                     "--rounds", "2"]) == 1
        out = capsys.readouterr().out
        assert "STOPPED" in out

    def test_lint_dsc_is_clean(self, capsys):
        assert main(["lint", "--scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "clean: no findings" in out

    def test_lint_json_output(self, capsys):
        assert main(["lint", "--scale", "0.005", "--json"]) == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["error"] == 0
        assert data["design"] == "dsc"

    def test_bmc_proves_small_blocks(self, capsys):
        assert main(["bmc", "--scale", "0.002", "--depth", "6",
                     "--max-gates", "120"]) == 0
        out = capsys.readouterr().out
        assert "proven=" in out
        assert "bus decode windows (8): EXCLUSIVE" in out

    def test_bmc_depth_below_window_exits_2(self, capsys):
        # sync_settle asserts within two frames, so depth 1 cannot check it.
        assert main(["bmc", "--scale", "0.002", "--depth", "1",
                     "--max-gates", "120"]) == 2
        captured = capsys.readouterr()
        assert "needs depth >= 2" in captured.err
        assert "Traceback" not in captured.err

    def test_bmc_json_identical_across_workers(self, capsys):
        args = ["bmc", "--scale", "0.002", "--depth", "5",
                "--max-gates", "120", "--json"]
        assert main(args + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "3"]) == 0
        fanned = capsys.readouterr().out
        assert serial == fanned
        import json

        data = json.loads(serial)
        assert data["bus"]["exclusive"] is True
        assert data["engine"] == "cdcl"
        assert data["reports"]

    def test_lint_rule_selection(self, capsys):
        assert main(["lint", "--scale", "0.005",
                     "--rules", "structural,socmap"]) == 0
        out = capsys.readouterr().out
        assert "rules run" in out


class TestLintExitCodes:
    """The --fail-on threshold must look only at *unwaived* findings.

    Regression for the exit-code matrix with a design whose errors are
    all waived but whose warnings are not: ``--fail-on error`` passes,
    ``--fail-on warning``/``info`` fail, ``--fail-on none`` passes.
    """

    @pytest.fixture()
    def seeded_targets(self, monkeypatch, tmp_path):
        from repro.lint import dsc_lint_targets
        from repro.netlist import Module, PinRef, make_default_library

        lib = make_default_library(0.25)
        m = Module("seeded", lib)
        m.add_port("a", "input")
        m.add_port("unused", "input")  # STR-002/STR-006 warnings
        m.add_port("y", "output")
        m.add_instance("u0", "INV_X1", {"A": "a", "Y": "y"})
        m.nets["a"].driver = PinRef("u0", "Y")  # STR-005 error

        real = dsc_lint_targets(scale=0.005)

        def fake_targets(**kwargs):
            return type(real)(modules=[m], soc=real.soc,
                              catalog=real.catalog, binding=real.binding)

        monkeypatch.setattr("repro.lint.dsc_lint_targets", fake_targets)
        waivers = tmp_path / "waivers.json"
        waivers.write_text(
            '{"waivers": [{"reason": "known short", "rule": "STR-005"}]}'
        )
        return str(waivers)

    def test_waived_error_passes_fail_on_error(self, seeded_targets,
                                               capsys):
        assert main(["lint", "--rules", "structural",
                     "--waivers", seeded_targets,
                     "--fail-on", "error"]) == 0
        out = capsys.readouterr().out
        assert "1 waived" in out

    def test_unwaived_warning_fails_fail_on_warning(self, seeded_targets):
        assert main(["lint", "--rules", "structural",
                     "--waivers", seeded_targets,
                     "--fail-on", "warning"]) == 1

    def test_unwaived_warning_fails_fail_on_info(self, seeded_targets):
        assert main(["lint", "--rules", "structural",
                     "--waivers", seeded_targets,
                     "--fail-on", "info"]) == 1

    def test_fail_on_none_always_passes(self, seeded_targets):
        assert main(["lint", "--rules", "structural",
                     "--waivers", seeded_targets,
                     "--fail-on", "none"]) == 0

    def test_unwaived_error_still_fails(self, seeded_targets):
        # Without the waiver file the STR-005 error trips the default.
        assert main(["lint", "--rules", "structural"]) == 1


class TestLintSarif:
    def test_sarif_file_written(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "lint.sarif"
        assert main(["lint", "--scale", "0.005",
                     "--sarif", str(out_path)]) == 0
        log = json.loads(out_path.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_analysis_families_selectable(self, capsys):
        assert main(["lint", "--scale", "0.005",
                     "--rules", "const,dead,divergence,race"]) == 0
        out = capsys.readouterr().out
        assert "clean: no findings" in out
