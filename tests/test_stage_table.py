"""One per-block stage table for the lifecycle flow and the service.

The goldens under ``tests/goldens/`` pin what the flow and the service
report; each must match byte for byte:

* ``FlowReport`` JSON (``dataclasses.asdict``, sorted keys) of a full
  lifecycle run, cold and then warm from the same store (the
  ``(0.015, 2)`` design is checked in ``test_dsc_core.py``, on its
  finished-flow fixture);
* the flow's per-block lint and analysis sums over ten seeded-bug
  blocks -- generated designs have no findings, so only these
  exercise the sums;
* the canonical lint report of those ten blocks, cold and then warm
  from one store, so every finding's rule, subject and message is
  pinned, not just the sums;
* the canonical service reports and store dump of the CI mix
  (``repro serve --tenants 2 --requests 2 --scale 0.004``);
* the canonical JSON of CI's BMC run (``repro bmc --scale 0.002
  --depth 6 --max-gates 150``): nine properties' verdicts and CDCL
  search statistics, one propagation each because the X-aware
  unroller folds every reset-settle proof while it encodes, so an
  encoder or solver change that brings the search back shows here;
* the ATPG summary of CI's ``repro atpg --gates 200 --patterns 32
  --workers 2``: SAT verdicts and the deterministic pattern count,
  which moves with the ATPG encoding or the solver's search path.  The
  big-int fault-sim oracle, run serially on that command's block and
  fault universe, reproduces the summary's random-phase lines.

Then the contracts the shared table brings: a service request reuses
the work the flow already cached (one cache key), units leave the
ambient store alone whatever the worker count, and the declared stage
order is the run order.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis import clear_analysis_memo
from repro.cli import main as cli_main
from repro.core import FLOW_STAGES, DesignServiceFlow, flow_stage_order
from repro.dft import (
    CombinationalView,
    collapse_faults,
    enumerate_faults,
    insert_scan,
)
from repro.lint import run_lint
from repro.netlist import block_from_budget, make_default_library
from repro.oracles.faultsim import bigint_fault_sim
from repro.service import (
    STAGE_DEFS,
    BlockSpec,
    DesignService,
    FlowRequest,
    synthetic_tenant_mix,
)
from repro.store import ArtifactStore, using_store
from tests.test_analysis import (
    build_gated_race,
    build_inverted_race,
    build_mux_select_x,
    build_reconvergent_x,
    build_stuck,
    build_uninit_flop,
    build_unobservable,
)
from tests.test_lint import (
    build_cdc_violation,
    build_comb_loop,
    build_gated_clock,
)

GOLDENS = Path(__file__).parent / "goldens"

#: Ten blocks with planted bugs: 9 lint errors, 16 warnings, 4 DIV-001
#: outputs, 2 races, 2 constant and 3 dead-logic findings between them.
SEEDED_BUGS = (
    build_cdc_violation, build_comb_loop, build_gated_clock,
    build_uninit_flop, build_mux_select_x, build_reconvergent_x,
    build_stuck, build_unobservable, build_gated_race, build_inverted_race,
)

#: The CI service-determinism mix, as the ``serve`` command runs it.
CI_SERVE = ["serve", "--tenants", "2", "--requests", "2",
            "--scale", "0.004", "--workers", "1", "--json"]

#: The CI BMC-determinism run, as the ``bmc`` command runs it.
CI_BMC = ["bmc", "--scale", "0.002", "--depth", "6", "--max-gates", "150",
          "--workers", "1", "--json"]

#: The CI ATPG-determinism run, as the ``atpg`` command runs it.
CI_ATPG = ["atpg", "--gates", "200", "--patterns", "32", "--workers", "2"]


def golden(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="utf-8").rstrip("\n")


def report_json(flow: DesignServiceFlow) -> str:
    return json.dumps(dataclasses.asdict(flow.report), sort_keys=True)


def assert_cold_and_warm_match(cold: DesignServiceFlow, name: str) -> None:
    """``cold`` has run; rerun its design warm from its store."""
    warm = DesignServiceFlow(scale=cold.scale, seed=cold.seed,
                             store=cold.store)
    warm.run()
    assert report_json(cold) == golden(name)
    assert report_json(warm) == golden(name)


def seeded_bug_flow(store: ArtifactStore | None = None) -> DesignServiceFlow:
    flow = DesignServiceFlow(scale=0.01, seed=0, store=store)
    for name in ("intake", "harden_cpu", "assemble"):
        flow.run_stage(name)
    for build in SEEDED_BUGS:
        module = build(flow.library)
        flow.blocks[module.name] = module
    flow.lint_gate()
    flow.analyze()
    return flow


def canonical_dump(store: ArtifactStore) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.json"
        store.save(str(path), canonical=True)
        return path.read_bytes()


class TestGoldens:
    def test_flow_report_cold_and_warm(self):
        flow = DesignServiceFlow(scale=0.02, seed=0)
        flow.run()
        assert_cold_and_warm_match(flow, "flow_report_0.02_0.json")

    def test_seeded_bug_sums_cold_and_warm(self):
        cold = seeded_bug_flow()
        warm = seeded_bug_flow(store=cold.store)
        report = cold.report
        assert (report.lint_errors, report.lint_warnings,
                report.analysis_divergent_outputs,
                report.analysis_race_findings,
                report.analysis_const_findings,
                report.analysis_dead_findings) == (9, 16, 4, 2, 2, 3)
        assert report_json(cold) == golden("flow_seeded_bugs_0.01_0.json")
        assert report_json(warm) == golden("flow_seeded_bugs_0.01_0.json")

    def test_seeded_bug_lint_report_cold_and_warm(self):
        library = DesignServiceFlow(scale=0.01, seed=0).library
        modules = [build(library) for build in SEEDED_BUGS]
        store = ArtifactStore()
        with using_store(store):
            cold = run_lint(modules, workers=1).to_json()
            clear_analysis_memo()
            warm = run_lint(modules, workers=1).to_json()
        assert store.counters()["lint.module"].hits == len(modules)
        assert cold == golden("lint_seeded_bugs_0.01_0.json")
        assert warm == golden("lint_seeded_bugs_0.01_0.json")

    def test_service_ci_mix(self, capsys):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.json"
            assert cli_main([*CI_SERVE, "--store", str(path)]) == 0
            dump = path.read_text(encoding="utf-8")
        assert capsys.readouterr().out.rstrip("\n") == \
            golden("service_ci_reports.json")
        assert dump.rstrip("\n") == golden("service_ci_store.json")

    def test_bmc_ci_run(self, capsys):
        assert cli_main(CI_BMC) == 0
        assert capsys.readouterr().out == \
            (GOLDENS / "bmc_cli_0.002.json").read_text(encoding="utf-8")

    def test_atpg_ci_run(self, capsys):
        assert cli_main(CI_ATPG) == 0
        assert capsys.readouterr().out == \
            (GOLDENS / "atpg_cli_200_32.txt").read_text(encoding="utf-8")

    def test_atpg_ci_random_phase_matches_oracle(self):
        block = block_from_budget("block", make_default_library(0.25),
                                  gate_budget=200, seed=3)
        scanned, _ = insert_scan(block, n_chains=2)
        universe = collapse_faults(scanned, enumerate_faults(scanned))
        result = bigint_fault_sim(
            CombinationalView(scanned), universe,
            rng=np.random.default_rng(3), max_patterns=32, batch_size=64,
        )
        lines = golden("atpg_cli_200_32.txt").splitlines()
        assert f"  fault universe      : {result.total_faults}" in lines
        assert (f"  random detected     : {len(result.detected)}"
                f" ({result.patterns_applied} patterns)") in lines


class TestSharedTable:
    def test_service_reuses_the_flows_cached_blocks(self):
        flow = DesignServiceFlow(scale=0.01, seed=0)
        for name in flow_stage_order():
            flow.run_stage(name)
            if name == "verify_props":
                break
        index, ip = next((index, ip) for index, ip in enumerate(flow.catalog)
                         if ip.name == "lcd_if")
        block = BlockSpec("lcd_if", max(60, int(ip.gate_budget * 0.01)),
                          seed=index)
        request = FlowRequest(
            tenant="acme", design="lcd",
            blocks=(block,),
            stages=("assemble", "lint_gate", "analyze", "verify_props"),
            bmc_depth=6, seed=0,
        )
        service = DesignService(workers=1, store=flow.store)
        report = service.run([request])[0]
        assert report.ok
        assert report.body["blocks"]["lcd_if"]["assemble"]["fingerprint"] \
            == flow.blocks["lcd_if"].fingerprint()
        assert report.body["blocks"]["lcd_if"]["verify_props"]["checked"]
        assert service.stats.units_store_hits == 3
        assert service.stats.units_executed == 1

    def test_units_leave_the_ambient_store_alone(self):
        mix = synthetic_tenant_mix(tenants=2, requests_per_tenant=2,
                                   scale=0.004, seed=0)
        dumps = []
        for workers in (1, 2):
            with using_store(ArtifactStore()) as ambient:
                service = DesignService(workers=workers)
                try:
                    service.run(mix)
                finally:
                    service.close()
            dumps.append(canonical_dump(ambient))
        assert dumps[0] == dumps[1]

    def test_declared_order_is_run_order(self):
        for table in (FLOW_STAGES, tuple(STAGE_DEFS.values())):
            declared: set[str] = set()
            for stage in table:
                assert set(stage.deps) <= declared, stage.name
                declared.add(stage.name)
        assert flow_stage_order() == (
            "intake", "harden_cpu", "assemble", "lint_gate", "analyze",
            "verify_props", "prototype", "integrate_system", "verify",
            "insert_dft", "schedule_tests", "implement", "advanced_signoff",
            "package_design", "tapeout", "produce",
        )
