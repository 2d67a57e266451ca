"""Command-line interface: ``python -m repro <command>``.

Gives downstream users one-line access to the headline flows without
writing scripts:

    python -m repro flow          # the nine-stage lifecycle
    python -m repro camera        # take a photo, write a .jpg
    python -m repro ramp          # the 8-month yield ramp
    python -m repro atpg          # scan + ATPG on a generated block
    python -m repro mbist         # March coverage + BIST plan
    python -m repro pins          # substrate 4 -> 2 layers
    python -m repro migrate       # 0.25 -> 0.18 um die cost
    python -m repro regress       # E13 cross-simulator regression
    python -m repro sta           # multi-corner NLDM signoff STA
    python -m repro cover         # coverage-closure loop (DSC bench)
    python -m repro lint          # static design-rule analysis (DSC)
    python -m repro bmc           # bounded model checking (DSC)

``flow --store FILE`` loads a persisted artifact store before the run
and saves it after, so a rerun splices every block-level and
design-level store unit the design did not change from it; the
printed report is the same cold and warm.

The ``lint`` command runs the rule families of :mod:`repro.lint` over
the generated DSC design database: structural netlist checks (STR-*),
clock-domain-crossing analysis (CDC-*), static X-source propagation
(X-*), scan design rules (SCAN-*) and the SoC memory-map audit
(MAP-*), plus the dataflow-engine families of PR 4: constant
propagation (CONST-*), dead logic (DEAD-*), dialect divergence
(DIV-*) and zero-delay races (RACE-*).  ``--waivers FILE`` applies a
JSON waiver file; ``--fail-on`` sets the exit-status threshold;
``--json`` emits the canonical report (byte-identical for any
``--workers`` value); ``--sarif FILE`` additionally writes SARIF 2.1.0
for GitHub code scanning.  Incremental reruns: ``--store FILE``
persists the content-addressed artifact store across runs (only
changed modules re-lint), ``--baseline FILE`` diffs against a prior
JSON report by finding fingerprint (``--changed-only`` gates only on
new findings), ``--sarif-baseline FILE`` stamps SARIF results with
``baselineState``, and ``--fail-on-unused-waivers`` turns stale
waivers into a failure.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_flow(args: argparse.Namespace) -> int:
    import os

    from .core import DesignServiceFlow
    from .store import ArtifactStore

    store = None
    if args.store and os.path.exists(args.store):
        store = ArtifactStore.load(args.store)
    flow = DesignServiceFlow(scale=args.scale, seed=args.seed, store=store)
    report = flow.run()
    if args.store:
        flow.store.save(args.store)
    print(report.format_report())
    return 0


def _cmd_camera(args: argparse.Namespace) -> int:
    from .dsc import SENSOR_2MP, SENSOR_3MP, simulate_shot

    sensor = SENSOR_3MP if args.grade == "3mp" else SENSOR_2MP
    shot = simulate_shot(sensor=sensor, quality=args.quality,
                         seed=args.seed)
    print(f"{sensor.name}: {shot.timing.format_report()}")
    print(f"PSNR {shot.quality_psnr_db:.1f} dB, "
          f"{len(shot.jpeg_stream)} bytes")
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(shot.jpeg_stream)
        print(f"wrote {args.out}")
    return 0


def _cmd_ramp(args: argparse.Namespace) -> int:
    from .manufacturing import simulate_ramp

    result = simulate_ramp(months=args.months, seed=args.seed)
    print(result.format_report())
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    from .netlist import block_from_budget, make_default_library
    from .dft import insert_scan, run_atpg

    library = make_default_library(0.25)
    block = block_from_budget("block", library,
                              gate_budget=args.gates, seed=args.seed)
    scanned, scan_report = insert_scan(block, n_chains=args.chains)
    print(f"scanned {scan_report.total_scan_flops} flops into "
          f"{len(scan_report.chains)} chains")
    result = run_atpg(scanned, seed=args.seed,
                      max_random_patterns=args.patterns,
                      batch_size=args.batch_size, workers=args.workers)
    print(result.format_report())
    return 0


def _cmd_mbist(args: argparse.Namespace) -> int:
    from .netlist import make_default_library
    from .mbist import (
        BistGenerator,
        MARCH_C_MINUS,
        dsc_memory_set,
        measure_coverage,
    )

    report = measure_coverage(MARCH_C_MINUS, trials_per_family=args.trials,
                              seed=args.seed)
    print(report.format_report())
    plan = BistGenerator(make_default_library(0.25)).plan(dsc_memory_set())
    print()
    print(plan.format_report())
    return 0


def _cmd_pins(args: argparse.Namespace) -> int:
    from .package import (
        dsc_pad_ring,
        estimate_layers,
        optimize_assignment,
        scrambled_assignment,
        tfbga256,
    )

    start = scrambled_assignment(tfbga256(), dsc_pad_ring(),
                                 seed=args.seed)
    print(f"initial substrate layers: {estimate_layers(start)}")
    optimized, report = optimize_assignment(
        start, iterations=args.iterations, seed=args.seed,
        initial_temperature=0.3,
    )
    print(report.format_report())
    print(f"final substrate layers  : {estimate_layers(optimized)}")
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from .manufacturing import migrate_dsc

    print(migrate_dsc().format_report())
    return 0


def _null_checker(cycle, outputs):
    """Picklable no-op checker for stimulus-only regression benches."""
    return None


def _cmd_regress(args: argparse.Namespace) -> int:
    from .netlist import make_default_library, pipeline_block
    from .netlist.clocks import RESET_PORT
    from .verification import (
        Testbench,
        cross_simulator_check,
        random_stimulus,
    )

    library = make_default_library(0.25)
    module = pipeline_block("blk", library, stages=args.stages,
                            width=args.width,
                            cloud_gates=args.cloud_gates, seed=args.seed)
    benches = []
    for index in range(args.benches):
        stimulus = random_stimulus(module, cycles=args.cycles,
                                   seed=args.seed + index)
        if args.no_reset:
            # E13 failure mode: reset deasserted but never applied, so
            # flops keep their dialect-dependent power-on value.
            stimulus = [{**vector, RESET_PORT: 1} for vector in stimulus]
        benches.append(Testbench(
            name=f"bench_{index}",
            stimulus=stimulus,
            checker=_null_checker,
            reset_port=None if args.no_reset else RESET_PORT,
        ))
    cross = cross_simulator_check(module, benches, workers=args.workers)
    print(cross.report_a.format_report())
    print()
    print(cross.report_b.format_report())
    print()
    print(cross.format_report())
    return 0 if cross.consistent else 1


def _cmd_sta(args: argparse.Namespace) -> int:
    from .netlist import make_default_library, pipeline_block
    from .sta import TimingConstraints, analyze_timing

    library = make_default_library(0.25)
    module = pipeline_block("blk", library, stages=args.stages,
                            width=args.width,
                            cloud_gates=args.cloud_gates, seed=args.seed)
    constraints = TimingConstraints(clock_period_ps=args.period)
    corners = args.corner.split(",") if args.corner else None
    report = analyze_timing(module, constraints, corners=corners)
    print(report.canonical_json() if args.json else report.format_report())
    return 0 if report.setup_clean and report.hold_clean else 1


def _cmd_cover(args: argparse.Namespace) -> int:
    from .coverage import ClosureConfig, close_coverage, dsc_closure_bench

    module, covergroup, spec = dsc_closure_bench()
    config = ClosureConfig(
        toggle_target=args.toggle_target,
        functional_target=args.functional_target,
        tests_per_round=args.tests_per_round,
        cycles_per_test=args.cycles,
        max_rounds=args.rounds,
    )
    result = close_coverage(module, covergroup, seed=args.seed,
                            config=config, spec=spec,
                            workers=args.workers)
    print(result.format_report())
    return 0 if result.reached else 1


def _cmd_bmc(args: argparse.Namespace) -> int:
    import json as json_mod

    from .formal import (
        BmcError,
        check_bus_exclusivity,
        check_properties,
        derive_properties,
        replay_counterexample,
    )
    from .lint import dsc_lint_targets

    targets = dsc_lint_targets(scale=args.scale, seed=args.seed)
    modules = sorted(targets.modules, key=lambda m: m.name)
    reports = []
    falsified = 0
    for module in modules:
        if len(module.instances) > args.max_gates:
            if not args.json:
                print(f"{module.name}: skipped "
                      f"({len(module.instances)} gates > "
                      f"{args.max_gates})")
            continue
        props = derive_properties(module)
        if not any(p.kind != "assume" for p in props):
            continue
        try:
            report = check_properties(
                module, props, depth=args.depth, workers=args.workers,
                seed=args.seed,
            )
        except BmcError as exc:
            print(f"bmc: {exc}", file=sys.stderr)
            return 2
        reports.append(report)
        falsified += report.counts()["falsified"]
        if args.json:
            continue
        print(report.format_report())
        by_name = {p.name: p for p in props}
        for check in report.checks:
            if check.counterexample is None \
                    or check.status != "falsified":
                continue
            replay = replay_counterexample(
                module, by_name[check.name], check.counterexample
            )
            verdict = ("reproduced on every dialect"
                       if replay.reproduced_everywhere
                       else "NOT reproduced everywhere")
            print(f"  replay {check.name}: {verdict}")
        print()

    bus = check_bus_exclusivity(targets.soc.bus)
    if args.json:
        payload = {
            "bus": bus.to_dict(),
            "depth": args.depth,
            "engine": "cdcl",
            "reports": [report.to_dict() for report in reports],
        }
        print(json_mod.dumps(payload, sort_keys=True,
                             separators=(",", ":")))
    else:
        verdict = "EXCLUSIVE" if bus.exclusive else "OVERLAP"
        print(f"bus decode windows ({len(bus.windows)}): {verdict}")
        if bus.overlapping is not None:
            print(f"  witness address {bus.witness_address:#x} in "
                  f"{bus.overlapping[0]} and {bus.overlapping[1]}")
    return 1 if (falsified or not bus.exclusive) else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as json_mod
    import os

    from .lint import LintReport, WaiverSet, dsc_lint_targets, run_lint
    from .store import ArtifactStore, set_default_store

    waivers = WaiverSet.load(args.waivers) if args.waivers else None
    rules = args.rules.split(",") if args.rules else None
    if args.store and os.path.exists(args.store):
        set_default_store(ArtifactStore.load(args.store))
    targets = dsc_lint_targets(scale=args.scale, seed=args.seed)
    report = run_lint(
        targets.modules,
        soc=targets.soc,
        catalog=targets.catalog,
        binding=targets.binding,
        design="dsc",
        rules=rules,
        workers=args.workers,
        waivers=waivers,
    )
    if args.store:
        from .store import get_default_store

        get_default_store().save(args.store)
    if args.sarif:
        sarif_baseline = None
        if args.sarif_baseline:
            with open(args.sarif_baseline, "r", encoding="utf-8") as handle:
                sarif_baseline = json_mod.load(handle)
        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(report.to_sarif_json(baseline=sarif_baseline))
            handle.write("\n")

    delta = None
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            delta = report.delta(LintReport.from_json(handle.read()))
    if args.changed_only:
        if delta is None:
            print("lint: --changed-only requires --baseline",
                  file=sys.stderr)
            return 2
        print(delta.to_json() if args.json else delta.format_report())
    else:
        print(report.to_json() if args.json else report.format_report())
        if delta is not None:
            print(delta.to_json() if args.json else delta.format_report())

    failed = report.failed(args.fail_on)
    if delta is not None and args.changed_only:
        threshold = args.fail_on
        failed = LintReport(
            design=report.design, findings=delta.new
        ).failed(threshold)
    if args.fail_on_unused_waivers and report.unused_waivers:
        failed = True
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json as json_mod
    import os

    from .service import DesignService, synthetic_tenant_mix
    from .store import ArtifactStore

    stages = tuple(args.stages.split(",")) if args.stages else None
    mix = synthetic_tenant_mix(
        tenants=args.tenants,
        requests_per_tenant=args.requests,
        scale=args.scale,
        seed=args.seed,
        stages=stages,
        bmc_depth=args.depth,
        dft_patterns=args.patterns,
    )
    # A dedicated store: it receives exactly the service.* unit
    # payloads (each unit body caches its lint/analysis work in a
    # scratch store of its own), so its canonical dump is comparable
    # across worker counts and can be persisted with --store.
    if args.store and os.path.exists(args.store):
        store = ArtifactStore.load(args.store)
    else:
        store = ArtifactStore()
    def print_event(event: dict) -> None:
        print(json_mod.dumps(event, sort_keys=True,
                             separators=(",", ":")),
              file=sys.stderr)

    on_event = print_event if args.events else None
    service = DesignService(workers=args.workers,
                            queue_depth=args.queue_depth,
                            store=store, on_event=on_event)
    try:
        reports = service.run(mix)
    finally:
        service.close()
    if args.store:
        store.save(args.store, canonical=True)
    reports = sorted(reports, key=lambda r: r.request_id)
    if args.json:
        print(json_mod.dumps([report.to_dict() for report in reports],
                             sort_keys=True, separators=(",", ":")))
    else:
        for report in reports:
            print(report.format_report())
        stats = service.stats
        print(f"{stats.requests:.0f} requests, "
              f"{stats.units_total:.0f} units requested, "
              f"{stats.units_executed:.0f} executed "
              f"({stats.units_coalesced:.0f} coalesced, "
              f"{stats.units_store_hits:.0f} store hits, "
              f"dedup {stats.dedup_rate * 100:.1f}%)")
    return 0 if all(report.ok for report in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulated SOC design-service flow (DATE 2005 "
                    "multimedia SOC reproduction)",
    )
    parser.add_argument(
        "--perf", action="store_true",
        help="print a stage-time breakdown after the command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flow = sub.add_parser("flow", help="run the nine-stage lifecycle")
    flow.add_argument("--scale", type=float, default=0.02)
    flow.add_argument("--seed", type=int, default=1)
    flow.add_argument("--store", default="", metavar="FILE",
                      help="persisted artifact store: load before the "
                           "run (if present) and save after, so a "
                           "rerun splices every unchanged stage from "
                           "the store")
    flow.set_defaults(func=_cmd_flow)

    camera = sub.add_parser("camera", help="capture a photo")
    camera.add_argument("--grade", choices=("2mp", "3mp"), default="3mp")
    camera.add_argument("--quality", type=int, default=85)
    camera.add_argument("--seed", type=int, default=0)
    camera.add_argument("--out", default="")
    camera.set_defaults(func=_cmd_camera)

    ramp = sub.add_parser("ramp", help="simulate the yield ramp")
    ramp.add_argument("--months", type=int, default=8)
    ramp.add_argument("--seed", type=int, default=11)
    ramp.set_defaults(func=_cmd_ramp)

    atpg = sub.add_parser("atpg", help="scan + ATPG a generated block")
    atpg.add_argument("--gates", type=int, default=1500)
    atpg.add_argument("--chains", type=int, default=2)
    atpg.add_argument("--patterns", type=int, default=512)
    atpg.add_argument("--seed", type=int, default=3)
    atpg.add_argument("--batch-size", type=int, default=64,
                      help="fault-sim patterns per batch (wider is "
                           "faster; selects a different but equally "
                           "random pattern stream)")
    atpg.add_argument("--workers", type=int, default=1,
                      help="fault-partition processes for fault sim")
    atpg.set_defaults(func=_cmd_atpg)

    mbist = sub.add_parser("mbist", help="March coverage + BIST plan")
    mbist.add_argument("--trials", type=int, default=80)
    mbist.add_argument("--seed", type=int, default=3)
    mbist.set_defaults(func=_cmd_mbist)

    pins = sub.add_parser("pins", help="pin-assignment optimisation")
    pins.add_argument("--iterations", type=int, default=3000)
    pins.add_argument("--seed", type=int, default=1)
    pins.set_defaults(func=_cmd_pins)

    migrate = sub.add_parser("migrate", help="0.25 -> 0.18 um die cost")
    migrate.set_defaults(func=_cmd_migrate)

    regress = sub.add_parser(
        "regress", help="E13 cross-simulator regression suite")
    regress.add_argument("--stages", type=int, default=2)
    regress.add_argument("--width", type=int, default=8)
    regress.add_argument("--cloud-gates", type=int, default=40)
    regress.add_argument("--benches", type=int, default=4)
    regress.add_argument("--cycles", type=int, default=16)
    regress.add_argument("--seed", type=int, default=5)
    regress.add_argument("--workers", type=int, default=1,
                         help="bench fan-out processes per dialect")
    regress.add_argument("--no-reset", action="store_true",
                         help="skip reset to reproduce the E13 "
                              "dialect mismatch (exit code 1)")
    regress.set_defaults(func=_cmd_regress)

    sta = sub.add_parser(
        "sta", help="multi-corner NLDM signoff STA on a generated block")
    sta.add_argument("--stages", type=int, default=4)
    sta.add_argument("--width", type=int, default=12)
    sta.add_argument("--cloud-gates", type=int, default=120)
    sta.add_argument("--seed", type=int, default=3)
    sta.add_argument("--period", type=float, default=7500.0,
                     help="clock period in ps (default 7.5 ns = 133 MHz)")
    sta.add_argument("--corner", default="",
                     help="comma-separated corner names (e.g. ss,ff); "
                          "default: every library corner")
    sta.add_argument("--json", action="store_true",
                     help="emit the canonical QoR JSON")
    sta.set_defaults(func=_cmd_sta)

    cover = sub.add_parser(
        "cover", help="coverage-closure loop on the DSC bench")
    cover.add_argument("--toggle-target", type=float, default=0.85)
    cover.add_argument("--functional-target", type=float, default=1.0)
    cover.add_argument("--tests-per-round", type=int, default=8)
    cover.add_argument("--cycles", type=int, default=48)
    cover.add_argument("--rounds", type=int, default=12)
    cover.add_argument("--seed", type=int, default=1)
    cover.add_argument("--workers", type=int, default=1,
                       help="simulation fan-out processes per round")
    cover.set_defaults(func=_cmd_cover)

    bmc = sub.add_parser(
        "bmc", help="bounded model checking on the DSC database")
    bmc.add_argument("--scale", type=float, default=0.005,
                     help="fraction of each IP's catalogue gate budget")
    bmc.add_argument("--seed", type=int, default=0)
    bmc.add_argument("--depth", type=int, default=10,
                     help="number of unrolled clock frames")
    bmc.add_argument("--workers", type=int, default=1,
                     help="per-property fan-out processes (the report "
                          "is byte-identical for any value)")
    bmc.add_argument("--max-gates", type=int, default=4000,
                     help="skip blocks above this gate count")
    bmc.add_argument("--json", action="store_true",
                     help="emit the canonical JSON report "
                          "(byte-identical across --workers)")
    bmc.set_defaults(func=_cmd_bmc)

    lint = sub.add_parser(
        "lint", help="static design-rule analysis on the DSC database")
    lint.add_argument("--scale", type=float, default=0.02,
                      help="fraction of each IP's catalogue gate budget")
    lint.add_argument("--seed", type=int, default=0)
    lint.add_argument("--workers", type=int, default=None,
                      help="module-lint fan-out processes")
    lint.add_argument("--waivers", default="",
                      help="JSON waiver file to apply")
    lint.add_argument("--rules", default="",
                      help="comma-separated rule ids or categories "
                           "(e.g. cdc,SCAN-001); default: all")
    lint.add_argument("--fail-on",
                      choices=("error", "warning", "info", "none"),
                      default="error",
                      help="lowest severity that fails the run")
    lint.add_argument("--json", action="store_true",
                      help="emit the canonical JSON report")
    lint.add_argument("--sarif", default="", metavar="FILE",
                      help="also write the report as SARIF 2.1.0 "
                           "(for GitHub code scanning)")
    lint.add_argument("--sarif-baseline", default="", metavar="FILE",
                      help="prior SARIF log; stamps each result's "
                           "baselineState (new vs unchanged)")
    lint.add_argument("--baseline", default="", metavar="FILE",
                      help="prior canonical-JSON lint report to diff "
                           "against (fingerprint delta)")
    lint.add_argument("--changed-only", action="store_true",
                      help="with --baseline: report and gate only on "
                           "findings new since the baseline")
    lint.add_argument("--fail-on-unused-waivers", action="store_true",
                      help="exit nonzero when any waiver matched "
                           "nothing (stale sign-off)")
    lint.add_argument("--store", default="", metavar="FILE",
                      help="persisted artifact store: load before the "
                           "run (if present) and save after, so "
                           "reruns only re-lint changed modules")
    lint.set_defaults(func=_cmd_lint)

    serve = sub.add_parser(
        "serve",
        help="multi-tenant flow service over a synthetic DSC mix")
    serve.add_argument("--tenants", type=int, default=4)
    serve.add_argument("--requests", type=int, default=3,
                       help="requests per tenant")
    serve.add_argument("--scale", type=float, default=0.005,
                       help="fraction of each IP's catalogue gate "
                            "budget")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--workers", type=int, default=1,
                       help="pool workers for stage units (reports "
                            "are byte-identical for any value)")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="max units in flight (default 2x workers)")
    serve.add_argument("--depth", type=int, default=3,
                       help="BMC depth for verify_props units")
    serve.add_argument("--patterns", type=int, default=256,
                       help="fault-sim pattern budget for dft units")
    serve.add_argument("--stages", default="",
                       help="comma-separated stage subset for every "
                            "request (default: the mix's stage menus)")
    serve.add_argument("--json", action="store_true",
                       help="emit the canonical per-request report "
                            "array, sorted by request id "
                            "(byte-identical across --workers, "
                            "submission order and --queue-depth)")
    serve.add_argument("--store", default="", metavar="FILE",
                       help="persisted artifact store: load before "
                            "the run (if present) and save a "
                            "canonical dump after, so warm reruns "
                            "splice every unit from the store")
    serve.add_argument("--events", action="store_true",
                       help="stream progress events as JSON lines on "
                            "stderr")
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    status = args.func(args)
    if args.perf:
        from .perf import perf_report

        print()
        print(perf_report())
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
