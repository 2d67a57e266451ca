"""One repetition of a flowbench workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so no in-process
memo (compiled programs, lint/analysis caches, the ambient artifact
store, the service's module cache) survives from one repetition to the
next.  The last line of standard output is one JSON object; the parent
aggregates those.

    python3 flowbench/rep.py flow    --seed 0 --scale 0.02 --spawned T
    python3 flowbench/rep.py prefill --seed 0 --scale 0.02 --spawned T \
        --store STORE.json --report REPORT.json
    python3 flowbench/rep.py warm    --seed 0 --scale 0.02 --spawned T \
        --store STORE.json
    python3 flowbench/rep.py service --seed 0 --scale 0.008 --spawned T
    python3 flowbench/rep.py replay  --seed 0 --scale 0.008 --spawned T

``--spawned`` is the parent's ``time.monotonic()`` just before it
started this interpreter.  ``time.monotonic`` reads the system-wide
monotonic clock, so ``setup_s`` (spawn to first timed call) includes
interpreter start-up, the entry point's imports and building inputs.
``--stages`` drives the flow stage by stage through ``run_stage``, as
``run()`` does, and returns each stage's time, the speed probe around
it and the exact work counts; without it the repetition times one call
of ``run()``.  A service repetition times the speed probe before and
after the mix.

Exit codes: 0 with a result line (a failed flow or request is reported
inside the result), 3 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import sys
import time

#: Requests in the service mix: 4 tenants x 8 requests.
MIX_TENANTS = 4
MIX_REQUESTS_PER_TENANT = 8
#: Pool size of the service workload: the 2-core reference host's nproc.
SERVICE_WORKERS = 2
#: Iterations of the speed probe timed around every flow stage and
#: every mix: about 9 ms on the reference host.
PROBE_ITERATIONS = 100_000


def speed_probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds of a fixed pure-Python loop: the host's speed right now.

    The loop shares nothing with the program under test, so a change in
    its time is a change in the host, not in the program.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _peak_rss_mb(pool_workers: int = 0, forked_at_kb: int = 0) -> float:
    """Peak RSS of this process plus its reaped pool workers, in MB.

    A forked worker's peak already includes the pages it inherited, so
    each worker adds only its growth beyond ``forked_at_kb``, this
    process's peak just before the pool started.  ``RUSAGE_CHILDREN``
    reports the largest reaped child's peak, so every worker is counted
    at the largest worker's growth (an upper bound).
    """
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    growth = max(child - forked_at_kb, 0)
    return (_maxrss_kb() + pool_workers * growth) / 1024.0


def _import_repro() -> None:
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"flowbench: cannot import repro: {exc}", file=sys.stderr)
        raise SystemExit(3) from None


# -- lifecycle flow ------------------------------------------------------

def _store_counts(store) -> dict[str, float]:
    stats = store.stats()
    entries = stats.pop("_store")["entries"]
    hits = sum(domain["hits"] for domain in stats.values())
    misses = sum(domain["misses"] for domain in stats.values())
    return {
        "store.hits": hits,
        "store.misses": misses,
        "store.puts": sum(domain["puts"] for domain in stats.values()),
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.entries": entries,
    }


def _staged_flow(flow, flow_stage_order,
                 first_probe: float) -> tuple[object, dict]:
    """Drive the flow exactly as ``run()`` does, one span per stage.

    ``first_probe`` is the speed probe timed just before the first
    stage; the probe runs again after every stage, outside the stage
    spans, and a stage's ``probe_s`` is the mean of the two around it.
    """
    spans = []
    counts: dict[str, float] = {}
    start = time.monotonic()
    probes = [first_probe]
    for name in flow_stage_order():
        stage_start = time.monotonic()
        out = flow.run_stage(name)
        stage_end = time.monotonic()
        probes.append(speed_probe())
        spans.append({"name": name, "parent": "flow",
                      "start": stage_start - start,
                      "end": stage_end - start})
        if name == "insert_dft":
            atpg = out[0]
            counts["dft.faults"] = atpg.total_faults
            counts["dft.detected_random"] = atpg.detected_random
            counts["dft.untestable"] = len(atpg.untestable)
            counts["dft.patterns_deterministic"] = \
                atpg.patterns_deterministic
        elif name == "verify_props":
            solver: dict[str, int] = {}
            for bmc in out[0].values():
                # A store hit hands back the cached payload dict: no
                # solver ran, so it adds no CDCL work.
                for check in getattr(bmc, "checks", ()):
                    for key, value in check.solver_stats:
                        solver[key] = solver.get(key, 0) + value
            for key in ("conflicts", "decisions", "propagations"):
                counts[f"formal.cdcl_{key}"] = solver.get(key, 0)
    wall = time.monotonic() - start
    counts["formal.props_checked"] = flow.report.props_checked
    stages = {span["name"]: span["end"] - span["start"] for span in spans}
    probe_s = {span["name"]: (probes[index] + probes[index + 1]) / 2
               for index, span in enumerate(spans)}
    spans.insert(0, {"name": "flow", "parent": None, "start": 0.0,
                     "end": wall})
    return flow.report, {
        "wall_s": wall,
        "stages": stages,
        "probe_s": probe_s,
        "counts": counts,
        "span_coverage": sum(stages.values()) / wall,
        "spans": spans,
    }


def run_flow(args: argparse.Namespace) -> dict:
    t_import = time.monotonic()
    _import_repro()
    from repro.core.flow import DesignServiceFlow, flow_stage_order
    from repro.store import ArtifactStore

    t_inputs = time.monotonic()
    load_s = 0.0
    if args.mode == "warm":
        store = ArtifactStore.load(args.store)
        load_s = time.monotonic() - t_inputs
    else:
        store = ArtifactStore()
    flow = DesignServiceFlow(scale=args.scale, seed=args.seed, store=store)
    t_run = time.monotonic()
    out: dict = {
        "setup_s": t_run - args.spawned,
        "import_s": t_inputs - t_import,
        "inputs_s": t_run - t_inputs,
        "load_s": load_s,
        "setup_probe_s": speed_probe(),
    }
    t_flow = time.monotonic()
    try:
        if args.stages:
            report, out["trace"] = _staged_flow(flow, flow_stage_order,
                                                out["setup_probe_s"])
            out["probe_s"] = statistics.median(
                out["trace"]["probe_s"].values()
            )
        else:
            report = flow.run()
    except Exception as exc:  # noqa: BLE001 - a failed flow is a result
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    out["flow_s"] = time.monotonic() - t_flow
    body = json.dumps(dataclasses.asdict(report), sort_keys=True)
    out["report_digest"] = _digest(body)
    out["store"] = _store_counts(flow.store)
    if args.mode == "prefill":
        flow.store.save(args.store)
        # The report is written last and atomically: its presence is
        # what tells later runs that the prefill is complete.
        partial = f"{args.report}.partial"
        with open(partial, "w", encoding="utf-8") as handle:
            handle.write(body + "\n")
        os.replace(partial, args.report)
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


# -- multi-tenant service -------------------------------------------------

def _failing_request(mix):
    """A request whose STA unit raises: an unknown corner name."""
    first = mix[0]
    return dataclasses.replace(first, tenant="selftest",
                               stages=("assemble", "sta"),
                               corners=("no_such_corner",))


def _build_mix(args: argparse.Namespace):
    from repro.service import synthetic_tenant_mix

    mix = synthetic_tenant_mix(
        tenants=MIX_TENANTS, requests_per_tenant=MIX_REQUESTS_PER_TENANT,
        scale=args.scale, seed=args.seed,
    )
    if args.inject_failure:
        mix.append(_failing_request(mix))
    return mix


def run_service(args: argparse.Namespace) -> dict:
    t_import = time.monotonic()
    _import_repro()
    from repro.service import DesignService
    from repro.store import ArtifactStore

    t_inputs = time.monotonic()
    mix = _build_mix(args)
    service = DesignService(workers=SERVICE_WORKERS, store=ArtifactStore())
    t_run = time.monotonic()
    out: dict = {
        "setup_s": t_run - args.spawned,
        "import_s": t_inputs - t_import,
        "inputs_s": t_run - t_inputs,
        "requests": len(mix),
    }
    out["setup_probe_s"] = speed_probe()
    # The pool is forked lazily inside ``run``.
    forked_at_kb = _maxrss_kb()
    t_mix = time.monotonic()
    try:
        reports = service.run(mix)
    finally:
        service.close()
    wall = time.monotonic() - t_mix
    out["probe_s"] = (out["setup_probe_s"] + speed_probe()) / 2
    out["wall_s"] = wall
    out["flow_s"] = wall / len(mix)
    out["failed_requests"] = sum(1 for report in reports if not report.ok)
    out["request_digests"] = {
        report.request_id: _digest(report.canonical_json())
        for report in reports
    }
    out["stats"] = service.stats.as_dict()
    out["store"] = _store_counts(service.store)
    out["workers"] = service.workers
    out["peak_rss_mb"] = _peak_rss_mb(service.workers, forked_at_kb)
    return out


def run_replay(args: argparse.Namespace) -> dict:
    """Execute every distinct unit of the mix once, serially, timed.

    Units are identified exactly as the service keys them, run through
    the same ``execute_unit_guarded``, and a stage whose dependency
    failed is skipped as the service skips it, so the distinct count
    must equal the service's ``units_executed``.
    """
    _import_repro()
    from repro.service import (
        STAGE_DEFS,
        STAGE_VERSION,
        execute_unit_guarded,
        make_unit_spec,
        stage_closure,
        unit_config,
        unit_fingerprints,
    )
    from repro.store import content_key

    mix = _build_mix(args)
    results: dict[str, tuple[bool, dict]] = {}
    spans: list[dict] = []
    probe_before = speed_probe()
    start = time.monotonic()

    def obtain(stage, block, fingerprint, config) -> tuple[bool, dict]:
        fingerprints = unit_fingerprints(stage, block, fingerprint)
        key = content_key(f"service.{stage}", STAGE_VERSION, fingerprints,
                          config)
        if key not in results:
            unit_start = time.monotonic()
            results[key] = execute_unit_guarded(
                make_unit_spec(stage, block, config)
            )
            spans.append({"name": stage, "parent": "replay",
                          "block": block.name,
                          "corner": config.get("corner"),
                          "start": unit_start - start,
                          "end": time.monotonic() - start})
        return results[key]

    for request in mix:
        stages = stage_closure(request.stages)
        for block in request.blocks:
            ok, assembled = obtain("assemble", block, None,
                                   unit_config("assemble", request))
            if not ok:
                continue
            passed = {"assemble": True}
            for stage in stages:
                if stage == "assemble":
                    continue
                if not all(passed[dep] for dep in STAGE_DEFS[stage].deps):
                    passed[stage] = False
                    continue
                corners = request.corners if stage == "sta" else (None,)
                passed[stage] = all([
                    obtain(stage, block, assembled["fingerprint"],
                           unit_config(stage, request, corner))[0]
                    for corner in corners
                ])
    wall = time.monotonic() - start
    busy: dict[str, float] = {}
    for span in spans:
        busy[span["name"]] = busy.get(span["name"], 0.0) \
            + span["end"] - span["start"]
    spans.insert(0, {"name": "replay", "parent": None, "start": 0.0,
                     "end": wall})
    return {"units": len(results), "busy": busy, "wall_s": wall,
            "probe_s": (probe_before + speed_probe()) / 2, "spans": spans}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("flow", "prefill", "warm",
                                         "service", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--store")
    parser.add_argument("--report")
    parser.add_argument("--stages", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args(argv)
    if args.mode in ("flow", "prefill", "warm"):
        result = run_flow(args)
    elif args.mode == "service":
        result = run_service(args)
    else:
        result = run_replay(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
