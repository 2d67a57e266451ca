"""End-to-end benchmark of the SOC design-service flow.

Three workloads, each measured as repetitions in fresh interpreters
(``rep.py``) so no process-wide memo carries over between them:

* ``flow_cold``   -- ``DesignServiceFlow(scale=0.02, seed=0)`` run stage by
  stage as ``run()`` runs it, on an empty ``ArtifactStore``, serial and
  in-process;
* ``flow_warm``   -- the same design rerun against the store a cold
  prefill persisted (``ArtifactStore.save``/``load``);
* ``service_mix`` -- the 32-request multi-tenant bench mix on
  ``DesignService(workers=2)``, closed loop, empty store and fresh pool
  per repetition.

    python3 flowbench/run.py --workload flow_cold --seed 0 --seconds 40 \
        --trace 0

``--trace 0`` reports the end-to-end metrics over the run's
repetitions, times scaled to a reference host speed by a probe timed
around every span (README.md, "Reference speed"); ``--trace 1`` runs
the traced variant and reports the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it (``flowbench record: {...}``) holds the host-drift record:
probe timings before and after the run, sample counts, host and
library versions, and the exact work counts.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from rep import speed_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".flowbench"
REP = HERE / "rep.py"

#: Default scale per workload.  Below 0.02 more blocks fall under the
#: flow's 200-gate BMC limit and ``verify_props`` takes over the run.
WORKLOADS = {"flow_cold": 0.02, "flow_warm": 0.02, "service_mix": 0.008}

#: ``--seed`` indexes these pools of design seeds (``seed % len``).  A
#: design seed changes the netlists and with them the amount of ATPG and
#: BMC work: across flow designs 0-39 the cold flow spans 3.8-8.5 s.
#: Spreads are compared across ``--seed`` values, so a pool keeps only
#: inputs of matched cost.  Bench mixes that execute exactly the 70
#: distinct units of mix 0 match within a few percent.  No two flow
#: designs matched under load (one ran 12% slower than another whose
#: fastest runs it equalled), so the flows run design 0 at every seed.
#: The survey is in README.md.
DESIGN_SEEDS = {
    "flow_cold": (0,),
    "flow_warm": (0,),
    "service_mix": (0, 1, 2, 3, 4, 5, 8, 9, 11, 13),
}

END_TO_END = {"flow_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "ip.harden_cpu_s": "s",
    "netlist.assemble_s": "s",
    "lint.lint_gate_s": "s",
    "analysis.analyze_s": "s",
    "formal.verify_props_s": "s",
    "verification.verify_s": "s",
    "dft.insert_dft_s": "s",
    "physical.implement_s": "s",
    "si.advanced_signoff_s": "s",
    "package.package_design_s": "s",
    "formal.tapeout_s": "s",
    "manufacturing.produce_s": "s",
    "core.flow_other_s": "s",
    "dft.faults": "count",
    "dft.detected_random": "count",
    "dft.untestable": "count",
    "dft.patterns_deterministic": "count",
    "formal.props_checked": "count",
    "formal.cdcl_conflicts": "count",
    "formal.cdcl_decisions": "count",
    "formal.cdcl_propagations": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.puts": "count",
    "store.hit_ratio": "ratio",
    "store.entries": "count",
    "store.load_s": "s",
    "service.busy.assemble_s": "s",
    "service.busy.lint_gate_s": "s",
    "service.busy.analyze_s": "s",
    "service.busy.verify_props_s": "s",
    "service.busy.sta_s": "s",
    "service.busy.dft_s": "s",
    "service.units_total": "count",
    "service.units_executed": "count",
    "service.units_coalesced": "count",
    "service.units_store_hits": "count",
    "service.units_failed": "count",
    "service.dedup_ratio": "ratio",
    "perf.pool_utilization": "ratio",
    "trace.span_coverage": "ratio",
    "trace.overhead_s": "s",
}

#: Flow stage -> per-layer metric; every other stage lands in
#: ``core.flow_other_s``.
STAGE_METRICS = {
    "harden_cpu": "ip.harden_cpu_s",
    "assemble": "netlist.assemble_s",
    "lint_gate": "lint.lint_gate_s",
    "analyze": "analysis.analyze_s",
    "verify_props": "formal.verify_props_s",
    "verify": "verification.verify_s",
    "insert_dft": "dft.insert_dft_s",
    "implement": "physical.implement_s",
    "advanced_signoff": "si.advanced_signoff_s",
    "package_design": "package.package_design_s",
    "tapeout": "formal.tapeout_s",
    "produce": "manufacturing.produce_s",
}
SERVICE_STAGES = ("assemble", "lint_gate", "analyze", "verify_props", "sta",
                  "dft")
MIN_REPS = 3
MAX_REPS = 60
#: A run ends within this many seconds whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0
#: ``speed_probe`` on the 2-core reference host in a quiet spell.  A
#: stage's or mix's wall time is scaled by this over the probe timed
#: around it, which gives its time at the reference host's quiet speed
#: (README.md, "Noise").
PROBE_REFERENCE_S = 0.0090


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no program, no prefill)."""


def host_probe() -> float:
    """Median seconds of five runs of the speed probe."""
    return statistics.median(speed_probe() for _ in range(5))


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, scaled to
    the reference host's quiet speed."""
    return seconds * PROBE_REFERENCE_S / probe_s


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(mode: str, options: list[str], deadline: float) -> dict:
    """Run one ``rep.py`` repetition; returns its result object.

    The repetition gets its own session, and whatever is left of that
    session when it exits (pool workers of a crashed service) is
    killed, so no process outlives the run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    spawn_probe = speed_probe()
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(REP), mode, *options,
         "--spawned", repr(spawned)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{mode} repetition overran the run limit") \
            from None
    finally:
        _kill_group(proc.pid)
    if proc.returncode == 3:
        raise BenchError(err.strip() or "cannot import the program")
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode == 0 and lines:
        try:
            rep = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
        else:
            # With the repetition's first probe, this brackets set-up.
            rep["spawn_probe_s"] = spawn_probe
            return rep
    tail =err.strip().splitlines()[-1:] or ["no result line"]
    return {"error": f"exit {proc.returncode}: {tail[0]}"}


def repeat(one_rep, seconds: float, deadline: float,
           min_reps: int = MIN_REPS) -> list[dict]:
    """Repetitions until the next one would end after ``seconds``."""
    reps: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while len(reps) < MAX_REPS:
        rep_start = time.monotonic()
        reps.append(one_rep(len(reps)))
        now = time.monotonic()
        longest = max(longest, now - rep_start)
        if now + longest > deadline:
            break
        if len(reps) >= min_reps and now - start + longest > seconds:
            break
    return reps


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(reps: list[dict], flow_s: float) -> dict[str, float]:
    """The run's end-to-end metrics from its timed repetitions.

    ``flow_s`` is taken by the caller.  Set-up time is scaled by the
    probes just before the repetition started and just after its
    set-up; both times are medians at the reference speed.  Peak
    memory is the median as measured.
    """
    return {
        "flow_s": flow_s,
        "setup_s": median(
            at_reference_speed(
                rep["setup_s"],
                (rep["spawn_probe_s"] + rep["setup_probe_s"]) / 2,
            )
            for rep in reps
        ),
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in reps),
    }


def stage_times(reps: list[dict]) -> dict[str, float]:
    """Each flow stage's median time across the repetitions, at the
    reference speed.

    Every stage is scaled by the probes timed just before and after
    it: a stage lasts seconds, so the host changes speed less within
    it than within a whole flow.
    """
    names = reps[0]["trace"]["stages"]
    return {
        name: median(
            at_reference_speed(rep["trace"]["stages"][name],
                               rep["trace"]["probe_s"][name])
            for rep in reps
        )
        for name in names
    }


def _digest_all(digests: dict[str, str]) -> str:
    """One digest over every request's report digest."""
    body = json.dumps(digests, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def source_digest() -> str:
    """Digest of the program's source, naming files that only runs of
    the same code may share."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def prefill_paths(design_seed: int, scale: float) -> tuple[Path, Path]:
    """Store and report files of the warm workload's cold prefill.

    Later runs of the same code reuse a prefill; changed code never
    does.
    """
    stem = f"{design_seed}-{scale}-{source_digest()}"
    return WORK / f"store-{stem}.json", WORK / f"report-{stem}.json"


def _rep_record(rep: dict) -> dict:
    """One repetition's sample as measured, for the host-drift record:
    wall ``flow_s``, set-up, peak memory and the median speed probe."""
    return {name: round(rep[name], 6) for name in (*END_TO_END, "probe_s")}


# -- workloads -------------------------------------------------------------

def run_flow_workload(args, design_seed: int, deadline: float) -> dict:
    """Cold or warm lifecycle runs; returns aggregates and checks."""
    warm = args.workload == "flow_warm"
    options = ["--seed", str(design_seed), "--scale", repr(args.scale)]
    reference = None
    if warm:
        store_path, report_path = prefill_paths(design_seed, args.scale)
        if not report_path.exists():
            WORK.mkdir(exist_ok=True)
            prefill = spawn("prefill", options + [
                "--store", str(store_path), "--report", str(report_path),
            ], deadline)
            if "error" in prefill:
                raise BenchError(f"cold prefill failed: {prefill['error']}")
        body = report_path.read_text(encoding="utf-8").rstrip("\n")
        reference = hashlib.sha256(body.encode()).hexdigest()
        options += ["--store", str(store_path)]
    mode = "warm" if warm else "flow"

    def one_rep(index: int) -> dict:
        # The traced run lets every other repetition call ``run()``
        # itself, so that the cost of timing stage by stage shows.
        staged = not args.trace or index % 2 == 1
        rep = spawn(mode, options + (["--stages"] if staged else []),
                    deadline)
        rep["staged"] = staged
        return rep

    reps = repeat(one_rep, args.seconds, deadline,
                  min_reps=2 if args.trace else MIN_REPS)
    done = [rep for rep in reps if "error" not in rep]
    digests = [rep["report_digest"] for rep in done]
    if reference is None and digests:
        reference = max(set(digests), key=digests.count)
    failed = len(reps) - len(done) + sum(
        1 for digest in digests if digest != reference
    )
    staged = [rep for rep in done if rep["staged"]]
    result = {
        "attempted": len(reps),
        "failed": failed,
        "samples": len(staged),
        "errors": [rep["error"] for rep in reps if "error" in rep],
        "exact": [dict(rep["store"], report_digest=rep["report_digest"])
                  for rep in done]
        + [rep["trace"]["counts"] for rep in staged],
        "repetitions": [_rep_record(rep) for rep in staged],
    }
    if not staged:
        return result
    stages = stage_times(staged)
    result["end_to_end"] = end_to_end(staged, sum(stages.values()))
    plain = [rep for rep in done if not rep["staged"]]
    if args.trace and plain:
        layers = {metric: 0.0 for metric in STAGE_METRICS.values()}
        layers["core.flow_other_s"] = 0.0
        for name, seconds in stages.items():
            layers[STAGE_METRICS.get(name, "core.flow_other_s")] += seconds
        fastest = min(staged, key=lambda rep: rep["trace"]["wall_s"])
        layers.update({
            "setup.import_s": median(rep["import_s"] for rep in done),
            "setup.inputs_s": median(rep["inputs_s"] for rep in done),
            "store.load_s": median(rep["load_s"] for rep in done),
            "trace.span_coverage": min(
                rep["trace"]["span_coverage"] for rep in staged
            ),
            "trace.overhead_s": fastest["trace"]["wall_s"]
            - min(rep["flow_s"] for rep in plain),
            **fastest["store"],
            **fastest["trace"]["counts"],
        })
        result["per_layer"] = layers
        result["spans"] = fastest["trace"]["spans"]
    return result


def run_service_workload(args, design_seed: int, deadline: float) -> dict:
    """Closed-loop bench mix; the traced run adds a serial replay."""
    options = ["--seed", str(design_seed), "--scale", repr(args.scale)]
    if args.inject_failure:
        options.append("--inject-failure")
    reserve = 10.0 if args.trace else 0.0
    reps = repeat(lambda index: spawn("service", options, deadline),
                  max(args.seconds - reserve, 1.0), deadline)
    done = [rep for rep in reps if "error" not in rep]
    # A repetition that crashed lost its whole mix.
    per_mix = done[0]["requests"] if done else 1
    lost = len(reps) - len(done)
    attempted = per_mix * len(reps)
    failed = per_mix * lost
    first: dict[str, str] = done[0]["request_digests"] if done else {}
    for rep in done:
        failed += rep["failed_requests"]
        failed += 1 if rep["stats"]["units_failed"] else 0
        failed += sum(
            1 for request_id, digest in rep["request_digests"].items()
            if first.get(request_id) != digest
        )
    result = {
        "attempted": attempted,
        "failed": failed,
        "samples": len(done),
        "errors": [rep["error"] for rep in reps if "error" in rep],
        "end_to_end": end_to_end(done, median(
            at_reference_speed(rep["flow_s"], rep["probe_s"]) for rep in done
        )),
        "exact": [
            dict({key: rep["stats"][key] for key in (
                "units_total", "units_executed", "units_coalesced",
                "units_store_hits", "units_failed")},
                requests_digest=_digest_all(rep["request_digests"]))
            for rep in done
        ],
        "repetitions": [_rep_record(rep) for rep in done],
    }
    if args.trace and done:
        replay = spawn("replay", options, deadline)
        if "error" in replay:
            raise BenchError(f"service replay failed: {replay['error']}")
        stats = done[0]["stats"]
        # The replay and the mixes ran at different moments, so both
        # are compared at the reference speed.
        wall = median(at_reference_speed(rep["wall_s"], rep["probe_s"])
                      for rep in done)
        busy = {stage: at_reference_speed(seconds, replay["probe_s"])
                for stage, seconds in replay["busy"].items()}
        spans = replay["spans"]
        layers = {
            "setup.import_s": median(rep["import_s"] for rep in done),
            "setup.inputs_s": median(rep["inputs_s"] for rep in done),
            "service.dedup_ratio": stats["dedup_rate"],
            "perf.pool_utilization":
                sum(busy.values()) / (wall * done[0]["workers"]),
            "trace.span_coverage": sum(
                span["end"] - span["start"] for span in spans[1:]
            ) / replay["wall_s"],
        }
        for stage in SERVICE_STAGES:
            layers[f"service.busy.{stage}_s"] = busy.get(stage, 0.0)
        for key in ("units_total", "units_executed", "units_coalesced",
                    "units_store_hits", "units_failed"):
            layers[f"service.{key}"] = stats[key]
        layers.update(done[0]["store"])
        result["per_layer"] = layers
        result["replay_units"] = replay["units"]
        result["spans"] = spans
    return result


# -- checks and output ---------------------------------------------------

def check_exact(args, design_seed: int, exact: list[dict]) -> list[str]:
    """Exact work counts must agree within the run and with earlier
    runs of the same code, workload and design in this checkout.

    Counts are kept per source digest: a change to the program may
    change them on purpose, and runs of parent and change alternate in
    one checkout.
    """
    problems = []
    merged: dict = {}
    for counts in exact:
        for key, value in counts.items():
            if key in merged and merged[key] != value:
                problems.append(f"{key}: {merged[key]} != {value} "
                                f"within the run")
            merged.setdefault(key, value)
    if args.inject_failure:
        return problems
    path = WORK / "counts" / (
        f"{args.workload}-{design_seed}-{args.scale}-{source_digest()}.json"
    )
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        for key, value in merged.items():
            if key in earlier and earlier[key] != value:
                problems.append(f"{key}: {earlier[key]} in an earlier run,"
                                f" {value} now")
        merged = {**merged, **earlier}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(merged, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float,
                        help="override the workload's scale (self-test)")
    parser.add_argument("--inject-failure", action="store_true",
                        help="add one request that must fail (self-test)")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = WORKLOADS[args.workload]
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"flowbench: no program source under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    pool = DESIGN_SEEDS[args.workload]
    design_seed = pool[args.seed % len(pool)]
    try:
        # Compile bytecode first: set-up time is measured warm on disk.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                       check=True, stdout=subprocess.DEVNULL,
                       timeout=deadline - time.monotonic())
        probe_before = host_probe()
        if args.workload == "service_mix":
            result = run_service_workload(args, design_seed, deadline)
        else:
            result = run_flow_workload(args, design_seed, deadline)
        probe_after = host_probe()
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"flowbench: {exc}", file=sys.stderr)
        return 2
    if not result["samples"]:
        print(f"flowbench: every repetition failed: {result['errors']}",
              file=sys.stderr)
        return 2

    problems = check_exact(args, design_seed, result["exact"])
    if "replay_units" in result:
        executed = result["exact"][0]["units_executed"]
        if result["replay_units"] != executed:
            problems.append(f"replay ran {result['replay_units']} distinct"
                            f" units, the service executed {executed}")
    for problem in problems:
        print(f"flowbench: exact count mismatch: {problem}",
              file=sys.stderr)
    for error in result["errors"]:
        print(f"flowbench: failed repetition: {error}", file=sys.stderr)

    if args.trace:
        if "per_layer" not in result:
            print("flowbench: no traced repetition completed",
                  file=sys.stderr)
            return 2
        table = PER_LAYER
        values = {name: 0.0 for name in PER_LAYER}
        values.update(result["per_layer"])
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(result["spans"], indent=1) + "\n",
                              encoding="utf-8")
    else:
        table = END_TO_END
        values = result["end_to_end"]
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in table.items()
    }
    for name, metric in metrics.items():
        how = f"median of {result['samples']}"
        if args.trace:
            how = "traced run"
        elif name == "flow_s":
            how += " at reference speed"
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']} ({how})")
    exact = {key: value for counts in result["exact"]
             for key, value in counts.items()}
    if "replay_units" in result:
        exact["replay_units"] = result["replay_units"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "design_seed": design_seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": result["samples"],
        "repetitions": result["repetitions"],
        "probe_before_s": probe_before,
        "probe_after_s": probe_after,
        "probe_reference_s": PROBE_REFERENCE_S,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "exact": exact,
    }
    print("flowbench record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0 and not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
