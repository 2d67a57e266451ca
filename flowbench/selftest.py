"""Self-test of the flowbench harness.

    python3 flowbench/selftest.py

Runs every workload, timed and traced, at a tiny scale with a one-second
window, and checks that:

* the metric tables in ``run.py`` match ``BENCHMARK.json``;
* each run exits 0 with a correct result line and no failed operation;
* every metric prints by name with its unit, in the result object and in
  the human-readable lines;
* a deliberately failing service request is counted as failed;
* without the program next to it the benchmark exits non-zero and
  prints no result.

Exits non-zero at the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

#: Small enough that the whole self-test takes a few minutes.
TINY_SCALE = {"flow_cold": 0.005, "flow_warm": 0.005, "service_mix": 0.002}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def invoke(root: Path, *options: str) -> tuple[int, list[str], str]:
    proc = subprocess.run(
        [sys.executable, str(root / "flowbench" / "run.py"), *options],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def run_tiny(workload: str, trace: int, *extra: str) -> tuple[dict, list]:
    code, out, err = invoke(
        ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", str(trace), "--scale", str(TINY_SCALE[workload]), *extra,
    )
    check(code == 0 and bool(out),
          f"{workload} trace={trace} exited {code}: {err.strip()}")
    result = json.loads(out[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    return result, out


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS),
          "BENCHMARK.json workloads differ from run.py")
    for key, table in (("end_to_end", bench.END_TO_END),
                       ("per_layer", bench.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        check(listed == table, f"BENCHMARK.json {key} differs from run.py")


def check_workloads() -> None:
    for workload in bench.WORKLOADS:
        for trace, table in ((0, bench.END_TO_END), (1, bench.PER_LAYER)):
            result, out = run_tiny(workload, trace)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{workload} trace={trace}: {out[-1]}")
            check(set(result["metrics"]) == set(table),
                  f"{workload} trace={trace}: wrong metric set")
            for name, unit in table.items():
                check(result["metrics"][name]["unit"] == unit,
                      f"{workload}: {name} unit")
                check(any(line.startswith(f"{workload} {name} = ")
                          and f" {unit} (" in line
                          for line in out),
                      f"{workload}: {name} not printed with its unit")
            print(f"ok  {workload} --trace {trace}: "
                  f"{result['attempted']} attempted")


def check_failure_counted() -> None:
    result, out = run_tiny("service_mix", 0, "--inject-failure")
    check(result["failed"] >= 1 and not result["correct"],
          f"a failing request was not counted: {out[-1]}")
    print(f"ok  failing request counted: {result['failed']} failed of "
          f"{result['attempted']}")


def check_bare_directory() -> None:
    bare = ROOT / ".flowbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "flowbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "flowbench")
        code, out, _ = invoke(bare, "--workload", "flow_cold", "--seed",
                              "0", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and not any(line.startswith("{") for line in out),
          f"bare directory: exit {code}, output {out}")
    print(f"ok  without the program: exit {code}, no result")


def main() -> int:
    check_spec()
    check_bare_directory()
    check_failure_counted()
    check_workloads()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
