"""Flow-as-a-service throughput benchmark.

Measures sustained flows/s of :class:`repro.service.DesignService`
over the synthetic multi-tenant DSC mix, three ways:

* **serial** -- the naive baseline: every request executed on its own
  with a private store, so total work is requests x stages with no
  cross-request sharing;
* **sharded** -- one service instance, pool workers, shared store:
  identical ``(stage, fingerprints, config)`` units coalesce onto one
  computation and fan out to every waiter (cold store, so the speedup
  *is* the dedup factor plus scheduling);
* **warm** -- the same mix rerun against the populated store: every
  unit splices from the store and no stage executes at all.

Every path must produce byte-identical per-request FlowReport JSON --
that assertion is the service's determinism contract at benchmark
scale.

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]
"""

from __future__ import annotations

import argparse
import time

from repro.service import DesignService, synthetic_tenant_mix
from repro.store import ArtifactStore


def _run_mix(mix, *, workers, store):
    service = DesignService(workers=workers, store=store)
    try:
        start = time.perf_counter()
        reports = service.run(mix)
        elapsed = time.perf_counter() - start
    finally:
        service.close()
    canon = {r.request_id: r.canonical_json() for r in reports}
    return canon, elapsed, service.stats


def bench_service(quick: bool) -> dict:
    """Multi-tenant DSC mix; naive serial vs sharded vs dedup-warm."""
    tenants = 3 if quick else 4
    per_tenant = 4 if quick else 8
    scale = 0.005 if quick else 0.008
    mix = synthetic_tenant_mix(tenants=tenants,
                               requests_per_tenant=per_tenant,
                               scale=scale, seed=0)
    flows = len(mix)
    out = {
        "mix": "synthetic DSC multi-tenant",
        "tenants": tenants,
        "requests": flows,
        "scale": scale,
    }

    # Naive serial baseline: private store per request, no sharing.
    serial_reports: dict[str, str] = {}
    serial_units = 0
    start = time.perf_counter()
    for request in mix:
        canon, _, stats = _run_mix([request], workers=1,
                                   store=ArtifactStore())
        serial_reports.update(canon)
        serial_units += int(stats.units_executed)
    serial_s = time.perf_counter() - start
    out["serial"] = {"flows_per_s": flows / serial_s,
                     "seconds": serial_s,
                     "units_executed": serial_units}

    # Sharded cold: one service, pool workers, shared (empty) store.
    store = ArtifactStore()
    sharded_reports, sharded_s, stats = _run_mix(
        mix, workers=4, store=store)
    out["sharded"] = {"flows_per_s": flows / sharded_s,
                      "seconds": sharded_s,
                      "units_requested": int(stats.units_total),
                      "units_executed": int(stats.units_executed),
                      "dedup_rate": stats.dedup_rate}

    # Warm rerun: every unit splices from the populated store.
    warm_reports, warm_s, warm_stats = _run_mix(
        mix, workers=1, store=store)
    out["warm"] = {"flows_per_s": flows / warm_s,
                   "seconds": warm_s,
                   "store_hit_rate": warm_stats.dedup_rate}

    # Determinism contract: all three paths byte-identical.
    assert serial_reports == sharded_reports, \
        "sharded reports diverged from the serial reference"
    assert serial_reports == warm_reports, \
        "warm reports diverged from the serial reference"
    assert warm_stats.units_store_hits == warm_stats.units_total, \
        "warm rerun recomputed units the store already held"

    out["speedup_sharded"] = serial_s / sharded_s
    out["speedup_warm"] = sharded_s / warm_s
    # The tentpole claim: cross-request dedup makes the sharded run
    # >= 3x the naive serial baseline on any core count, and the warm
    # rerun >= 10x the cold sharded run.  (Quick mode's smaller mix
    # has less block overlap, so its dedup factor -- and the bar --
    # is lower, same convention as the other benches.)
    assert out["speedup_sharded"] >= (2.0 if quick else 3.0), out
    assert out["speedup_warm"] >= 10.0, out
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller mix (~5s total)")
    args = parser.parse_args(argv)
    out = bench_service(args.quick)
    print(f"mix: {out['requests']} requests from {out['tenants']} "
          f"tenants (scale {out['scale']})")
    print(f"serial  {out['serial']['flows_per_s']:8.2f} flows/s "
          f"({out['serial']['units_executed']} units executed)")
    print(f"sharded {out['sharded']['flows_per_s']:8.2f} flows/s "
          f"({out['sharded']['units_executed']} executed of "
          f"{out['sharded']['units_requested']} requested, "
          f"dedup {out['sharded']['dedup_rate'] * 100:.1f}%) "
          f"-> {out['speedup_sharded']:.1f}x")
    print(f"warm    {out['warm']['flows_per_s']:8.2f} flows/s "
          f"(store hit rate "
          f"{out['warm']['store_hit_rate'] * 100:.1f}%) "
          f"-> {out['speedup_warm']:.1f}x vs cold sharded")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
