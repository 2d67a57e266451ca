"""The flow orchestrator: many tenants, one work pool.

:class:`DesignService` takes a multi-tenant batch of
:class:`~repro.service.request.FlowRequest` objects, decomposes each
into the per-block stage DAG of :mod:`repro.service.stages`, and runs
ready work units on :mod:`repro.perf` process-pool workers, at most
two per worker in flight.  One synchronous loop drives the batch: it
starts ready units, waits for the first to finish, and advances every
block that was waiting on it.  The scheduling policy is fairness
first, LPT second: among tenants the one with the least scheduled
cost goes next, and within a tenant the largest ready unit goes first
(longest-processing-time binning keeps the pool's bins level).

Cross-request deduplication is the throughput lever: a unit's content
key is ``(stage, input fingerprints, config)``, so identical work
from any tenant resolves to one computation.  Three outcomes exist
for a requested unit:

* **store hit** -- the configured :class:`~repro.store.ArtifactStore`
  already holds the payload (a warm rerun, or another request already
  finished it);
* **coalesced** -- the same key is ready or running right now; the
  block waits on that unit instead of scheduling a duplicate;
* **computed** -- the unit is scheduled, executed, round-tripped
  through canonical JSON and published to the store for everyone
  after.

Determinism contract (the repo-wide rule): every per-request
:class:`FlowReport` is canonical JSON and byte-identical for any
worker count and submission order, because unit payloads are pure
functions of their content key and reports aggregate them in sorted
order.  Failures stay structured: a failing stage becomes a
per-request error record and skips that request's dependents; it is
never stored, never raised into unrelated requests.
"""

from __future__ import annotations

import gc
import itertools
import json
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..perf import resolve_workers
from ..perf.executor import POOL_ERRORS
from ..store import ArtifactStore, canonical_json, content_key, \
    get_default_store
from .request import BlockSpec, FlowRequest
from .stages import (
    STAGE_DEFS,
    STAGE_VERSION,
    estimated_cost,
    execute_unit_guarded,
    make_unit_spec,
    stage_closure,
    unit_config,
    unit_fingerprints,
)

Event = dict[str, Any]


@dataclass
class ServiceStats:
    """Operational tallies; observability only, never in reports."""

    requests: int = 0
    units_total: int = 0
    units_executed: int = 0
    units_coalesced: int = 0
    units_store_hits: int = 0
    units_failed: int = 0
    units_skipped: int = 0

    @property
    def dedup_rate(self) -> float:
        """Fraction of requested units served without recomputation."""
        if not self.units_total:
            return 0.0
        return (self.units_coalesced + self.units_store_hits) \
            / self.units_total

    def as_dict(self) -> dict[str, float]:
        return {
            "requests": float(self.requests),
            "units_total": float(self.units_total),
            "units_executed": float(self.units_executed),
            "units_coalesced": float(self.units_coalesced),
            "units_store_hits": float(self.units_store_hits),
            "units_failed": float(self.units_failed),
            "units_skipped": float(self.units_skipped),
            "dedup_rate": self.dedup_rate,
        }


@dataclass(frozen=True)
class FlowReport:
    """Canonical per-request outcome.

    ``body`` is a plain canonical-JSON-able dict; request identity,
    configuration, per-block stage payloads and structured errors all
    live inside it, so :meth:`canonical_json` is the *complete*
    deterministic record of the request.
    """

    request_id: str
    tenant: str
    design: str
    body: dict[str, Any]

    @property
    def ok(self) -> bool:
        return bool(self.body.get("ok", False))

    @property
    def errors(self) -> list[dict[str, Any]]:
        return list(self.body.get("errors", []))

    def to_dict(self) -> dict[str, Any]:
        return self.body

    def canonical_json(self) -> str:
        return canonical_json(self.body)

    def format_report(self) -> str:
        lines = [
            f"request {self.request_id} tenant={self.tenant} "
            f"design={self.design} "
            f"{'OK' if self.ok else 'FAILED'}",
        ]
        blocks: dict[str, Any] = self.body.get("blocks", {})
        for name in sorted(blocks):
            stages = blocks[name]
            parts = []
            for stage in self.body.get("stages", []):
                payload = stages.get(stage)
                if payload is None:
                    continue
                if stage == "sta" and isinstance(payload, dict) \
                        and "skipped" not in payload \
                        and "error" not in payload:
                    worst = min(
                        (corner.get("wns_ps", 0.0)
                         for corner in payload.values()
                         if isinstance(corner, dict)
                         and "wns_ps" in corner),
                        default=None,
                    )
                    parts.append(
                        "sta" if worst is None
                        else f"sta wns={worst:.0f}ps"
                    )
                elif isinstance(payload, dict) and "error" in payload:
                    parts.append(f"{stage}:ERROR")
                elif isinstance(payload, dict) and "skipped" in payload:
                    parts.append(f"{stage}:skipped")
                else:
                    parts.append(stage)
            lines.append(f"  {name:14s} {' '.join(parts)}")
        for error in self.errors:
            corner = error.get("corner")
            where = f"{error['stage']}/{error['block']}" + (
                f"/{corner}" if corner else ""
            )
            lines.append(
                f"  ERROR {where}: {error['type']}: {error['message']}"
            )
        return "\n".join(lines)


@dataclass
class _RequestRun:
    """One request in flight: its blocks and, once they settle, its
    report."""

    request: FlowRequest
    stages: tuple[str, ...]
    blocks: list[_BlockRun] = field(default_factory=list)
    blocks_left: int = 0
    report: FlowReport | None = None


@dataclass
class _BlockRun:
    """One block of one request, advancing through its stage DAG."""

    run: _RequestRun
    spec: BlockSpec
    #: Stage -> payload, ``{"error": ...}`` or ``{"skipped": ...}``.
    out: dict[str, Any] = field(default_factory=dict)
    errors: list[dict[str, Any]] = field(default_factory=list)
    #: Settled stages -> whether they passed.
    passed: dict[str, bool] = field(default_factory=dict)
    #: The assemble payload's module fingerprint, the downstream key.
    fingerprint: str | None = None
    sta: dict[str, Any] = field(default_factory=dict)
    sta_left: int = 0


@dataclass
class _Unit:
    """One schedulable work unit and the blocks waiting on it, in
    arrival order: the first asked for it, the rest coalesced."""

    key: str
    stage: str
    block: str
    corner: str | None
    tenant: str
    cost: float
    seq: int
    spec: dict[str, Any]
    domain: str
    fingerprints: tuple[str, ...]
    config: dict[str, Any]
    waiters: list[_BlockRun] = field(default_factory=list, repr=False)


class DesignService:
    """Sharded, deduplicating flow orchestrator.

    ``workers=1`` executes every unit inline -- the serial reference
    the parallel paths must reproduce byte-for-byte.  ``workers>1``
    dispatches onto a process pool with ``2 * workers`` units in
    flight; if the pool cannot be used (restricted environment, or a
    worker died) execution degrades to inline with identical results.
    """

    def __init__(
        self,
        *,
        workers: int | None = 1,
        store: ArtifactStore | None = None,
        on_event: Callable[[Event], None] | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.store = store if store is not None else get_default_store()
        self.on_event = on_event
        self.stats = ServiceStats()
        #: Content key -> the unit computing it, while ready or running.
        self._inflight: dict[str, _Unit] = {}
        self._ready: list[_Unit] = []
        self._tenant_cost: dict[str, float] = {}
        self._seq = itertools.count()
        self._event_seq = itertools.count()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_broken = False

    # -- public API ----------------------------------------------------

    def run(self, requests: Iterable[FlowRequest]) -> list[FlowReport]:
        """Run every request to its :class:`FlowReport`, in order.

        Stage failures come back as structured errors inside the
        reports; this never raises for them.  Progress goes to
        ``on_event``: ``request_submitted``, ``unit_start``,
        ``stage_done``, ``stage_skipped``, ``request_done`` and
        finally ``idle``.  Event *content* mirrors deterministic
        state but event *order* follows real scheduling -- consume
        for progress, never for results.
        """
        try:
            runs = [self._submit(request) for request in requests]
            self._drain()
        finally:
            # An interrupted batch leaves no unit for the next to wait on.
            self._ready.clear()
            self._inflight.clear()
        self._emit({"type": "idle"})
        reports = [run.report for run in runs if run.report is not None]
        assert len(reports) == len(runs), "a request never settled"
        return reports

    def close(self) -> None:
        """Shut down the worker pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "DesignService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request orchestration ----------------------------------------

    def _submit(self, request: FlowRequest) -> _RequestRun:
        self.stats.requests += 1
        self._emit({"type": "request_submitted",
                    "request": request.request_id,
                    "tenant": request.tenant, "design": request.design})
        run = _RequestRun(request, stage_closure(request.stages))
        run.blocks = [
            _BlockRun(run, block, sta_left=len(request.corners))
            for block in sorted(request.blocks, key=lambda b: b.name)
        ]
        run.blocks_left = len(run.blocks)
        for block in run.blocks:
            self._obtain(block, "assemble")
        return run

    def _settle(self, block: _BlockRun, stage: str, corner: str | None,
                ok: bool, payload: dict[str, Any], source: str) -> None:
        """Record one unit outcome for ``block`` and advance its DAG."""
        request = block.run.request
        self._emit({"type": "stage_done",
                    "request": request.request_id,
                    "tenant": request.tenant, "stage": stage,
                    "block": block.spec.name, "corner": corner,
                    "source": source, "ok": ok})
        if not ok:
            entry: dict[str, Any] = {
                "stage": stage, "block": block.spec.name,
                "type": payload["type"], "message": payload["message"],
            }
            if corner is not None:
                entry["corner"] = corner
            block.errors.append(entry)
            payload = {"error": payload}
        if stage == "sta":
            # STA settles once every corner has.
            assert corner is not None
            block.sta[corner] = payload
            block.sta_left -= 1
            if block.sta_left:
                return
            payload = {name: block.sta[name] for name in sorted(block.sta)}
            ok = not any("error" in value for value in block.sta.values())
        block.out[stage] = payload
        self._stage_settled(block, stage, ok)

    def _stage_settled(self, block: _BlockRun, stage: str,
                       ok: bool) -> None:
        """Record that ``stage`` settled, then request or skip each
        stage whose last dep it was."""
        block.passed[stage] = ok
        stages = block.run.stages
        if stage == "assemble" and not ok:
            for other in stages:
                if other != "assemble":
                    self._skip(block, other, "dep_failed:assemble")
                    block.passed[other] = False
        elif stage == "assemble":
            block.fingerprint = str(block.out["assemble"]["fingerprint"])
        if len(block.passed) == len(stages):
            self._block_settled(block)
            return
        ready = [
            dependent for dependent in stages
            if stage in STAGE_DEFS[dependent].deps
            and all(dep in block.passed
                    for dep in STAGE_DEFS[dependent].deps)
        ]
        for dependent in ready:
            failed = [dep for dep in STAGE_DEFS[dependent].deps
                      if not block.passed[dep]]
            if failed:
                self._skip(block, dependent, f"dep_failed:{failed[0]}")
                self._stage_settled(block, dependent, False)
            elif dependent == "sta":
                for corner in block.run.request.corners:
                    self._obtain(block, "sta", corner)
            else:
                self._obtain(block, dependent)

    def _skip(self, block: _BlockRun, stage: str, reason: str) -> None:
        request = block.run.request
        block.out[stage] = {"skipped": reason}
        self.stats.units_skipped += \
            len(request.corners) if stage == "sta" else 1
        self._emit({"type": "stage_skipped",
                    "request": request.request_id,
                    "tenant": request.tenant, "stage": stage,
                    "block": block.spec.name, "reason": reason})

    def _block_settled(self, block: _BlockRun) -> None:
        run = block.run
        run.blocks_left -= 1
        if run.blocks_left:
            return
        request = run.request
        errors = sorted((error for block in run.blocks
                         for error in block.errors), key=canonical_json)
        body = dict(request.to_dict())
        body["request_id"] = request.request_id
        body["stages"] = list(run.stages)
        body["blocks"] = {block.spec.name: block.out
                          for block in run.blocks}
        body["errors"] = errors
        body["ok"] = not errors
        run.report = FlowReport(
            request_id=request.request_id, tenant=request.tenant,
            design=request.design,
            body=json.loads(canonical_json(body)),
        )
        self._emit({"type": "request_done", "request": request.request_id,
                    "tenant": request.tenant, "ok": run.report.ok,
                    "errors": len(errors)})

    # -- unit resolution: store hit / coalesce / compute ---------------

    def _obtain(self, block: _BlockRun, stage: str,
                corner: str | None = None) -> None:
        """Resolve one unit for ``block``: settle it now from the
        store, wait on the same unit in flight, or enqueue it."""
        request = block.run.request
        config = unit_config(stage, request, corner)
        fingerprints = unit_fingerprints(stage, block.spec,
                                         block.fingerprint)
        self.stats.units_total += 1
        domain = f"service.{stage}"
        cached = self.store.get(domain, STAGE_VERSION, fingerprints,
                                config)
        if cached is not None:
            self.stats.units_store_hits += 1
            self._settle(block, stage, corner, True, cached, "store")
            return
        key = content_key(domain, STAGE_VERSION, fingerprints, config)
        unit = self._inflight.get(key)
        if unit is not None:
            self.stats.units_coalesced += 1
        else:
            unit = _Unit(
                key=key, stage=stage, block=block.spec.name,
                corner=corner, tenant=request.tenant,
                cost=estimated_cost(stage, block.spec),
                seq=next(self._seq),
                spec=make_unit_spec(stage, block.spec, config),
                domain=domain, fingerprints=fingerprints, config=config,
            )
            self._inflight[key] = unit
            self._ready.append(unit)
        unit.waiters.append(block)

    def _finish(self, unit: _Unit, ok: bool,
                payload: dict[str, Any]) -> None:
        """Publish a finished unit and settle its waiters in order."""
        self.stats.units_executed += 1
        if ok:
            # Round-trip through canonical JSON so computed and
            # store-hit consumers see identical value types.
            payload = json.loads(canonical_json(payload))
            self.store.put(unit.domain, STAGE_VERSION,
                           unit.fingerprints, payload, unit.config)
        else:
            self.stats.units_failed += 1
        del self._inflight[unit.key]
        for index, block in enumerate(unit.waiters):
            self._settle(block, unit.stage, unit.corner, ok, payload,
                         "coalesced" if index else "computed")

    # -- the dispatcher: bounded in-flight set, fairness, LPT ----------

    def _pick_next(self) -> _Unit:
        """Fairness first (least-served tenant), LPT second.

        Deterministic: ties break on tenant name then arrival
        sequence, so the schedule is a pure function of the submitted
        work -- results never depend on it, but reproducible
        schedules make performance triage sane.
        """
        best = min(
            self._ready,
            key=lambda unit: (
                self._tenant_cost.get(unit.tenant, 0.0),
                unit.tenant, -unit.cost, unit.seq,
            ),
        )
        self._ready.remove(best)
        self._tenant_cost[best.tenant] = \
            self._tenant_cost.get(best.tenant, 0.0) + best.cost
        return best

    def _drain(self) -> None:
        """Run units until none is ready or running.

        Two units per worker stay in flight, one running and one
        queued behind it, so a worker never idles while the loop
        settles the unit it just finished.
        """
        running: dict[Future[tuple[bool, dict[str, Any]]], _Unit] = {}
        while self._ready or running:
            while self._ready and len(running) < 2 * self.workers:
                unit = self._pick_next()
                self._emit({"type": "unit_start", "stage": unit.stage,
                            "block": unit.block, "corner": unit.corner,
                            "tenant": unit.tenant})
                future = self._dispatch(unit)
                if future is None:
                    self._finish(unit, *execute_unit_guarded(unit.spec))
                else:
                    running[future] = unit
            if not running:
                continue
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in [future for future in running if future in done]:
                unit = running.pop(future)
                try:
                    outcome = future.result()
                except POOL_ERRORS:
                    # A worker died or the work could not be sent: the
                    # unit is a pure function of its spec, so an
                    # inline rerun yields the identical result.
                    self._pool_broken = True
                    outcome = execute_unit_guarded(unit.spec)
                self._finish(unit, *outcome)

    def _dispatch(
        self, unit: _Unit,
    ) -> Future[tuple[bool, dict[str, Any]]] | None:
        """Send ``unit`` to the pool; ``None`` means run it inline."""
        if self.workers == 1 or self._pool_broken:
            return None
        try:
            if self._pool is None:
                # Workers fork from this process on the first submit.
                # A full collection that is due here would otherwise
                # run in every worker over the inherited heap, copying
                # its pages.
                gc.collect()
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool.submit(execute_unit_guarded, unit.spec)
        except POOL_ERRORS:
            # Restricted environment: inline execution yields
            # identical results.
            self._pool_broken = True
            return None

    # -- events --------------------------------------------------------

    def _emit(self, event: Event) -> None:
        if self.on_event is None:
            return
        event = dict(event)
        event["seq"] = next(self._event_seq)
        self.on_event(event)
