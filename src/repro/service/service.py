"""The asyncio flow orchestrator: many tenants, one work pool.

:class:`DesignService` accepts a multi-tenant stream of
:class:`~repro.service.request.FlowRequest` objects, decomposes each
into the per-block stage DAG of :mod:`repro.service.stages`, and
schedules ready work units onto :mod:`repro.perf` process-pool
workers behind a bounded queue.  The scheduling policy is fairness
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
* **coalesced** -- the same key is in flight right now; the request
  awaits the shared future instead of scheduling a duplicate;
* **computed** -- the unit is scheduled, executed, round-tripped
  through canonical JSON and published to the store for everyone
  after.

Determinism contract (the repo-wide rule): every per-request
:class:`FlowReport` is canonical JSON and byte-identical for any
worker count, submission order and queue depth, because unit payloads
are pure functions of their content key and reports aggregate them in
sorted order.  Failures stay structured: a failing stage becomes a
per-request error record and skips that request's dependents; it is
never stored, never raised into unrelated requests.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Callable, Iterable

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
class _Unit:
    """One schedulable work unit awaiting dispatch."""

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
    future: "asyncio.Future[tuple[bool, dict[str, Any]]]" = field(
        repr=False,
    )


class DesignService:
    """Sharded, deduplicating flow orchestrator.

    ``workers=1`` executes every unit inline in submission order --
    the serial reference the parallel paths must reproduce
    byte-for-byte.  ``workers>1`` dispatches onto a process pool; if
    the pool cannot be used (restricted environment) execution
    degrades to inline with identical results.  ``queue_depth``
    bounds how many units may be in flight at once (default
    ``2 * workers``).
    """

    def __init__(
        self,
        *,
        workers: int | None = 1,
        queue_depth: int | None = None,
        store: ArtifactStore | None = None,
        on_event: Callable[[Event], None] | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.queue_depth = max(1, int(queue_depth)) if queue_depth \
            else max(1, 2 * self.workers)
        self.store = store if store is not None else get_default_store()
        self.on_event = on_event
        self.stats = ServiceStats()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._tick: asyncio.Event | None = None
        self._dispatcher: "asyncio.Task[None] | None" = None
        self._inflight: dict[
            str, "asyncio.Future[tuple[bool, dict[str, Any]]]"
        ] = {}
        self._ready: list[_Unit] = []
        self._running = 0
        self._active_requests = 0
        self._tenant_cost: dict[str, float] = {}
        self._seq = itertools.count()
        self._event_seq = itertools.count()
        self._subscribers: list["asyncio.Queue[Event | None]"] = []
        self._pool: ProcessPoolExecutor | None = None
        self._pool_broken = False

    # -- public API ----------------------------------------------------

    async def submit(
        self, request: FlowRequest,
    ) -> "asyncio.Task[FlowReport]":
        """Enqueue one request; returns the task resolving to its
        :class:`FlowReport` (it never raises for stage failures)."""
        self._bind_loop()
        return asyncio.get_running_loop().create_task(
            self._run_request(request)
        )

    async def gather(
        self, requests: Iterable[FlowRequest],
    ) -> list[FlowReport]:
        """Submit every request and await all reports, in order."""
        tasks = [await self.submit(request) for request in requests]
        return list(await asyncio.gather(*tasks))

    def run(self, requests: Iterable[FlowRequest]) -> list[FlowReport]:
        """Synchronous convenience wrapper around :meth:`gather`."""
        return asyncio.run(self.gather(list(requests)))

    async def stream_events(self) -> AsyncIterator[Event]:
        """Progress events until the service next goes idle.

        Yields ``request_submitted``, ``unit_start``, ``stage_done``,
        ``stage_skipped``, ``request_done`` and finally ``idle``
        events.  Event *content* mirrors deterministic state but event
        *order* follows real scheduling -- consume for progress, never
        for results.
        """
        queue: "asyncio.Queue[Event | None]" = asyncio.Queue()
        self._subscribers.append(queue)
        try:
            while True:
                event = await queue.get()
                if event is None:
                    return
                yield event
                if event.get("type") == "idle":
                    return
        finally:
            self._subscribers.remove(queue)

    def close(self) -> None:
        """Shut down the worker pool and wake event subscribers."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for queue in list(self._subscribers):
            queue.put_nowait(None)

    def __enter__(self) -> "DesignService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request orchestration ----------------------------------------

    async def _run_request(self, request: FlowRequest) -> FlowReport:
        request_id = request.request_id
        self.stats.requests += 1
        self._active_requests += 1
        self._emit({"type": "request_submitted", "request": request_id,
                    "tenant": request.tenant, "design": request.design})
        try:
            stages = stage_closure(request.stages)
            blocks = sorted(request.blocks, key=lambda b: b.name)
            outcomes = await asyncio.gather(*[
                self._block_flow(request, stages, block)
                for block in blocks
            ])
            block_payloads: dict[str, Any] = {}
            errors: list[dict[str, Any]] = []
            for name, payload, block_errors in outcomes:
                block_payloads[name] = payload
                errors.extend(block_errors)
            errors.sort(key=canonical_json)
            body = dict(request.to_dict())
            body["request_id"] = request_id
            body["stages"] = list(stages)
            body["blocks"] = block_payloads
            body["errors"] = errors
            body["ok"] = not errors
            report = FlowReport(
                request_id=request_id, tenant=request.tenant,
                design=request.design,
                body=json.loads(canonical_json(body)),
            )
            self._emit({"type": "request_done", "request": request_id,
                        "tenant": request.tenant, "ok": report.ok,
                        "errors": len(errors)})
            return report
        finally:
            self._active_requests -= 1
            if self._active_requests == 0:
                self._emit({"type": "idle"})

    async def _block_flow(
        self,
        request: FlowRequest,
        stages: tuple[str, ...],
        block: BlockSpec,
    ) -> tuple[str, dict[str, Any], list[dict[str, Any]]]:
        out: dict[str, Any] = {}
        errors: list[dict[str, Any]] = []
        request_id = request.request_id

        def record_error(stage: str, error: dict[str, Any],
                         corner: str | None = None) -> None:
            entry: dict[str, Any] = {
                "stage": stage, "block": block.name,
                "type": error["type"], "message": error["message"],
            }
            if corner is not None:
                entry["corner"] = corner
            errors.append(entry)

        def mark_skipped(stage: str, reason: str) -> None:
            out[stage] = {"skipped": reason}
            skipped = len(request.corners) if stage == "sta" else 1
            self.stats.units_skipped += skipped
            self._emit({"type": "stage_skipped", "request": request_id,
                        "tenant": request.tenant, "stage": stage,
                        "block": block.name, "reason": reason})

        ok, payload = await self._obtain(
            request, "assemble", block,
            unit_fingerprints("assemble", block, None),
            unit_config("assemble", request),
        )
        if not ok:
            out["assemble"] = {"error": payload}
            record_error("assemble", payload)
            for stage in stages:
                if stage != "assemble":
                    mark_skipped(stage, "dep_failed:assemble")
            return block.name, out, errors
        out["assemble"] = payload
        fingerprint = str(payload["fingerprint"])

        gate_tasks: dict[str, "asyncio.Task[bool]"] = {}

        async def run_stage(stage: str) -> bool:
            for dep in STAGE_DEFS[stage].deps:
                if dep == "assemble":
                    continue
                if not await gate_tasks[dep]:
                    mark_skipped(stage, f"dep_failed:{dep}")
                    return False
            config = unit_config(stage, request)
            stage_ok, stage_payload = await self._obtain(
                request, stage, block,
                unit_fingerprints(stage, block, fingerprint), config,
            )
            if stage_ok:
                out[stage] = stage_payload
            else:
                out[stage] = {"error": stage_payload}
                record_error(stage, stage_payload)
            return stage_ok

        sta_out: dict[str, Any] = {}

        async def run_sta(corner: str) -> None:
            config = unit_config("sta", request, corner)
            sta_ok, sta_payload = await self._obtain(
                request, "sta", block,
                unit_fingerprints("sta", block, fingerprint), config,
                corner=corner,
            )
            if sta_ok:
                sta_out[corner] = sta_payload
            else:
                sta_out[corner] = {"error": sta_payload}
                record_error("sta", sta_payload, corner)

        loop = asyncio.get_running_loop()
        for stage in stages:
            if stage in ("assemble", "sta"):
                continue
            gate_tasks[stage] = loop.create_task(run_stage(stage))
        sta_tasks = [
            loop.create_task(run_sta(corner))
            for corner in request.corners
        ] if "sta" in stages else []
        await asyncio.gather(*gate_tasks.values(), *sta_tasks)
        if "sta" in stages:
            out["sta"] = {corner: sta_out[corner]
                          for corner in sorted(sta_out)}
        return block.name, out, errors

    # -- unit resolution: store hit / coalesce / compute ---------------

    async def _obtain(
        self,
        request: FlowRequest,
        stage: str,
        block: BlockSpec,
        fingerprints: tuple[str, ...],
        config: dict[str, Any],
        corner: str | None = None,
    ) -> tuple[bool, dict[str, Any]]:
        self.stats.units_total += 1
        domain = f"service.{stage}"
        cached = self.store.get(domain, STAGE_VERSION, fingerprints,
                                config)
        if cached is not None:
            self.stats.units_store_hits += 1
            self._emit_done(request, stage, block.name, corner,
                            source="store", ok=True)
            return True, cached
        key = content_key(domain, STAGE_VERSION, fingerprints, config)
        existing = self._inflight.get(key)
        if existing is not None:
            self.stats.units_coalesced += 1
            ok, payload = await existing
            self._emit_done(request, stage, block.name, corner,
                            source="coalesced", ok=ok)
            return ok, payload
        future: "asyncio.Future[tuple[bool, dict[str, Any]]]" = \
            asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        unit = _Unit(
            key=key, stage=stage, block=block.name, corner=corner,
            tenant=request.tenant, cost=estimated_cost(stage, block),
            seq=next(self._seq),
            spec=make_unit_spec(stage, block, config),
            domain=domain, fingerprints=fingerprints, config=config,
            future=future,
        )
        self._ready.append(unit)
        self._kick()
        ok, payload = await future
        self._emit_done(request, stage, block.name, corner,
                        source="computed", ok=ok)
        return ok, payload

    # -- the dispatcher: bounded queue, fairness, LPT ------------------

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

    def _kick(self) -> None:
        if self._dispatcher is None or self._dispatcher.done():
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )
        assert self._tick is not None
        self._tick.set()

    async def _dispatch_loop(self) -> None:
        tick = self._tick
        assert tick is not None
        while True:
            while self._ready and self._running < self.queue_depth:
                unit = self._pick_next()
                self._running += 1
                asyncio.get_running_loop().create_task(
                    self._run_unit(unit)
                )
            tick.clear()
            if self._ready and self._running < self.queue_depth:
                continue
            if not self._ready and self._running == 0:
                return
            await tick.wait()

    async def _run_unit(self, unit: _Unit) -> None:
        self._emit({"type": "unit_start", "stage": unit.stage,
                    "block": unit.block, "corner": unit.corner,
                    "tenant": unit.tenant})
        ok, payload = await self._execute(unit.spec)
        self.stats.units_executed += 1
        if ok:
            # Round-trip through canonical JSON so computed and
            # store-hit consumers see identical value types.
            payload = json.loads(canonical_json(payload))
            self.store.put(unit.domain, STAGE_VERSION,
                           unit.fingerprints, payload, unit.config)
        else:
            self.stats.units_failed += 1
        self._inflight.pop(unit.key, None)
        self._running -= 1
        unit.future.set_result((ok, payload))
        assert self._tick is not None
        self._tick.set()

    async def _execute(
        self, spec: dict[str, Any],
    ) -> tuple[bool, dict[str, Any]]:
        if self.workers > 1 and not self._pool_broken:
            pool = self._ensure_pool()
            if pool is not None:
                try:
                    return await asyncio.get_running_loop() \
                        .run_in_executor(pool, execute_unit_guarded,
                                         spec)
                except POOL_ERRORS:
                    # Restricted environment or unpicklable work: the
                    # units are pure functions of their spec, so
                    # inline execution yields identical results.
                    self._pool_broken = True
        return execute_unit_guarded(spec)

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._pool is None and not self._pool_broken:
            # Workers fork from this process on the first submit.  A
            # full collection that is due here would otherwise run in
            # every worker over the inherited heap, copying its pages.
            gc.collect()
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers
                )
            except POOL_ERRORS:
                self._pool_broken = True
        return self._pool

    # -- events --------------------------------------------------------

    def _bind_loop(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is loop:
            return
        if self._active_requests or self._running or self._ready \
                or self._inflight:
            raise RuntimeError(
                "DesignService cannot move to a new event loop while "
                "requests are in flight"
            )
        self._loop = loop
        self._tick = asyncio.Event()
        self._dispatcher = None

    def _emit_done(
        self, request: FlowRequest, stage: str, block: str,
        corner: str | None, *, source: str, ok: bool,
    ) -> None:
        self._emit({"type": "stage_done",
                    "request": request.request_id,
                    "tenant": request.tenant, "stage": stage,
                    "block": block, "corner": corner,
                    "source": source, "ok": ok})

    def _emit(self, event: Event) -> None:
        if self.on_event is None and not self._subscribers:
            return
        event = dict(event)
        event["seq"] = next(self._event_seq)
        if self.on_event is not None:
            self.on_event(event)
        for queue in self._subscribers:
            queue.put_nowait(event)
