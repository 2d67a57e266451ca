"""The flow service: requests, stage units, dedup, errors, events.

Covers the request/stage value layer (content-hashed request ids,
dependency-closed stage sets, unit configs that carry only
result-changing knobs), the asyncio orchestrator (submit/gather,
store-hit/coalesce/compute paths, per-tenant fairness bookkeeping,
progress events), structured per-request failure isolation, and the
labelled :class:`repro.perf.FanoutTaskError` satellite.
"""

import asyncio
import dataclasses
import pickle

import pytest

from repro.perf import FanoutTaskError, fanout
from repro.service import (
    DEFAULT_STAGES,
    BlockSpec,
    DesignService,
    FlowRequest,
    estimated_cost,
    execute_unit_guarded,
    make_unit_spec,
    stage_closure,
    synthetic_tenant_mix,
    unit_config,
    unit_fingerprints,
    variant_blocks,
)
from repro.store import ArtifactStore


def tiny_request(tenant="acme", stages=DEFAULT_STAGES, corners=("tt",),
                 seed=0):
    return FlowRequest(
        tenant=tenant, design="mini",
        blocks=(BlockSpec("alpha", 60, seed=1),
                BlockSpec("beta", 80, seed=2)),
        stages=stages, corners=corners, seed=seed,
        bmc_depth=2, dft_patterns=64,
    )


class TestRequests:
    def test_request_id_is_content_hash(self):
        a, b = tiny_request(), tiny_request()
        assert a.request_id == b.request_id
        assert a.request_id != tiny_request(seed=1).request_id
        # Tenant is part of the ask, so it changes the id -- but not
        # any unit content key (dedup crosses tenants).
        assert a.request_id != tiny_request(tenant="zen").request_id

    def test_request_id_computed_once_per_request(self):
        """The id is cached on the frozen request; a changed copy and a
        pickled one still carry their own content hash."""
        request = tiny_request()
        first = request.request_id
        assert request.request_id is first
        changed = dataclasses.replace(request, seed=1)
        assert changed.request_id == tiny_request(seed=1).request_id != first
        assert pickle.loads(pickle.dumps(request)).request_id == first

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one block"):
            FlowRequest(tenant="t", design="d", blocks=())
        with pytest.raises(ValueError, match="duplicate block"):
            FlowRequest(tenant="t", design="d",
                        blocks=(BlockSpec("a", 60), BlockSpec("a", 70)))
        with pytest.raises(ValueError, match="unknown stages"):
            FlowRequest(tenant="t", design="d",
                        blocks=(BlockSpec("a", 60),),
                        stages=("assemble", "route"))
        with pytest.raises(ValueError, match="no corners"):
            FlowRequest(tenant="t", design="d",
                        blocks=(BlockSpec("a", 60),),
                        stages=("assemble", "sta"), corners=())

    def test_variant_blocks_share_recipes_across_variants(self):
        base = {b.name: b for b in variant_blocks("dsc_base")}
        full = {b.name: b for b in variant_blocks("dsc_full")}
        shared = set(base) & set(full)
        assert shared
        for name in shared:
            assert base[name] == full[name]
            assert (base[name].recipe_fingerprint
                    == full[name].recipe_fingerprint)

    def test_synthetic_mix_is_deterministic(self):
        a = synthetic_tenant_mix(tenants=2, requests_per_tenant=2)
        b = synthetic_tenant_mix(tenants=2, requests_per_tenant=2)
        assert [r.request_id for r in a] == [r.request_id for r in b]


class TestStageUnits:
    def test_stage_closure_adds_deps_in_flow_order(self):
        assert stage_closure(["dft"]) == \
            ("assemble", "lint_gate", "dft")
        assert stage_closure(["verify_props", "sta"]) == \
            ("assemble", "analyze", "verify_props", "sta")
        with pytest.raises(ValueError, match="unknown stage"):
            stage_closure(["route"])

    def test_unit_config_carries_only_result_knobs(self):
        request = tiny_request()
        assert unit_config("assemble", request) == {}
        assert unit_config("lint_gate", request) == {}
        assert unit_config("verify_props", request) == \
            {"depth": 2, "seed": 0}
        assert unit_config("sta", request, "ss") == \
            {"corner": "ss", "clock_period_ps": 7500.0}
        with pytest.raises(ValueError, match="per corner"):
            unit_config("sta", request)

    def test_unit_fingerprints(self):
        block = BlockSpec("alpha", 60, seed=1)
        assert unit_fingerprints("assemble", block, None) == \
            (block.recipe_fingerprint,)
        assert unit_fingerprints("dft", block, "fp") == ("fp",)
        with pytest.raises(ValueError, match="module fingerprint"):
            unit_fingerprints("dft", block, None)

    def test_execute_unit_guarded_failure_is_structured(self):
        spec = make_unit_spec("sta", BlockSpec("a", 60),
                              {"corner": "nosuch",
                               "clock_period_ps": 7500.0})
        ok, error = execute_unit_guarded(spec)
        assert not ok
        assert error["type"] == "KeyError"
        assert "nosuch" in error["message"]

    def test_estimated_cost_scales_with_budget(self):
        small = estimated_cost("dft", BlockSpec("a", 60))
        large = estimated_cost("dft", BlockSpec("a", 600))
        assert large == pytest.approx(10 * small)


class TestService:
    def test_reports_and_dedup(self):
        request_a = tiny_request(tenant="acme")
        request_b = tiny_request(tenant="zen")  # same work, other tenant
        service = DesignService(workers=1, store=ArtifactStore())
        reports = service.run([request_a, request_b])
        assert [r.request_id for r in reports] == \
            [request_a.request_id, request_b.request_id]
        assert all(r.ok for r in reports)
        # Identical work coalesces: request_b adds zero executions.
        stats = service.stats
        assert stats.units_executed * 2 == stats.units_total
        assert stats.units_coalesced == stats.units_executed
        assert 0.0 < stats.dedup_rate <= 1.0
        # Bodies differ only in the request envelope, not the payloads.
        assert reports[0].body["blocks"] == reports[1].body["blocks"]

    def test_warm_rerun_hits_store_everywhere(self):
        store = ArtifactStore()
        request = tiny_request()
        DesignService(workers=1, store=store).run([request])
        warm = DesignService(workers=1, store=store)
        reports = warm.run([request])
        assert reports[0].ok
        assert warm.stats.units_store_hits == warm.stats.units_total
        assert warm.stats.units_executed == 0

    def test_submit_gather_inside_event_loop(self):
        service = DesignService(workers=1, store=ArtifactStore())

        async def drive():
            task = await service.submit(tiny_request(
                stages=("assemble", "lint_gate")))
            return await task

        report = asyncio.run(drive())
        assert report.ok
        assert report.body["stages"] == ("assemble", "lint_gate") \
            or list(report.body["stages"]) == ["assemble", "lint_gate"]

    def test_events_stream_progress(self):
        events = []
        service = DesignService(workers=1, store=ArtifactStore(),
                                on_event=events.append)
        service.run([tiny_request(stages=("assemble", "analyze"))])
        kinds = [event["type"] for event in events]
        assert kinds[0] == "request_submitted"
        assert kinds[-2] == "request_done"
        assert kinds[-1] == "idle"
        done = [e for e in events if e["type"] == "stage_done"]
        assert {e["source"] for e in done} == {"computed"}
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_stream_events_async_iterator(self):
        service = DesignService(workers=1, store=ArtifactStore())

        async def drive():
            task = await service.submit(
                tiny_request(stages=("assemble",)))
            seen = []
            async for event in service.stream_events():
                seen.append(event["type"])
            await task
            return seen

        kinds = asyncio.run(drive())
        assert kinds[-1] == "idle"
        assert "request_done" in kinds

    def test_bad_stage_fails_request_not_batch(self):
        # clock_period_ps <= 0 makes TimingConstraints raise inside
        # the sta unit; the request reports a structured error while
        # its batch-mates complete untouched.
        bad = FlowRequest(
            tenant="acme", design="broken",
            blocks=(BlockSpec("alpha", 60, seed=1),),
            stages=("assemble", "sta"), corners=("tt", "ss"),
            clock_period_ps=-1.0,
        )
        good = tiny_request(stages=("assemble", "lint_gate"))
        service = DesignService(workers=1, store=ArtifactStore())
        reports = {r.request_id: r
                   for r in service.run([bad, good])}
        assert reports[good.request_id].ok
        failed = reports[bad.request_id]
        assert not failed.ok
        assert len(failed.errors) == 2  # one per corner
        for error in failed.errors:
            assert error["stage"] == "sta"
            assert error["block"] == "alpha"
            assert error["corner"] in ("tt", "ss")
            assert error["type"] == "ValueError"
        assert service.stats.units_failed > 0
        # Failures are never stored: a rerun re-attempts them.
        rerun = DesignService(workers=1, store=service.store)
        rerun.run([bad])
        assert rerun.stats.units_failed > 0

    def test_failed_dep_skips_downstream(self, monkeypatch):
        import dataclasses

        import repro.service.stages as stages_mod

        def boom(module, config):
            raise RuntimeError("lint exploded")

        monkeypatch.setitem(
            stages_mod.STAGE_DEFS, "lint_gate",
            dataclasses.replace(stages_mod.STAGE_DEFS["lint_gate"],
                                body=boom),
        )
        request = tiny_request(stages=("assemble", "lint_gate", "dft"))
        service = DesignService(workers=1, store=ArtifactStore())
        report = service.run([request])[0]
        assert not report.ok
        for block in report.body["blocks"].values():
            assert block["lint_gate"]["error"]["type"] == "RuntimeError"
            assert block["dft"] == {"skipped": "dep_failed:lint_gate"}
        assert service.stats.units_skipped == 2
        assert all(error["stage"] == "lint_gate"
                   for error in report.errors)

    def test_pool_run_matches_serial(self):
        mix = [tiny_request(tenant="a"),
               tiny_request(tenant="b", seed=1)]
        serial = DesignService(workers=1, store=ArtifactStore())
        serial_reports = serial.run(mix)
        pooled = DesignService(workers=4, store=ArtifactStore(),
                               queue_depth=4)
        try:
            pooled_reports = pooled.run(mix)
        finally:
            pooled.close()
        assert [r.canonical_json() for r in serial_reports] == \
            [r.canonical_json() for r in pooled_reports]

    def test_pool_creation_failure_runs_every_unit_inline(
            self, monkeypatch):
        import repro.service.service as service_mod

        def no_pool(*args, **kwargs):
            raise OSError("no process pools here")

        inline_calls = []

        def counted(spec):
            inline_calls.append(spec["stage"])
            return execute_unit_guarded(spec)

        mix = [tiny_request(tenant="a"),
               tiny_request(tenant="b", seed=1)]
        serial_reports = DesignService(
            workers=1, store=ArtifactStore()).run(mix)
        monkeypatch.setattr(service_mod, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(service_mod, "execute_unit_guarded", counted)
        fallback = DesignService(workers=2, store=ArtifactStore())
        try:
            reports = fallback.run(mix)
        finally:
            fallback.close()
        assert fallback._pool is None
        assert fallback.stats.units_executed > 0
        assert len(inline_calls) == fallback.stats.units_executed
        assert [r.canonical_json() for r in reports] == \
            [r.canonical_json() for r in serial_reports]

    def test_format_report_mentions_stages_and_errors(self):
        bad = FlowRequest(
            tenant="acme", design="broken",
            blocks=(BlockSpec("alpha", 60, seed=1),),
            stages=("assemble", "sta"), clock_period_ps=-1.0,
        )
        service = DesignService(workers=1, store=ArtifactStore())
        text = service.run([bad])[0].format_report()
        assert "FAILED" in text
        assert "ERROR sta/alpha/tt" in text


class TestFanoutLabels:
    def test_serial_failure_carries_label_and_stage(self):
        def worker(task):
            if task == 2:
                raise ValueError("bad task")
            return task

        with pytest.raises(FanoutTaskError) as info:
            fanout(worker, [1, 2, 3], workers=1, stage="lint")
        assert info.value.label == "lint[1]"
        assert info.value.stage == "lint"
        assert isinstance(info.value.__cause__, ValueError)

    def test_default_labels_index_tasks(self):
        def worker(task):
            raise RuntimeError("boom")

        with pytest.raises(FanoutTaskError) as info:
            fanout(worker, ["only"], workers=1, stage="analyze")
        assert info.value.label == "analyze[0]"

    def test_pool_failure_carries_label(self):
        with pytest.raises(FanoutTaskError) as info:
            fanout(_failing_worker, [0, 1, 2], workers=2, stage="dft")
        assert info.value.label == "dft[1]"
        assert info.value.stage == "dft"

    def test_success_path_unchanged(self):
        assert fanout(lambda t: t * 2, [1, 2, 3], workers=1,
                      stage="double") == [2, 4, 6]


def _failing_worker(task):
    """Module-level (picklable) worker that fails on task == 1."""
    if task == 1:
        raise ValueError("pool boom")
    return task
