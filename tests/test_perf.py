"""Tests for the repro.perf execution/instrumentation subsystem."""

import os
import time
from unittest import mock


from repro.perf import (
    PerfRegistry,
    REGISTRY,
    WORKERS_ENV,
    fanout,
    perf_report,
    reset_metrics,
    resolve_workers,
    stage_timer,
)


def _square(x):
    return x * x


def _flaky_identity(x):
    return x


class TestPerfRegistry:
    def test_timer_accumulates(self):
        registry = PerfRegistry()
        with registry.timer("stage.a") as stats:
            time.sleep(0.001)
            stats.add(items=3)
        with registry.timer("stage.a") as stats:
            stats.add(items=2)
        stage = registry.stage("stage.a")
        assert stage.calls == 2
        assert stage.seconds > 0.0
        assert stage.counters["items"] == 5

    def test_rate_and_untimed(self):
        registry = PerfRegistry()
        registry.count("stage.b", widgets=10)
        stage = registry.stage("stage.b")
        assert stage.rate("widgets") == 0.0  # no time recorded
        stage.seconds = 2.0
        assert stage.rate("widgets") == 5.0

    def test_as_dict_and_report(self):
        registry = PerfRegistry()
        with registry.timer("stage.c") as stats:
            stats.add(patterns=64)
        snapshot = registry.as_dict()
        assert snapshot["stage.c"]["calls"] == 1.0
        assert snapshot["stage.c"]["patterns"] == 64
        assert "patterns_per_s" in snapshot["stage.c"]
        assert "stage.c" in registry.report()

    def test_reset(self):
        registry = PerfRegistry()
        registry.count("stage.d", n=1)
        registry.reset()
        assert registry.as_dict() == {}

    def test_module_level_registry(self):
        reset_metrics()
        with stage_timer("stage.module") as stats:
            stats.add(n=1)
        assert "stage.module" in perf_report()
        assert REGISTRY.stage("stage.module").calls == 1
        reset_metrics()


class TestResolveWorkers:
    def test_argument_wins(self):
        assert resolve_workers(3) == 3

    def test_minimum_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-5) == 1

    def test_env_fallback(self):
        with mock.patch.dict(os.environ, {WORKERS_ENV: "7"}):
            assert resolve_workers() == 7

    def test_bad_env_ignored(self):
        with mock.patch.dict(os.environ, {WORKERS_ENV: "lots"}):
            assert resolve_workers() >= 1

    def test_default_is_cpu_count(self):
        with mock.patch.dict(os.environ, {WORKERS_ENV: ""}):
            assert resolve_workers() == max(1, os.cpu_count() or 1)


class TestFanout:
    def test_serial_matches_map(self):
        tasks = list(range(20))
        assert fanout(_square, tasks, workers=1, stage="test.fanout") == \
            [x * x for x in tasks]

    def test_parallel_matches_serial(self):
        tasks = list(range(20))
        serial = fanout(_square, tasks, workers=1, stage="test.fanout")
        parallel = fanout(_square, tasks, workers=3, stage="test.fanout")
        assert parallel == serial

    def test_empty_tasks(self):
        assert fanout(_square, [], workers=4, stage="test.fanout") == []

    def test_unpicklable_falls_back_to_serial(self):
        # A lambda cannot cross a process boundary; fanout must still
        # return the right answer.
        tasks = list(range(8))
        result = fanout(lambda x: x + 1, tasks, workers=2,
                        stage="test.fanout")
        assert result == [x + 1 for x in tasks]

    def test_stage_timing_recorded(self):
        reset_metrics()
        fanout(_square, [1, 2, 3], workers=1, stage="test.fanout")
        stage = REGISTRY.stage("test.fanout")
        assert stage.calls == 1
        assert stage.counters["tasks"] == 3
        reset_metrics()
