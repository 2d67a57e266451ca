"""The content-addressed artifact store: keys, eviction, persistence.

The store is the substrate every incremental stage rides on, so the
contract is tested directly: content addresses change with every key
part (and only with key parts), payloads round-trip canonically,
eviction is deterministic LRU, counters observe every operation, and
a persisted store reproduces in-memory behaviour exactly.
"""

import json
import os
import stat

import pytest

from repro.perf import REGISTRY
from repro.store import (
    ArtifactStore,
    StoreError,
    canonical_json,
    content_key,
    get_default_store,
    set_default_store,
    using_store,
)


class TestContentKeys:
    def test_key_is_stable(self):
        a = content_key("d", "1", ["fp"], {"x": 1})
        b = content_key("d", "1", ["fp"], {"x": 1})
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_every_part_changes_the_key(self):
        base = content_key("d", "1", ["fp"], {"x": 1})
        assert content_key("e", "1", ["fp"], {"x": 1}) != base
        assert content_key("d", "2", ["fp"], {"x": 1}) != base
        assert content_key("d", "1", ["fq"], {"x": 1}) != base
        assert content_key("d", "1", ["fp", "g"], {"x": 1}) != base
        assert content_key("d", "1", ["fp"], {"x": 2}) != base

    def test_config_dict_order_is_canonical(self):
        assert content_key("d", "1", [], {"a": 1, "b": 2}) == \
            content_key("d", "1", [], {"b": 2, "a": 1})

    def test_non_json_payload_rejected(self):
        with pytest.raises(StoreError):
            canonical_json({"bad": {1, 2}})
        with pytest.raises(StoreError):
            canonical_json(float("nan"))


class TestStoreProtocol:
    def test_miss_then_hit(self):
        store = ArtifactStore()
        assert store.get("d", "1", ["fp"]) is None
        store.put("d", "1", ["fp"], {"v": [1, 2]})
        assert store.get("d", "1", ["fp"]) == {"v": [1, 2]}

    def test_hit_returns_fresh_object(self):
        store = ArtifactStore()
        store.put("d", "1", ["fp"], {"v": [1]})
        first = store.get("d", "1", ["fp"])
        first["v"].append(99)
        assert store.get("d", "1", ["fp"]) == {"v": [1]}

    def test_version_bump_invalidates(self):
        store = ArtifactStore()
        store.put("d", "1", ["fp"], "old-result")
        assert store.get("d", "2", ["fp"]) is None
        store.put("d", "2", ["fp"], "new-result")
        # the old entry is unreachable but not destroyed
        assert store.get("d", "1", ["fp"]) == "old-result"
        assert store.get("d", "2", ["fp"]) == "new-result"

    def test_fetch_or_compute_identical_types_both_paths(self):
        store = ArtifactStore()
        cold = store.fetch_or_compute(
            "d", "1", ["fp"], lambda: {"t": (1, 2)}
        )
        warm = store.fetch_or_compute(
            "d", "1", ["fp"], lambda: {"t": (1, 2)}
        )
        # tuples decay to lists on BOTH paths (canonical round-trip)
        assert cold == warm == {"t": [1, 2]}

    def test_counters(self):
        store = ArtifactStore()
        store.get("d", "1", ["a"])
        store.put("d", "1", ["a"], 1)
        store.get("d", "1", ["a"])
        counters = store.counters()["d"]
        assert (counters.hits, counters.misses, counters.puts) == (1, 1, 1)
        assert counters.hit_rate == 0.5
        assert store.stats()["d"]["hits"] == 1.0
        assert "artifact store" in store.format_report()

    def test_perf_registry_mirroring(self):
        store = ArtifactStore()
        store.get("unit.test", "1", ["a"])
        store.put("unit.test", "1", ["a"], 1)
        store.get("unit.test", "1", ["a"])
        stats = REGISTRY.stage("store.unit.test")
        assert stats.counters["hits"] >= 1
        assert stats.counters["misses"] >= 1


class TestEviction:
    def test_lru_eviction_is_deterministic(self):
        def drive(store):
            for i in range(4):
                store.put("d", "1", [f"fp{i}"], i)
            store.get("d", "1", ["fp0"])  # refresh fp0
            store.put("d", "1", ["fp4"], 4)  # evicts fp1 (oldest)
            return [
                store.get("d", "1", [f"fp{i}"]) for i in range(5)
            ]

        a = drive(ArtifactStore(max_entries=4))
        b = drive(ArtifactStore(max_entries=4))
        assert a == b
        assert a == [0, None, 2, 3, 4]

    def test_eviction_counter(self):
        store = ArtifactStore(max_entries=2)
        for i in range(5):
            store.put("d", "1", [f"fp{i}"], i)
        assert len(store) == 2
        assert store.counters()["d"].evictions == 3

    def test_unbounded_by_default(self):
        store = ArtifactStore()
        for i in range(100):
            store.put("d", "1", [f"fp{i}"], i)
        assert len(store) == 100


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        store = ArtifactStore()
        store.put("d", "1", ["fp"], {"nested": {"v": [1, None, "x"]}})
        store.put("e", "2", ["fq"], 3.25)
        path = str(tmp_path / "store.json")
        store.save(path)
        loaded = ArtifactStore.load(path)
        assert len(loaded) == 2
        assert loaded.get("d", "1", ["fp"]) == \
            {"nested": {"v": [1, None, "x"]}}
        assert loaded.get("e", "2", ["fq"]) == 3.25

    def test_save_is_canonical(self, tmp_path):
        store = ArtifactStore()
        store.put("d", "1", ["fp"], {"b": 2, "a": 1})
        p1, p2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
        store.save(p1)
        ArtifactStore.load(p1).save(p2)
        assert open(p1).read() == open(p2).read()

    def test_save_gives_the_mode_of_a_plain_open(self, tmp_path):
        """A new store gets 0o666 less the umask, and a save over an
        existing store keeps that file's mode."""
        store = ArtifactStore()
        store.put("d", "1", ["fp"], {"v": 1})
        fresh = tmp_path / "fresh.json"
        shared = tmp_path / "shared.json"
        shared.write_text("{}")
        shared.chmod(0o664)
        previous = os.umask(0o022)
        try:
            store.save(str(fresh))
            store.save(str(shared))
        finally:
            os.umask(previous)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
        assert stat.S_IMODE(shared.stat().st_mode) == 0o664
        assert ArtifactStore.load(str(shared)).get("d", "1", ["fp"]) == \
            {"v": 1}

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StoreError):
            ArtifactStore.load(str(path))
        path.write_text(json.dumps({"schema": 999, "entries": []}))
        with pytest.raises(StoreError):
            ArtifactStore.load(str(path))
        path.write_text(json.dumps({"schema": 1}))
        with pytest.raises(StoreError):
            ArtifactStore.load(str(path))


class TestAmbientStore:
    def test_default_store_always_present(self):
        assert isinstance(get_default_store(), ArtifactStore)

    def test_using_store_scopes_and_restores(self):
        outer = get_default_store()
        scoped = ArtifactStore()
        with using_store(scoped) as active:
            assert active is scoped
            assert get_default_store() is scoped
        assert get_default_store() is outer

    def test_set_default_store_returns_previous(self):
        outer = get_default_store()
        replacement = ArtifactStore()
        previous = set_default_store(replacement)
        try:
            assert previous is outer
            assert get_default_store() is replacement
        finally:
            set_default_store(outer)
