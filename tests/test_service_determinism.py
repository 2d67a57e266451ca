"""The service determinism contract, attacked with randomized runs.

Hypothesis-style: a seeded RNG draws submission orders and worker
counts; every drawn configuration must produce per-request
FlowReport JSON byte-identical to the workers=1, submission-order
reference, and a canonical store dump identical entry-for-entry.
Randomized *inputs*, deterministic *oracle* -- the seeds are fixed so
a failure reproduces exactly.
"""

import random
import tempfile
from pathlib import Path

from repro.service import DesignService, synthetic_tenant_mix
from repro.store import ArtifactStore


def _mix():
    return synthetic_tenant_mix(tenants=2, requests_per_tenant=2,
                                scale=0.004, seed=0)


def _run(mix, *, workers, store=None):
    store = store if store is not None else ArtifactStore()
    service = DesignService(workers=workers, store=store)
    try:
        reports = service.run(mix)
    finally:
        service.close()
    return ({r.request_id: r.canonical_json() for r in reports},
            store)


def _canonical_dump(store: ArtifactStore) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.json"
        store.save(str(path), canonical=True)
        return path.read_bytes()


class TestRandomizedDeterminism:
    def test_orders_workers_and_depths_are_byte_identical(self):
        mix = _mix()
        reference, ref_store = _run(mix, workers=1)
        ref_dump = _canonical_dump(ref_store)
        rng = random.Random(0xD5C)
        for trial in range(6):
            order = mix[:]
            rng.shuffle(order)
            workers = rng.choice([1, 2, 4])
            got, got_store = _run(order, workers=workers)
            config = f"trial={trial} workers={workers}"
            assert got == reference, f"reports diverged: {config}"
            assert _canonical_dump(got_store) == ref_dump, \
                f"store dump diverged: {config}"

    def test_interleaved_submission_matches_batch(self):
        # Submitting one at a time (fully sequential arrival) and all
        # at once (maximum coalescing) must agree byte-for-byte.
        mix = _mix()
        reference, _ = _run(mix, workers=1)
        one_by_one = {}
        store = ArtifactStore()
        for request in reversed(mix):
            got, _ = _run([request], workers=2, store=store)
            one_by_one.update(got)
        assert one_by_one == reference

    def test_store_roundtrip_preserves_determinism(self):
        # Persisting the store and warm-running from the loaded copy
        # must reproduce the cold reports exactly.
        mix = _mix()
        reference, store = _run(mix, workers=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.json"
            store.save(str(path), canonical=True)
            loaded = ArtifactStore.load(str(path))
        warm_service = DesignService(workers=1, store=loaded)
        warm = {r.request_id: r.canonical_json()
                for r in warm_service.run(mix)}
        assert warm == reference
        assert warm_service.stats.units_executed == 0
