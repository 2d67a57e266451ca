"""Content-addressed artifact store for stage results.

The flow-as-a-service lever: every static stage result (per-cone
analysis transfers, per-module lint findings, per-block lint, analysis
and BMC payloads) is a pure function of *content fingerprints* -- of the
design slice it covers, of the rule/domain version, and of the
configuration it ran under.  :class:`ArtifactStore` keys canonical-JSON
payloads by the sha256 of exactly those parts, so an ECO reruns only
the cones it touched and a warm flow splices everything else from the
store, byte-for-byte identical to a cold run.

Design rules the clients rely on:

* **keys are content addresses** -- :func:`content_key` hashes the
  canonical JSON of ``(domain, version, fingerprints, config)``; a
  version bump or config change is a different address, so stale
  results are unreachable rather than "invalidated";
* **payloads are canonical JSON values** -- anything
  ``json.dumps(..., sort_keys=True)`` accepts; a payload read back
  after :meth:`~ArtifactStore.save`/:meth:`~ArtifactStore.load` is
  equal to the one stored, so persisted warm runs reproduce in-memory
  warm runs exactly;
* **eviction is deterministic** -- least-recently-used by the
  operation sequence (hits refresh recency), so two processes issuing
  the same get/put sequence hold the same entries;
* **counters are observable** -- hits/misses/puts/evictions per
  domain, mirrored onto :data:`repro.perf.REGISTRY` under
  ``store.<domain>`` so ``--perf`` breakdowns and bench JSON surface
  the hit rate of every client.

An ambient default store (:func:`get_default_store`,
:func:`using_store`) lets deep call chains -- lint rules calling
``analyze_module`` -- share one store without threading it through
every signature.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from ..perf import REGISTRY

#: Schema version of the persisted store file itself (not of any
#: client's payloads -- clients carry their own versions in the key).
STORE_SCHEMA_VERSION = 1


class StoreError(Exception):
    """Problem with the store itself (corrupt file, bad payload)."""


#: The encoder behind :func:`canonical_json`, built once: the form is
#: ``json.dumps(payload, sort_keys=True, separators=(",", ":"),
#: allow_nan=False)`` without a new encoder per call.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def canonical_json(payload: Any) -> str:
    """The one serialized form of a payload: sorted keys, no spaces.

    Raises :class:`StoreError` on values JSON cannot represent, so a
    client cannot accidentally store something that would not survive
    persistence.
    """
    try:
        return _CANONICAL.encode(payload)
    except (TypeError, ValueError) as exc:
        raise StoreError(f"payload is not canonical-JSON-able: {exc}") \
            from None


def content_key(
    domain: str,
    version: str,
    fingerprints: Sequence[str],
    config: Any = None,
) -> str:
    """Content address of one artifact.

    ``domain`` names the client family (``analysis.cone``,
    ``lint.module``, ...), ``version`` is that client's result-schema/
    algorithm version (bump it and every old entry becomes
    unreachable), ``fingerprints`` are the input content digests and
    ``config`` any JSON-able configuration that changes the result.
    """
    payload = canonical_json(
        [domain, version, list(fingerprints), config]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class DomainCounters:
    """Hit/miss/put/eviction tallies for one client domain."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "puts": float(self.puts),
            "evictions": float(self.evictions),
            "hit_rate": self.hit_rate,
        }


@dataclass
class ArtifactStore:
    """Content-addressed result cache with deterministic LRU eviction.

    ``max_entries`` bounds the store; 0 means unbounded.  Entries are
    held as canonical-JSON *strings* so a stored payload is immutable
    (callers cannot alias into the cache) and persistence is exact.
    """

    max_entries: int = 0
    _entries: OrderedDict[str, tuple[str, str]] = field(
        default_factory=OrderedDict
    )
    _counters: dict[str, DomainCounters] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self._entries)

    def _domain_counters(self, domain: str) -> DomainCounters:
        counters = self._counters.get(domain)
        if counters is None:
            counters = self._counters[domain] = DomainCounters()
        return counters

    # -- the cache protocol -------------------------------------------

    def get(
        self,
        domain: str,
        version: str,
        fingerprints: Sequence[str],
        config: Any = None,
    ) -> Any:
        """Fetch a payload, or ``None`` on miss.

        A hit refreshes the entry's recency (deterministic LRU) and
        returns a fresh object decoded from the canonical JSON, never
        a reference another caller could have mutated.
        """
        return self.get_by_key(
            domain, content_key(domain, version, fingerprints, config)
        )

    def get_by_key(self, domain: str, key: str) -> Any:
        """:meth:`get` for a key :func:`content_key` already computed.

        A client that puts on a miss hashes its key once and hands the
        same key to :meth:`put_by_key`.
        """
        counters = self._domain_counters(domain)
        entry = self._entries.get(key)
        if entry is None:
            counters.misses += 1
            REGISTRY.count(f"store.{domain}", misses=1)
            return None
        self._entries.move_to_end(key)
        counters.hits += 1
        REGISTRY.count(f"store.{domain}", hits=1)
        return json.loads(entry[1])

    def put(
        self,
        domain: str,
        version: str,
        fingerprints: Sequence[str],
        payload: Any,
        config: Any = None,
    ) -> str:
        """Store a payload under its content address; returns the key."""
        return self.put_by_key(
            domain, content_key(domain, version, fingerprints, config),
            payload,
        )

    def put_by_key(self, domain: str, key: str, payload: Any) -> str:
        """:meth:`put` under a key :func:`content_key` already computed."""
        self._entries[key] = (domain, canonical_json(payload))
        self._entries.move_to_end(key)
        counters = self._domain_counters(domain)
        counters.puts += 1
        REGISTRY.count(f"store.{domain}", puts=1)
        while self.max_entries > 0 and len(self._entries) > self.max_entries:
            _, (evicted_domain, _) = self._entries.popitem(last=False)
            self._domain_counters(evicted_domain).evictions += 1
            REGISTRY.count(f"store.{evicted_domain}", evictions=1)
        return key

    def fetch_or_compute(
        self,
        domain: str,
        version: str,
        fingerprints: Sequence[str],
        compute: Any,
        config: Any = None,
    ) -> Any:
        """``get`` falling back to ``compute()`` + ``put``.

        The returned value is always the canonical-JSON round-trip of
        the payload -- identical on the hit and miss paths, so clients
        never see a type (tuple vs list...) that only a cold run
        produces.
        """
        key = content_key(domain, version, fingerprints, config)
        cached = self.get_by_key(domain, key)
        if cached is not None:
            return cached
        payload = compute()
        self.put_by_key(domain, key, payload)
        return json.loads(canonical_json(payload))

    # -- observability ------------------------------------------------

    def counters(self) -> dict[str, DomainCounters]:
        """Per-domain counters (live objects, keyed by domain name)."""
        return dict(self._counters)

    def stats(self) -> dict[str, dict[str, float]]:
        """Serializable counter snapshot plus entry count."""
        out: dict[str, dict[str, float]] = {
            domain: counters.as_dict()
            for domain, counters in sorted(self._counters.items())
        }
        out["_store"] = {"entries": float(len(self._entries))}
        return out

    def format_report(self) -> str:
        lines = [f"artifact store: {len(self._entries)} entries"]
        for domain, counters in sorted(self._counters.items()):
            lines.append(
                f"  {domain:24s} {counters.hits:6d} hits"
                f" {counters.misses:6d} misses"
                f" ({counters.hit_rate * 100:5.1f}%)"
                f" {counters.puts:6d} puts"
                f" {counters.evictions:4d} evicted"
            )
        return "\n".join(lines)

    # -- persistence --------------------------------------------------

    def save(self, path: str, *, canonical: bool = False) -> None:
        """Persist every entry (not the counters) as canonical JSON.

        The write is atomic: the body lands in a temporary file in the
        target directory first and is then :func:`os.replace`-d over
        ``path``, so a concurrent :meth:`load` always sees one
        writer's *complete* snapshot -- racing writers resolve to
        last-writer-wins, never to an interleaved or truncated file.

        ``canonical=True`` orders entries by content key instead of
        recency, so two stores holding the same *set* of artifacts
        serialize byte-identically no matter what operation order
        built them (the service determinism ``cmp`` relies on this);
        the default keeps recency order so a reloaded store resumes
        the same LRU state.
        """
        entries = list(self._entries.items())
        if canonical:
            entries.sort()
        body = {
            "schema": STORE_SCHEMA_VERSION,
            "entries": [
                [key, domain, payload]
                for key, (domain, payload) in entries
            ],
        }
        directory = os.path.dirname(os.path.abspath(path))
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=directory, delete=False,
            prefix=os.path.basename(path) + ".", suffix=".tmp",
        )
        try:
            with handle:
                handle.write(json.dumps(body, sort_keys=True, indent=1))
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str, *, max_entries: int = 0) -> "ArtifactStore":
        """Load a persisted store; recency order is the saved order.

        Because :meth:`save` replaces the file atomically, a load that
        races concurrent writers returns the complete snapshot of
        whichever writer last won the rename -- never a torn mix.
        """
        with open(path, "r", encoding="utf-8") as handle:
            try:
                body = json.load(handle)
            except json.JSONDecodeError as exc:
                raise StoreError(f"corrupt store file {path!r}: {exc}") \
                    from None
        if not isinstance(body, Mapping) or "entries" not in body:
            raise StoreError(f"store file {path!r} missing 'entries'")
        if body.get("schema") != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"store file {path!r} has schema {body.get('schema')!r},"
                f" expected {STORE_SCHEMA_VERSION}"
            )
        store = cls(max_entries=max_entries)
        for entry in body["entries"]:
            key, domain, payload = entry
            store._entries[str(key)] = (str(domain), str(payload))
        return store


# -- ambient default store ------------------------------------------------

#: The process-wide store deep call chains share.  Always present, so
#: every ``analyze_module`` call is cached even without explicit
#: threading; replace or scope it with :func:`set_default_store` /
#: :func:`using_store`.
_DEFAULT_STORE = ArtifactStore()


def get_default_store() -> ArtifactStore:
    """The ambient store used when no store is passed explicitly."""
    return _DEFAULT_STORE


def set_default_store(store: ArtifactStore) -> ArtifactStore:
    """Replace the ambient store; returns the previous one."""
    global _DEFAULT_STORE
    previous = _DEFAULT_STORE
    _DEFAULT_STORE = store
    return previous


@contextmanager
def using_store(store: ArtifactStore) -> Iterator[ArtifactStore]:
    """Scope the ambient store to one block (flow stages, tests)."""
    previous = set_default_store(store)
    try:
        yield store
    finally:
        set_default_store(previous)
