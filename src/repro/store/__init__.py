"""Content-addressed artifact cache for incremental flow stages.

:class:`ArtifactStore` keys canonical-JSON payloads by the sha256 of
``(domain, version, input fingerprints, config)``; clients --
per-cone analysis transfers, per-module lint findings, per-block
stage payloads -- re-derive only what the design change
reached and splice cached results elsewhere, byte-identical to a cold
run.  See :mod:`repro.store.store` for the full contract.
"""

from .store import (
    STORE_SCHEMA_VERSION,
    ArtifactStore,
    DomainCounters,
    StoreError,
    canonical_json,
    content_key,
    get_default_store,
    set_default_store,
    using_store,
)

__all__ = [
    "STORE_SCHEMA_VERSION",
    "ArtifactStore",
    "DomainCounters",
    "StoreError",
    "canonical_json",
    "content_key",
    "get_default_store",
    "set_default_store",
    "using_store",
]
