"""Content-addressed functional-knowledge cache with cross-run warm-start.

The subsystem the incremental-CEC story is built on: cones are keyed by
*what they compute* (NPN-backed truth-table keys for small supports, a
salted structural hash above), verdicts about key pairs are kept in an
append-only JSONL proof store that is safe under concurrent writers,
and the sweep engines consult/record through a per-miter binding.  See
``docs/architecture.md`` ("Functional-knowledge cache").
"""

from repro.cache.config import CacheConfig
from repro.cache.counters import CacheCounters
from repro.cache.fingerprint import MiterFingerprints
from repro.cache.knowledge import BoundCache, CachedPair, SweepCache
from repro.cache.store import (
    EQUIVALENT,
    INCONCLUSIVE,
    NONEQUIVALENT,
    ProofStore,
    Verdict,
)

__all__ = [
    "CacheConfig",
    "CacheCounters",
    "MiterFingerprints",
    "BoundCache",
    "CachedPair",
    "SweepCache",
    "ProofStore",
    "Verdict",
    "EQUIVALENT",
    "NONEQUIVALENT",
    "INCONCLUSIVE",
]
