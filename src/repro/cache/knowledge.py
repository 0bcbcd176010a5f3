"""The functional-knowledge cache consumed by the sweep engines.

:class:`SweepCache` owns one :class:`~repro.cache.store.ProofStore` and
its cumulative :class:`~repro.cache.counters.CacheCounters`; it lives as
long as a checker (or a whole service process) and is re-*bound* to each
miter it sees.  :class:`BoundCache` pairs the store with the
:class:`~repro.cache.fingerprint.MiterFingerprints` of one concrete
miter, translating literal pairs into content keys in both directions:

- **lookup**: the fingerprint layer may decide the pair outright (both
  truth tables known, or identical keys); otherwise the pair key is
  probed in the store.  A cached NOT-EQUIVALENT is only trusted after
  its counter-example replays successfully on the live miter — replay
  failures are counted ``invalidated``, dropped from the in-memory
  view, and treated as misses (the stale record dies at the next
  compaction).
- **record**: verdicts are stored with provenance (engine, phase
  context, cut size, conflict budget, wall time).  Pairs the
  fingerprint layer can always re-decide from exact truth tables are
  *not* stored — they would be dead weight.

The engine re-binds after every miter reduction; because keys are pure
functions of the logic, knowledge recorded against one binding remains
valid for every later one (and for every later run — the warm start).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.aig.network import Aig
from repro.cache.config import CacheConfig
from repro.cache.counters import CacheCounters
from repro.cache.fingerprint import MiterFingerprints
from repro.obs import get_tracer
from repro.cache.store import (
    EQUIVALENT,
    INCONCLUSIVE,
    NONEQUIVALENT,
    ProofStore,
    Verdict,
)
from repro.simulation.partial import pack_patterns, simulate_words


@dataclass
class CachedPair:
    """A usable answer for one candidate pair.

    ``cex`` (NOT-EQUIVALENT only) is a full PI pattern, already
    validated on the live miter when validation is enabled.
    ``conflict_limit`` (inconclusive only) is the largest SAT budget
    known to have failed on this pair.
    """

    status: str
    cex: Optional[List[int]] = None
    conflict_limit: int = 0

    @property
    def is_equivalent(self) -> bool:
        return self.status == EQUIVALENT

    @property
    def is_nonequivalent(self) -> bool:
        return self.status == NONEQUIVALENT


class SweepCache:
    """Process-wide functional-knowledge cache."""

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        self.config = config or CacheConfig()
        self.config.validate()
        if self.config.directory is not None:
            self.store = ProofStore.load(self.config.directory)
        else:
            self.store = ProofStore()
        self.counters = CacheCounters()

    @classmethod
    def from_config(
        cls, config: Optional[CacheConfig]
    ) -> Optional["SweepCache"]:
        """Build a cache when configured, ``None`` otherwise."""
        return cls(config) if config is not None else None

    def bind(
        self,
        miter: Aig,
        fingerprints: Optional[MiterFingerprints] = None,
    ) -> "BoundCache":
        """Attach the cache to one concrete miter.

        ``fingerprints`` injects a prebuilt
        :class:`~repro.cache.fingerprint.MiterFingerprints` — the
        incremental :class:`~repro.sweep.state.SweepState` passes one
        carrying the salt matrix and truth-table memos of the previous
        binding, so a re-bind after a reduction costs a structural-hash
        pass instead of a full re-simulation.
        """
        return BoundCache(self, miter, fingerprints=fingerprints)

    def flush(self) -> int:
        """Persist pending verdicts; returns the records written."""
        if self.config.readonly or self.config.directory is None:
            return 0
        return self.store.append_pending(self.config.directory)

    def compact(self) -> None:
        """Rewrite the store file dropping superseded records."""
        if self.config.readonly or self.config.directory is None:
            return
        self.store.compact(self.config.directory)

    def snapshot(self) -> CacheCounters:
        """Counter snapshot for later per-run deltas via ``diff``."""
        return self.counters.copy()


class BoundCache:
    """A :class:`SweepCache` bound to one miter's fingerprints."""

    def __init__(
        self,
        cache: SweepCache,
        miter: Aig,
        fingerprints: Optional[MiterFingerprints] = None,
    ) -> None:
        self.cache = cache
        self.miter = miter
        if fingerprints is not None and fingerprints.aig is not miter:
            raise ValueError("fingerprints were built for a different miter")
        self.fingerprints = (
            fingerprints
            if fingerprints is not None
            else MiterFingerprints(miter, cache.config)
        )

    @property
    def counters(self) -> CacheCounters:
        return self.cache.counters

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup_pair(
        self, lit_a: int, lit_b: int, want_inconclusive: bool = False
    ) -> Optional[CachedPair]:
        """Best known answer for a pair of literals, or ``None``.

        Inconclusive knowledge is suppressed (and counted as a miss)
        unless ``want_inconclusive`` is set — a pair that defeated one
        cut or one SAT budget may still fall to another, so only callers
        that compare budgets should see those records.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._lookup(lit_a, lit_b, want_inconclusive)
        start = time.perf_counter()
        found = self._lookup(lit_a, lit_b, want_inconclusive)
        tracer.metrics.observe(
            "cache.lookup_seconds", time.perf_counter() - start
        )
        tracer.metrics.counter_add(
            "cache.lookup_hits" if found is not None else "cache.lookup_misses"
        )
        return found

    def _lookup(
        self, lit_a: int, lit_b: int, want_inconclusive: bool
    ) -> Optional[CachedPair]:
        decided = self.fingerprints.decide_pair(lit_a, lit_b)
        if decided is not None:
            status, cex = decided
            self.counters.fingerprint_decided += 1
            return CachedPair(status, cex)
        key = self.fingerprints.pair_key(lit_a, lit_b)
        verdict = self.cache.store.get(key)
        if verdict is None:
            self.counters.misses += 1
            return None
        if verdict.status == NONEQUIVALENT:
            cex = verdict.cex
            valid = (
                cex is not None
                and verdict.num_pis == self.miter.num_pis
                and (
                    not self.cache.config.validate_cex
                    or self._cex_distinguishes(lit_a, lit_b, cex)
                )
            )
            if not valid:
                self.counters.invalidated += 1
                self.cache.store.discard(key)
                return None
            self.counters.hits += 1
            return CachedPair(NONEQUIVALENT, list(cex))
        if verdict.status == INCONCLUSIVE and not want_inconclusive:
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        return CachedPair(
            verdict.status, conflict_limit=verdict.conflict_limit
        )

    def _cex_distinguishes(
        self, lit_a: int, lit_b: int, pattern: List[int]
    ) -> bool:
        if len(pattern) != self.miter.num_pis:
            return False
        words = pack_patterns([pattern], self.miter.num_pis)
        values = simulate_words(self.miter, words)
        val_a = (int(values[lit_a >> 1, 0]) & 1) ^ (lit_a & 1)
        val_b = (int(values[lit_b >> 1, 0]) & 1) ^ (lit_b & 1)
        return val_a != val_b

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_equivalent(
        self,
        lit_a: int,
        lit_b: int,
        engine: str = "sim",
        context: str = "",
        cut_size: int = 0,
        seconds: float = 0.0,
    ) -> None:
        self._record(
            lit_a,
            lit_b,
            Verdict(
                EQUIVALENT,
                num_pis=self.miter.num_pis,
                engine=engine,
                context=context,
                cut_size=cut_size,
                seconds=seconds,
            ),
        )

    def record_nonequivalent(
        self,
        lit_a: int,
        lit_b: int,
        cex: List[int],
        engine: str = "sim",
        context: str = "",
        seconds: float = 0.0,
    ) -> None:
        if len(cex) != self.miter.num_pis:
            return
        self._record(
            lit_a,
            lit_b,
            Verdict(
                NONEQUIVALENT,
                cex=list(cex),
                num_pis=self.miter.num_pis,
                engine=engine,
                context=context,
                seconds=seconds,
            ),
        )

    def record_inconclusive(
        self,
        lit_a: int,
        lit_b: int,
        engine: str = "sat",
        context: str = "",
        conflict_limit: int = 0,
        seconds: float = 0.0,
    ) -> None:
        self._record(
            lit_a,
            lit_b,
            Verdict(
                INCONCLUSIVE,
                num_pis=self.miter.num_pis,
                engine=engine,
                context=context,
                conflict_limit=conflict_limit,
                seconds=seconds,
            ),
        )

    def _record(self, lit_a: int, lit_b: int, verdict: Verdict) -> None:
        fp = self.fingerprints
        # Pairs the fingerprint layer re-decides from exact tables on
        # every lookup would never be read back: don't store them.
        if (
            fp.table_of(lit_a >> 1) is not None
            and fp.table_of(lit_b >> 1) is not None
        ):
            return
        key = fp.pair_key(lit_a, lit_b)
        if self.cache.store.put(key, verdict):
            self.counters.stores += 1

    # ------------------------------------------------------------------
    # Local-cut mismatch memo
    # ------------------------------------------------------------------
    #
    # A local-function mismatch over a cut is not a verdict about the
    # pair (it may be an SDC) — but re-simulating the same pair over the
    # same cut function is guaranteed to mismatch again.  Memoising the
    # (pair, cut-content) combination lets warm runs skip those windows.

    def _mismatch_key(self, lit_a: int, lit_b: int, cut) -> str:
        return (
            "M:"
            + self.fingerprints.pair_key(lit_a, lit_b)
            + "|"
            + self.fingerprints.cut_key(cut)
        )

    def local_mismatch_seen(self, lit_a: int, lit_b: int, cut) -> bool:
        """True when this pair already mismatched over this exact cut."""
        seen = (
            self.cache.store.get(self._mismatch_key(lit_a, lit_b, cut))
            is not None
        )
        if seen:
            self.counters.hits += 1
        return seen

    def record_local_mismatch(
        self, lit_a: int, lit_b: int, cut, context: str = "L"
    ) -> None:
        key = self._mismatch_key(lit_a, lit_b, cut)
        verdict = Verdict(
            INCONCLUSIVE,
            num_pis=self.miter.num_pis,
            engine="sim",
            context=context,
            cut_size=len(cut),
        )
        if self.cache.store.put(key, verdict):
            self.counters.stores += 1
