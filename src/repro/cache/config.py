"""Configuration of the functional-knowledge cache.

:class:`CacheConfig` travels on
:attr:`repro.sweep.config.EngineConfig.cache` and is consumed by
:class:`repro.cache.SweepCache`.  It deliberately lives in its own
module with no intra-package imports so ``repro.sweep.config`` can
reference it without creating an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class CacheConfig:
    """Knobs of the functional-knowledge cache.

    Parameters
    ----------
    directory:
        Cache directory for cross-run persistence (``proofs.jsonl`` plus
        a lock file).  ``None`` keeps the cache purely in-memory — still
        useful within a run (shared halves of doubled miters, engine →
        SAT hand-off) but nothing survives the process.
    readonly:
        Load the store but never write deltas back to disk.  Used to
        hand portfolio workers a shared snapshot they cannot corrupt
        mid-run (their deltas are merged explicitly on join).
    tt_support_limit:
        Cones whose *functional* support has at most this many PIs are
        keyed by exact truth table; larger cones fall back to the salted
        structural hash.  Tables are Python ints of ``2**k`` bits, so
        keep this small (the default 8 means 256-bit tables).
    npn_limit:
        Truth-table keys for cones with at most this many support
        variables embed the NPN-canonical form computed by
        :func:`repro.synth.npn.npn_canon` (which supports up to 5 vars).
    salt_words:
        64-pattern simulation words mixed into every structural hash.
        The patterns are derived from a fixed seed, so the salt is
        stable across runs while sharpening the hash semantically.
    tt_cone_limit:
        Upper bound on the cone size (AND nodes) walked when computing a
        truth-table key; beyond it the structural key is used instead.
    validate_cex:
        Replay cached NOT-EQUIVALENT counter-examples on the live miter
        before trusting them.  Entries that fail replay are counted as
        ``invalidated`` and treated as misses.  Disabling this is only
        safe when the cache directory is trusted and keyed circuits
        never see SDC-masked patterns.
    """

    directory: Optional[str] = None
    readonly: bool = False
    tt_support_limit: int = 8
    npn_limit: int = 5
    salt_words: int = 2
    tt_cone_limit: int = 512
    validate_cex: bool = True

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent parameter combinations."""
        if self.tt_support_limit < 0:
            raise ValueError("tt_support_limit must be non-negative")
        if self.tt_support_limit > 16:
            raise ValueError(
                "tt_support_limit above 16 would build multi-kilobyte "
                "truth tables per node; use the structural hash instead"
            )
        if not 0 <= self.npn_limit <= 5:
            raise ValueError("npn_limit must be in [0, 5] (npn_canon bound)")
        if self.salt_words < 0:
            raise ValueError("salt_words must be non-negative")
        if self.tt_cone_limit < 1:
            raise ValueError("tt_cone_limit must be positive")
