"""Equivalence classes from partial simulation (the EC manager of §III-A).

Nodes with identical partial-simulation signatures form an equivalence
class; any functionally equivalent pair must share a class, so classes
are the candidate-pair generator of the sweeping framework.  Signatures
are canonicalised by phase (a node and its complement land in the same
class with opposite phase flags), which is what lets the miter's XOR
structure reduce fully — standard FRAIG behaviour.

:class:`SimulationState` owns the pattern pool: random initial patterns
plus every counter-example found so far.  Patterns are expressed at the
PIs, so the pool survives miter reductions unchanged and classes can be
recomputed for any rewritten miter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.aig.network import Aig
from repro.simulation.bitops import random_words
from repro.simulation.partial import pack_patterns, simulate_words


@dataclass(frozen=True)
class EqClass:
    """One equivalence class.

    ``members`` are node ids in increasing order — the first member is
    the class *representative* (minimum id, as in the paper §II-B).
    ``phases`` holds each member's phase relative to the canonical
    signature; two members ``i, j`` are conjectured equivalent up to
    complementation ``phases[i] ^ phases[j]``.
    """

    members: Tuple[int, ...]
    phases: Tuple[int, ...]

    @property
    def representative(self) -> int:
        """The minimum-id member."""
        return self.members[0]

    def candidate_pairs(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(representative, member, relative_phase)`` triples."""
        repr_node = self.members[0]
        repr_phase = self.phases[0]
        for node, phase in zip(self.members[1:], self.phases[1:]):
            yield repr_node, node, repr_phase ^ phase


class EquivalenceClasses:
    """All non-singleton classes of a network under a signature matrix."""

    def __init__(self, classes: List[EqClass], repr_of: Dict[int, int]):
        self._classes = classes
        self._repr_of = repr_of

    @classmethod
    def from_tables(cls, tables: np.ndarray) -> "EquivalenceClasses":
        """Cluster nodes by canonical signature.

        ``tables`` is the ``(num_nodes, W)`` signature matrix of
        :func:`repro.simulation.partial.simulate_words`.  Node 0 (constant
        false) participates, so constant candidates cluster with it.
        """
        num_nodes, width = tables.shape
        if width == 0:
            raise ValueError("cannot build classes from zero-width signatures")
        phases = (tables[:, 0] & np.uint64(1)).astype(np.int8)
        canonical = np.where(
            phases[:, None].astype(bool), ~tables, tables
        )
        buckets: Dict[bytes, List[int]] = {}
        raw = canonical.tobytes()
        row_bytes = width * 8
        for node in range(num_nodes):
            key = raw[node * row_bytes : (node + 1) * row_bytes]
            buckets.setdefault(key, []).append(node)
        classes: List[EqClass] = []
        repr_of: Dict[int, int] = {}
        for members in buckets.values():
            if len(members) < 2:
                continue
            eq_class = EqClass(
                members=tuple(members),
                phases=tuple(int(phases[m]) for m in members),
            )
            classes.append(eq_class)
            for m in members:
                repr_of[m] = members[0]
        classes.sort(key=lambda c: c.representative)
        return cls(classes, repr_of)

    def __iter__(self) -> Iterator[EqClass]:
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)

    def representative_of(self, node: int) -> Optional[int]:
        """Representative of the node's class, or None for singletons."""
        return self._repr_of.get(node)

    def is_representative(self, node: int) -> bool:
        """True when the node is its own class representative."""
        return self._repr_of.get(node) == node

    def num_candidate_pairs(self) -> int:
        """Total pairs a sweeping round would need to prove."""
        return sum(len(c.members) - 1 for c in self._classes)

    def all_pairs(self) -> Iterator[Tuple[int, int, int]]:
        """Yield every ``(representative, node, phase)`` candidate pair."""
        for eq_class in self._classes:
            yield from eq_class.candidate_pairs()

    def remap(self, node_map: np.ndarray) -> "EquivalenceClasses":
        """Rewrite the classes through an old-node → new-literal map.

        ``node_map`` is the array map of a structural rebuild
        (:class:`repro.aig.rebuild.RebuildResult`): ``-1`` marks swept
        nodes, merged nodes map onto (possibly complemented) literals of
        their representative.  Because reductions only merge *proved*
        pairs, the result is exactly what
        :meth:`from_tables` would return for the reduced network under
        the same (carried) signature matrix: swept members drop out,
        merged members collapse onto their representative's new id, and
        classes reduced below two members disappear.
        """
        classes: List[EqClass] = []
        repr_of: Dict[int, int] = {}
        for eq_class in self._classes:
            members: List[int] = []
            phases: List[int] = []
            seen = set()
            for member, phase in zip(eq_class.members, eq_class.phases):
                mapped = int(node_map[member])
                if mapped < 0:
                    continue
                node = mapped >> 1
                if node in seen:
                    # The member merged onto an earlier member of this
                    # class (its representative); one row, one entry.
                    continue
                seen.add(node)
                members.append(node)
                phases.append(phase ^ (mapped & 1))
            if len(members) < 2:
                continue
            # The map preserves id order on surviving nodes and merged
            # members collapse onto *earlier* entries, so ``members`` is
            # still ascending and members[0] is the representative.
            remapped = EqClass(tuple(members), tuple(phases))
            classes.append(remapped)
            for node in members:
                repr_of[node] = members[0]
        classes.sort(key=lambda c: c.representative)
        return EquivalenceClasses(classes, repr_of)


def initial_patterns(
    num_pis: int, num_words: int, seed: int, strategy: str = "random"
) -> np.ndarray:
    """Initial simulation pattern words for class initialisation.

    Strategies (the pattern-quality dimension studied by [3], [20]):

    - ``random`` — i.i.d. uniform bits (the default everywhere);
    - ``counting`` — pattern ``p`` is the binary encoding of ``p``
      (exhaustive over the low PIs, constant on the high ones);
    - ``walking`` — a Hamming-distance-1 walk from the all-zeros
      pattern, flipping PI ``p mod num_pis`` at step ``p``;
    - ``mixed`` — half random, quarter counting, quarter walking.
    """
    from repro.simulation.bitops import projection_segment

    rng = np.random.default_rng(seed)
    if strategy == "random":
        return random_words(num_pis, num_words, rng)
    if strategy == "counting":
        words = np.zeros((num_pis, num_words), dtype=np.uint64)
        for i in range(num_pis):
            words[i] = projection_segment(i, 0, num_words)
        return words
    if strategy == "walking":
        patterns = []
        current = [0] * num_pis
        for p in range(num_words * 64):
            patterns.append(tuple(current))
            current[p % num_pis] ^= 1
        return pack_patterns(patterns, num_pis)
    if strategy == "mixed":
        half = max(1, num_words // 2)
        quarter = max(1, (num_words - half) // 2)
        rest = max(1, num_words - half - quarter)
        parts = [
            initial_patterns(num_pis, half, seed, "random"),
            initial_patterns(num_pis, quarter, seed, "counting"),
            initial_patterns(num_pis, rest, seed, "walking"),
        ]
        return np.hstack(parts)
    raise ValueError(f"unknown pattern strategy {strategy!r}")


class SimulationState:
    """Pattern pool + signature tables for the sweeping engine.

    Parameters
    ----------
    num_pis:
        PI count of the miter (constant across reductions).
    num_random_words:
        Number of 64-pattern words used to initialise classes.
    seed:
        RNG seed; engines are deterministic given a seed.
    strategy:
        Initial-pattern strategy; see :func:`initial_patterns`.
    """

    def __init__(
        self,
        num_pis: int,
        num_random_words: int = 32,
        seed: int = 2025,
        strategy: str = "random",
    ) -> None:
        if num_random_words < 1:
            raise ValueError("need at least one random simulation word")
        self.num_pis = num_pis
        self.pi_words = initial_patterns(
            num_pis, num_random_words, seed, strategy
        )
        self._cex_patterns: List[Sequence[int]] = []

    @property
    def num_patterns(self) -> int:
        """Total simulation patterns in the pool (64 per word)."""
        return self.pi_words.shape[1] * 64

    @property
    def num_cex(self) -> int:
        """Number of counter-example patterns added so far."""
        return len(self._cex_patterns)

    def add_cex_patterns(
        self,
        patterns: Sequence[Sequence[int]],
        distance1: bool = False,
        distance1_limit: int = 64,
    ) -> None:
        """Append counter-example patterns (full PI assignments) to the pool.

        With ``distance1`` enabled, each pattern is additionally expanded
        into its Hamming-distance-1 neighbourhood (up to
        ``distance1_limit`` flipped positions per CEX) — the distance-1
        simulation refinement of [8] the paper lists as a §V extension.
        Neighbours of a distinguishing pattern often distinguish further
        pairs, so classes split faster per CEX.
        """
        fresh = [tuple(p) for p in patterns]
        if not fresh:
            return
        self._cex_patterns.extend(fresh)
        expanded = list(fresh)
        if distance1:
            for pattern in fresh:
                for i in range(min(len(pattern), distance1_limit)):
                    neighbour = list(pattern)
                    neighbour[i] ^= 1
                    expanded.append(tuple(neighbour))
        packed = pack_patterns(expanded, self.num_pis)
        self.pi_words = np.hstack([self.pi_words, packed])

    def tables(self, miter: Aig) -> np.ndarray:
        """Signature matrix of ``miter`` under the current pool."""
        if miter.num_pis != self.num_pis:
            raise ValueError(
                f"miter has {miter.num_pis} PIs, state was built for {self.num_pis}"
            )
        return simulate_words(miter, self.pi_words)

    def classes(self, miter: Aig, tables: Optional[np.ndarray] = None) -> EquivalenceClasses:
        """Equivalence classes of ``miter`` under the current pool."""
        if tables is None:
            tables = self.tables(miter)
        return EquivalenceClasses.from_tables(tables)
