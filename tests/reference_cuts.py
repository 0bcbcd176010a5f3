"""Tuple-set reference for the bitmask cut engine.

:class:`ReferenceCutEnumerator` enumerates priority cuts the way
:mod:`repro.cuts.enumeration` did before cuts became leaf-rank masks:
cuts are sorted tuples, unions are Python set algebra, every key is
recomputed from the cut's leaves, and the best ``C`` come from a full
sort with the total-order tie-break (the leaves from the largest id
down).  ``tests/test_cut_engine.py`` uses it as an independent oracle:
the library's :class:`~repro.cuts.enumeration.CutEnumerator` must yield
identical priority cuts and expansion counts.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.aig.network import Aig
from repro.cuts.enumeration import enumeration_levels
from repro.cuts.selection import PASS_CRITERIA

Cut = Tuple[int, ...]


def merge_cuts(u: Cut, v: Cut) -> Cut:
    """Sorted union of two cuts."""
    if u == v:
        return u
    return tuple(sorted(set(u) | set(v)))


def cut_metrics(cut: Cut, fanout_counts, levels) -> Tuple[float, int, float]:
    """The (avg_fanout, size, avg_level) metric triple of §III-C1."""
    size = len(cut)
    if size == 0:
        return 0.0, 0, 0.0
    total_fanout = 0
    total_level = 0
    for node in cut:
        total_fanout += fanout_counts[node]
        total_level += levels[node]
    return total_fanout / size, size, total_level / size


def similarity(cut: Cut, priority_cuts: Sequence[Cut]) -> float:
    """Jaccard-sum similarity ``s(c, P) = Σ_{c'∈P} |c∩c'| / |c∪c'|``."""
    cut_set = set(cut)
    score = 0.0
    for other in priority_cuts:
        other_set = set(other)
        union = len(cut_set | other_set)
        if union:
            score += len(cut_set & other_set) / union
    return score


class ReferenceSelector:
    """Table I ranking of tuple cuts, keys recomputed per comparison."""

    def __init__(
        self, pass_id: int, fanout_counts, levels, use_similarity=True
    ) -> None:
        self.criteria = PASS_CRITERIA[pass_id]
        self.fanout_counts = np.asarray(fanout_counts).tolist()
        self.levels = np.asarray(levels).tolist()
        self.use_similarity = use_similarity

    def sort_key(self, cut: Cut) -> Tuple[float, ...]:
        avg_fanout, size, avg_level = cut_metrics(
            cut, self.fanout_counts, self.levels
        )
        values = {
            "fanout": -avg_fanout,
            "size": float(size),
            "small_level": avg_level,
            "large_level": -avg_level,
        }
        return tuple(values[criterion] for criterion in self.criteria)

    def select(
        self,
        candidates: Sequence[Cut],
        count: int,
        reference_cuts: Optional[Sequence[Cut]] = None,
    ) -> List[Cut]:
        if reference_cuts is not None and self.use_similarity:
            def key(cut: Cut):
                return (
                    (-similarity(cut, reference_cuts),)
                    + self.sort_key(cut)
                    + (cut[::-1],)
                )
        else:
            def key(cut: Cut):
                return self.sort_key(cut) + (cut[::-1],)
        return sorted(set(candidates), key=key)[:count]


class ReferenceCutEnumerator:
    """Priority-cut enumeration (Eq. 1) over tuple cuts."""

    def __init__(
        self, aig: Aig, k_l: int, num_priority: int, selector
    ) -> None:
        self.aig = aig
        self.k_l = k_l
        self.num_priority = num_priority
        self.selector = selector
        self._priority: List[List[Cut]] = [[] for _ in range(aig.num_nodes)]
        for pi in aig.pis():
            self._priority[pi] = [(pi,)]
        self.expansions = 0

    def priority_cuts(self, node: int) -> List[Cut]:
        return self._priority[node]

    def run(
        self, repr_of: Dict[int, int], only: Optional[set] = None
    ) -> Iterator[Tuple[int, List[int]]]:
        levels = enumeration_levels(self.aig, repr_of)
        if only is not None:
            and_nodes = sorted(n for n in only if self.aig.is_and(n))
        else:
            and_nodes = list(self.aig.ands())
        by_level: Dict[int, List[int]] = {}
        for node in sorted(and_nodes, key=lambda n: int(levels[n])):
            by_level.setdefault(int(levels[node]), []).append(node)
        for level in sorted(by_level):
            batch = by_level[level]
            for node in batch:
                reference = None
                repr_node = repr_of.get(node, node)
                if repr_node != node and repr_node != 0:
                    reference = self._priority[repr_node]
                self._priority[node] = self._enumerate_node(node, reference)
            yield level, batch

    def _enumerate_node(
        self, node: int, reference: Optional[List[Cut]]
    ) -> List[Cut]:
        f0, f1 = self.aig.fanins(node)
        candidates = set()
        for u in self._cut_choices(f0 >> 1):
            for v in self._cut_choices(f1 >> 1):
                union = merge_cuts(u, v)
                if len(union) <= self.k_l:
                    candidates.add(union)
        self.expansions += len(candidates)
        if not candidates:
            return []
        return self.selector.select(
            list(candidates), self.num_priority, reference
        )

    def _cut_choices(self, node: int) -> List[Cut]:
        if node == 0:
            return [()]
        return self._priority[node] + [(node,)]
