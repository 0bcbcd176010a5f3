"""Cut enumeration with priority cuts (Eq. 1) and enumeration levels (Eq. 2).

For each AND node ``n`` with fanins ``n0, n1`` the candidate cuts are

    E(n) = { u ∪ v : u ∈ P(n0) ∪ {{n0}}, v ∈ P(n1) ∪ {{n1}}, |u ∪ v| ≤ k_l }

and the priority cuts ``P(n)`` are the best ``C`` candidates under the
active :class:`~repro.cuts.selection.CutSelector`.  PIs get their trivial
cut as the sole priority cut.

Each node ranks the distinct leaves of its two fanins' choice sets by
node id and works on leaf-rank masks over that ranking
(:mod:`repro.cuts.cut`): a union is ``|``, its packed weight the fanins'
weights added less their intersection's, and only the ``C`` cuts kept
become sorted tuples again.

Enumeration is scheduled by *enumeration levels* rather than plain
topological levels: a non-representative node additionally depends on its
class representative (Eq. 2), because similarity-driven selection needs
the representative's priority cuts to exist first.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.aig.network import Aig
from repro.cuts.cut import Cut, mask_leaves, rank_leaves
from repro.cuts.selection import CutSelector, reference_masks


def enumeration_levels(aig: Aig, repr_of: Dict[int, int]) -> np.ndarray:
    """Per-node enumeration levels (Eq. 2).

    ``repr_of`` maps each classed node to its class representative; nodes
    absent from the map are treated as representatives.  Representatives
    always have smaller ids than their class members, so a single pass in
    id order computes the recurrence.
    """
    levels = np.zeros(aig.num_nodes, dtype=np.int64)
    f0s, f1s = aig.fanin_literals()
    base = aig.first_and
    for i in range(aig.num_ands):
        node = base + i
        level = max(levels[f0s[i] >> 1], levels[f1s[i] >> 1])
        repr_node = repr_of.get(node, node)
        if repr_node != node:
            level = max(level, levels[repr_node])
        levels[node] = level + 1
    return levels


class CutEnumerator:
    """Single-pass priority-cut enumeration over a network.

    Parameters
    ----------
    aig:
        The network (usually the current miter).
    k_l:
        Maximum cut size; oversized unions are dropped during
        enumeration, bounding the truth-table work of local checking.
    num_priority:
        The ``C`` parameter: how many priority cuts each node keeps.
    selector:
        The criteria of the active pass (Table I) plus the similarity
        preference for non-representatives.
    """

    def __init__(
        self,
        aig: Aig,
        k_l: int,
        num_priority: int,
        selector: CutSelector,
    ) -> None:
        if k_l < 2:
            raise ValueError("k_l must be at least 2")
        if num_priority < 1:
            raise ValueError("need at least one priority cut per node")
        self.aig = aig
        self.k_l = k_l
        self.num_priority = num_priority
        self.selector = selector
        self._priority: List[List[Cut]] = [[] for _ in range(aig.num_nodes)]
        #: Packed weights of ``_priority`` (see :class:`CutSelector`).
        self._weights: List[List[int]] = [[] for _ in range(aig.num_nodes)]
        weights = selector.weights
        for pi in aig.pis():
            self._priority[pi] = [(pi,)]
            self._weights[pi] = [weights[pi]]
        #: Candidate cuts produced by Eq. 1 merges across the whole run
        #: (before priority selection) — the work metric of enumeration.
        self.expansions = 0

    def priority_cuts(self, node: int) -> List[Cut]:
        """Priority cuts computed so far for ``node`` (empty for const)."""
        return self._priority[node]

    def run(
        self,
        repr_of: Dict[int, int],
        only: Optional[set] = None,
    ) -> Iterator[Tuple[int, List[int]]]:
        """Enumerate nodes, yielding ``(level, nodes)`` per level.

        After a level is yielded, the priority cuts of every node up to
        and including that enumeration level are available — in
        particular the representative/non-representative ordering of
        Eq. 2 holds, so callers can generate common cuts for the pairs
        completed at this level (Algorithm 2 lines 6-16).

        ``only`` optionally restricts enumeration to a TFI-closed node
        set (every fanin of a member is a member, a PI, or the constant).
        The engine passes the fanin cones of the surviving candidate
        pairs, which makes late local phases — where few candidates
        remain — much cheaper than enumerating the whole miter.
        """
        levels = enumeration_levels(self.aig, repr_of)
        if only is not None:
            and_nodes = np.fromiter(only, dtype=np.int64, count=len(only))
            and_nodes.sort()
            and_nodes = and_nodes[
                (and_nodes >= self.aig.first_and)
                & (and_nodes < self.aig.num_nodes)
            ]
        else:
            and_nodes = np.arange(self.aig.first_and, self.aig.num_nodes)
        if and_nodes.size == 0:
            return
        order = np.argsort(levels[and_nodes], kind="stable")
        sorted_nodes = and_nodes[order]
        sorted_levels = levels[and_nodes][order]
        bounds = np.flatnonzero(np.diff(sorted_levels)) + 1
        starts = [0] + bounds.tolist()
        ends = bounds.tolist() + [sorted_nodes.size]
        for start, end in zip(starts, ends):
            batch = sorted_nodes[start:end].tolist()
            for node in batch:
                repr_node = repr_of.get(node, node)
                self._enumerate_node(
                    node,
                    self._priority[repr_node]
                    if repr_node != node and repr_node != 0
                    else None,
                )
            yield int(sorted_levels[start]), batch

    # ------------------------------------------------------------------

    def _enumerate_node(
        self, node: int, reference: Optional[List[Cut]]
    ) -> None:
        f0l, f1l = self.aig.fanin_lists()
        a, b = f0l[node] >> 1, f1l[node] >> 1
        priority, weights = self._priority, self.selector.weights
        side_a = {a}.union(*priority[a])
        side_b = {b}.union(*priority[b])
        ranking, bit = rank_leaves((side_a | side_b) - {0})
        masks_a, weights_a = self._choices(a, bit)
        masks_b, weights_b = self._choices(b, bit)
        # Eq. 1 unions.  A union's weight is the two weights less the
        # weight of their intersection, which only leaves on both sides
        # can make up.
        if side_a.isdisjoint(side_b):
            candidates = {
                u | v: wu + wv
                for u, wu in zip(masks_a, weights_a)
                for v, wv in zip(masks_b, weights_b)
            }
        else:
            common = _MaskWeights(list(map(weights.__getitem__, ranking)))
            candidates = {
                u | v: wu + wv - common[u & v]
                for u, wu in zip(masks_a, weights_a)
                for v, wv in zip(masks_b, weights_b)
            }
        refs = None
        if reference is not None:
            refs = reference_masks(reference, bit)
        ranked = self.selector.rank(candidates, self.k_l, refs)
        self.expansions += len(ranked)
        del ranked[self.num_priority:]
        priority[node] = [mask_leaves(key[-2], ranking) for key in ranked]
        self._weights[node] = [key[-1] for key in ranked]

    def _choices(
        self, node: int, bit: Dict[int, int]
    ) -> Tuple[List[int], List[int]]:
        """``P(node) ∪ {{node}}`` as masks and weights — the ``u``/``v``
        domain of Eq. 1."""
        if node == 0:
            # The constant node never occurs as a fanin of a strashed AND,
            # but stay safe: its only cut is empty.
            return [0], [0]
        get = bit.__getitem__
        masks = [sum(map(get, cut)) for cut in self._priority[node]]
        masks.append(bit[node])
        return masks, self._weights[node] + [self.selector.weights[node]]


class _MaskWeights(dict):
    """Packed weights of leaf-rank masks, each computed on first use
    from the ranked leaves' weights."""

    __slots__ = ("rank_weights",)

    def __init__(self, rank_weights: List[int]) -> None:
        super().__init__()
        self.rank_weights = rank_weights
        self[0] = 0

    def __missing__(self, mask: int) -> int:
        total = 0
        rest = mask
        while rest:
            low = rest & -rest
            total += self.rank_weights[low.bit_length() - 1]
            rest ^= low
        self[mask] = total
        return total
