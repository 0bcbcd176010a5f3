"""Priority-cut selection criteria (Table I) and the similarity metric.

The three cut-generation passes rank cuts with different priorities to
diversify the cuts the checker sees:

====  ===========  ===================  ===================
Pass  Main metric  Tie-breaker 1        Tie-breaker 2
====  ===========  ===================  ===================
1     fanout ↑     cut size ↓           level ↓
2     level ↓      cut size ↓           fanout ↑
3     level ↑      cut size ↓           fanout ↑
====  ===========  ===================  ===================

Non-representative nodes additionally prefer cuts *similar* to the
priority cuts of their class representative (§III-C1), which maximises
the number of usable (≤ k_l) common cuts of the pair; the Table I
criteria then break similarity ties.  Cuts that tie on every criterion
rank by their leaves from the largest id down, so the ranking is a total
order.

Cuts are ranked as leaf-rank masks (:mod:`repro.cuts.cut`), each carrying
its *packed weight*: the sum over its leaves of ``level << shift |
fanout``.  A union's weight is the two weights added, less the weight of
their intersection, so each Table I key costs O(1).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cuts.cut import Cut, cut_mask, mask_leaves, rank_leaves

#: Criteria of Table I: pass id → ordered metric names.  ``fanout`` and
#: ``large level`` are maximised, ``cut size`` and ``small level`` are
#: minimised.
PASS_CRITERIA: Dict[int, Tuple[str, str, str]] = {
    1: ("fanout", "size", "small_level"),
    2: ("small_level", "size", "fanout"),
    3: ("large_level", "size", "fanout"),
}

#: A reference cut for similarity: its leaf-rank mask over the current
#: ranking (leaves outside the ranking dropped) and its full size.
RefCut = Tuple[int, int]


def similarity(cut: Cut, priority_cuts: Sequence[Cut]) -> float:
    """Jaccard-sum similarity ``s(c, P) = Σ_{c'∈P} |c∩c'| / |c∪c'|``."""
    _ranking, bit = rank_leaves(set(chain(cut, *priority_cuts)))
    refs = [(cut_mask(other, bit), len(other)) for other in priority_cuts]
    return _similarity(cut_mask(cut, bit), len(cut), refs)


def _similarity(mask: int, size: int, refs: Sequence[RefCut]) -> float:
    score = 0.0
    for ref, ref_size in refs:
        common = (mask & ref).bit_count()
        if common:
            score += common / (size + ref_size - common)
    return score


class CutSelector:
    """Ranks candidate cuts for one enumeration pass.

    Parameters
    ----------
    pass_id:
        Which Table I pass (1, 2 or 3) supplies the criteria.
    fanout_counts, levels:
        Per-node integer arrays of the network being enumerated.
    use_similarity:
        When False the similarity preference for non-representatives is
        disabled (the ablation knob for the §III-C1 design choice).
    """

    def __init__(
        self,
        pass_id: int,
        fanout_counts: np.ndarray,
        levels: np.ndarray,
        use_similarity: bool = True,
    ) -> None:
        if pass_id not in PASS_CRITERIA:
            raise ValueError(f"unknown pass id {pass_id}")
        self.pass_id = pass_id
        self.criteria = PASS_CRITERIA[pass_id]
        self.use_similarity = use_similarity
        fanouts = np.asarray(fanout_counts, dtype=np.int64)
        levels = np.asarray(levels, dtype=np.int64)
        # No cut's fanout sum exceeds the network's, so fanouts below
        # ``shift`` bits never carry into the level sum above them.
        self.shift = int(fanouts.sum()).bit_length()
        self.fanout_mask = (1 << self.shift) - 1
        if int(levels.max(initial=0)).bit_length() + self.shift < 63:
            packed = ((levels << self.shift) | fanouts).tolist()
        else:  # beyond int64: the same weights in Python ints
            packed = [
                (level << self.shift) | fanout
                for level, fanout in zip(levels.tolist(), fanouts.tolist())
            ]
        #: Per-node packed weight ``level << shift | fanout``.
        self.weights: List[int] = packed

    @classmethod
    def for_network(
        cls, aig, pass_id: int = 1, use_similarity: bool = True
    ):
        """Selector over a whole network's metric arrays.

        Convenience constructor for callers that do not already hold the
        fanout/level arrays (the scheduler's cut lane builds one selector
        per dispatch round).
        """
        return cls(pass_id, aig.fanout_counts(), aig.levels(), use_similarity)

    def rank(
        self,
        candidates: Dict[int, int],
        max_size: int,
        refs: Optional[Sequence[RefCut]] = None,
    ) -> List[tuple]:
        """Sort keys, best first, of the candidates of at most ``max_size``
        leaves.

        ``candidates`` maps each leaf-rank mask to its packed weight.  A
        key is the pass criteria (Table I, lower is better, averages as
        ``sum / size``), then the mask as the total-order tie-break, then
        the weight; ``key[-2]`` is the cut and ``key[-1]`` its weight.
        With ``refs`` (the representative's priority cuts over the same
        ranking) the negated similarity comes first.
        """
        shift, fmask = self.shift, self.fanout_mask
        items = candidates.items()
        # Sizes sit at key[1] in every pass; ``s or 1`` only guards the
        # empty cut, whose sums are zero.
        if self.pass_id == 1:
            keys = [
                (-(w & fmask) / (s or 1), s, (w >> shift) / (s or 1), m, w)
                for m, w in items
                if (s := m.bit_count()) <= max_size
            ]
        elif self.pass_id == 2:
            keys = [
                ((w >> shift) / (s or 1), s, -(w & fmask) / (s or 1), m, w)
                for m, w in items
                if (s := m.bit_count()) <= max_size
            ]
        else:
            keys = [
                (-(w >> shift) / (s or 1), s, -(w & fmask) / (s or 1), m, w)
                for m, w in items
                if (s := m.bit_count()) <= max_size
            ]
        if refs and self.use_similarity:
            keys = [(-_similarity(k[3], k[1], refs),) + k for k in keys]
        keys.sort()
        return keys

    def select(
        self,
        candidates: Sequence[Cut],
        count: int,
        reference_cuts: Optional[Sequence[Cut]] = None,
    ) -> List[Cut]:
        """Pick the best ``count`` cuts.

        ``reference_cuts`` are the representative's priority cuts when the
        node being enumerated is a non-representative: similarity to them
        becomes the primary criterion (ties broken by the pass criteria).
        Ties under the criteria break on the leaves from the largest id
        down (``cut[::-1]``), so the result never depends on the
        candidates' order.
        """
        ranking, bit = rank_leaves(set(chain.from_iterable(candidates)))
        weight = self.weights.__getitem__
        masks = {
            cut_mask(cut, bit): sum(map(weight, cut)) for cut in candidates
        }
        refs = None
        if reference_cuts is not None:
            refs = reference_masks(reference_cuts, bit)
        ranked = self.rank(masks, len(ranking), refs)
        return [mask_leaves(key[-2], ranking) for key in ranked[:count]]


def reference_masks(
    reference_cuts: Sequence[Cut], bit: Dict[int, int]
) -> List[RefCut]:
    """The representative's cuts over a node's ranking, for similarity.

    Leaves outside the ranking cannot meet a candidate, so they drop out
    of the mask but still count in the cut's size (the union's size).
    """
    get = bit.get
    refs = []
    for ref in reference_cuts:
        mask = 0
        for leaf in ref:
            mask |= get(leaf, 0)
        if mask:
            refs.append((mask, len(ref)))
    return refs
