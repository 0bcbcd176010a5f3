"""Tests for cut enumeration, selection criteria and enumeration levels."""

import itertools

import numpy as np
import pytest

from repro.aig.builder import AigBuilder
from repro.aig.traversal import support
from repro.cuts.enumeration import CutEnumerator, enumeration_levels
from repro.cuts.selection import PASS_CRITERIA, CutSelector, similarity

from conftest import random_aig
from reference_cuts import cut_metrics, merge_cuts


def _is_cut(aig, node, cut):
    """A cut blocks every PI path: removing it empties the support."""
    cut_set = set(cut)
    if node in cut_set:
        return True
    seen = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current in seen or current in cut_set:
            continue
        seen.add(current)
        if aig.is_pi(current):
            return False  # a PI path escaped the cut
        if aig.is_and(current):
            f0, f1 = aig.fanins(current)
            stack.append(f0 >> 1)
            stack.append(f1 >> 1)
    return True


def _selector(aig, pass_id=1, use_similarity=True):
    return CutSelector(
        pass_id, aig.fanout_counts(), aig.levels(), use_similarity
    )


def test_all_enumerated_cuts_are_valid():
    aig = random_aig(num_pis=6, num_nodes=60, seed=81)
    enum = CutEnumerator(aig, k_l=4, num_priority=6, selector=_selector(aig))
    for _level, nodes in enum.run({}):
        for node in nodes:
            for cut in enum.priority_cuts(node):
                assert len(cut) <= 4
                assert _is_cut(aig, node, cut), (node, cut)


def test_enumeration_covers_all_and_nodes():
    aig = random_aig(num_pis=5, num_nodes=40, seed=82)
    enum = CutEnumerator(aig, k_l=4, num_priority=4, selector=_selector(aig))
    visited = [n for _l, nodes in enum.run({}) for n in nodes]
    assert sorted(visited) == list(aig.ands())


def test_priority_cut_count_bounded():
    aig = random_aig(num_pis=6, num_nodes=60, seed=83)
    enum = CutEnumerator(aig, k_l=4, num_priority=3, selector=_selector(aig))
    for _level, nodes in enum.run({}):
        for node in nodes:
            assert len(enum.priority_cuts(node)) <= 3


def test_enumeration_levels_without_classes_match_topology():
    aig = random_aig(num_pis=5, num_nodes=30, seed=84)
    levels = enumeration_levels(aig, {})
    assert np.array_equal(levels, aig.levels())


def test_enumeration_levels_respect_representatives():
    """Eq. 2: a non-representative enumerates after its representative."""
    b = AigBuilder(4)
    r = b.add_and(2, 4)          # shallow representative
    deep = b.add_and(b.add_and(6, 8), 6)
    member = b.add_and(deep, 8)  # conjecture: member ~ r (fictional)
    b.add_po(member)
    b.add_po(r)
    aig = b.build()
    repr_of = {member >> 1: r >> 1, r >> 1: r >> 1}
    levels = enumeration_levels(aig, repr_of)
    assert levels[member >> 1] > levels[r >> 1]


def test_pass_criteria_table():
    """Table I exactly as printed in the paper."""
    assert PASS_CRITERIA[1] == ("fanout", "size", "small_level")
    assert PASS_CRITERIA[2] == ("small_level", "size", "fanout")
    assert PASS_CRITERIA[3] == ("large_level", "size", "fanout")


def test_selector_rejects_unknown_pass():
    aig = random_aig(seed=85)
    with pytest.raises(ValueError):
        CutSelector(4, aig.fanout_counts(), aig.levels())


def test_cut_metrics():
    aig = random_aig(num_pis=4, num_nodes=20, seed=86)
    fanouts = aig.fanout_counts()
    levels = aig.levels()
    cut = (1, 2)
    avg_fanout, size, avg_level = cut_metrics(cut, fanouts, levels)
    assert size == 2
    assert avg_fanout == (fanouts[1] + fanouts[2]) / 2
    assert avg_level == 0.0  # PIs are level 0
    assert cut_metrics((), fanouts, levels) == (0.0, 0, 0.0)


def test_pass1_prefers_high_fanout_then_small_cuts():
    fanouts = np.array([0, 10, 10, 1, 1])
    levels = np.zeros(5, dtype=np.int64)
    selector = CutSelector(1, fanouts, levels)
    high_fanout = (1, 2)
    low_fanout = (3, 4)
    small = (1,)
    picked = selector.select([low_fanout, high_fanout], 1)
    assert picked == [high_fanout]
    picked = selector.select([high_fanout, small], 1)
    assert picked == [small]  # same avg fanout, smaller size wins


def test_pass2_vs_pass3_level_preference():
    fanouts = np.ones(6)
    levels = np.array([0, 0, 0, 5, 5, 5])
    shallow = (1, 2)
    deep = (3, 4)
    pick2 = CutSelector(2, fanouts, levels).select([shallow, deep], 1)
    pick3 = CutSelector(3, fanouts, levels).select([shallow, deep], 1)
    assert pick2 == [shallow]
    assert pick3 == [deep]


def test_similarity_metric():
    assert similarity((1, 2), [(1, 2)]) == 1.0
    assert similarity((1, 2), [(3, 4)]) == 0.0
    assert similarity((1, 2), [(1, 3)]) == pytest.approx(1 / 3)
    assert similarity((1, 2), [(1, 2), (1, 3)]) == pytest.approx(1 + 1 / 3)
    assert similarity((), []) == 0.0


def test_similarity_drives_selection_for_members():
    fanouts = np.ones(8)
    levels = np.zeros(8, dtype=np.int64)
    selector = CutSelector(1, fanouts, levels)
    reference = [(1, 2, 3)]
    similar = (1, 2, 4)
    disjoint = (5, 6, 7)
    picked = selector.select([disjoint, similar], 1, reference_cuts=reference)
    assert picked == [similar]
    # With similarity disabled the pass criteria tie, and the tie breaks
    # on the leaves from the largest id down: (4, 2, 1) < (7, 6, 5).
    off = CutSelector(1, fanouts, levels, use_similarity=False)
    picked_off = off.select([disjoint, similar], 2, reference_cuts=reference)
    assert picked_off == [similar, disjoint]


def test_merge_cuts():
    assert merge_cuts((1, 3), (2, 3)) == (1, 2, 3)
    assert merge_cuts((1,), (1,)) == (1,)


def test_enumerator_validates_parameters():
    aig = random_aig(seed=87)
    with pytest.raises(ValueError):
        CutEnumerator(aig, k_l=1, num_priority=4, selector=_selector(aig))
    with pytest.raises(ValueError):
        CutEnumerator(aig, k_l=4, num_priority=0, selector=_selector(aig))
