"""Tests for cones, TFO, supports and level batching."""

import numpy as np

from repro.aig.builder import AigBuilder
from repro.aig.traversal import (
    collect_cone,
    collect_tfo,
    level_batches,
    po_support_sizes,
    support,
    support_sizes,
    supports,
    supports_capped,
)

from conftest import random_aig


def build_diamond():
    """x,y -> a=xy, b=x+y, f=a·b (reconvergent diamond)."""
    b = AigBuilder(2)
    a = b.add_and(2, 4)
    o = b.add_or(2, 4)
    f = b.add_and(a, o)
    b.add_po(f)
    return b.build(), a >> 1, o >> 1, f >> 1


def test_collect_cone_full():
    aig, a, o, f = build_diamond()
    assert collect_cone(aig, [f]) == sorted([a, o, f])


def test_collect_cone_stops_at_cut():
    aig, a, o, f = build_diamond()
    assert collect_cone(aig, [f], stop=[a, o]) == [f]
    assert collect_cone(aig, [f], stop=[f]) == []


def test_collect_tfo():
    aig, a, o, f = build_diamond()
    assert collect_tfo(aig, [a]) == {a, f}
    tfo_x = collect_tfo(aig, [1])
    assert tfo_x == {1, a, o, f}


def test_supports_agree():
    aig = random_aig(num_pis=6, num_nodes=60, seed=2)
    full = supports(aig)
    sizes = support_sizes(aig)
    for node in range(aig.num_nodes):
        assert support(aig, node) == full[node]
        assert sizes[node] == len(full[node])


def test_support_sizes_with_cap():
    aig = random_aig(num_pis=8, num_nodes=60, seed=3)
    exact = support_sizes(aig)
    capped = support_sizes(aig, cap=3)
    for node in range(aig.num_nodes):
        if exact[node] <= 3:
            assert capped[node] == exact[node]
        else:
            assert capped[node] == 4


def test_supports_capped_sets():
    aig = random_aig(num_pis=8, num_nodes=60, seed=4)
    full = supports(aig)
    capped = supports_capped(aig, 4)
    for node in range(aig.num_nodes):
        if len(full[node]) <= 4:
            assert capped[node] == frozenset(full[node])
        else:
            assert capped[node] is None


def test_po_support_sizes():
    aig = random_aig(num_pis=6, num_nodes=40, seed=5)
    sizes = po_support_sizes(aig)
    full = supports(aig)
    assert sizes == [len(full[p >> 1]) for p in aig.pos]


def test_level_batches_partition_and_order():
    aig = random_aig(num_pis=6, num_nodes=80, seed=6)
    nodes = np.arange(aig.first_and, aig.num_nodes)
    batches = level_batches(aig, nodes)
    levels = aig.levels()
    seen = []
    last_level = -1
    for batch in batches:
        batch_levels = set(int(levels[n]) for n in batch)
        assert len(batch_levels) == 1
        level = batch_levels.pop()
        assert level > last_level
        last_level = level
        seen.extend(int(n) for n in batch)
    assert sorted(seen) == list(range(aig.first_and, aig.num_nodes))


def test_level_batches_empty():
    aig = random_aig(seed=7)
    assert level_batches(aig, []) == []


def _brute_cone(aig, roots, stop):
    """AND nodes reachable backwards from ``roots`` without entering
    ``stop``, by one descending sweep over fanouts (no DFS)."""
    stop = set(stop)
    in_cone = [False] * aig.num_nodes
    for root in roots:
        if 0 <= root < aig.num_nodes:
            in_cone[root] = True
    for node in range(aig.num_nodes - 1, -1, -1):
        if not in_cone[node] or node in stop or not aig.is_and(node):
            in_cone[node] = False
            continue
        for fanin in aig.fanins(node):
            in_cone[fanin >> 1] = True
    return [n for n in range(aig.num_nodes) if in_cone[n]]


def test_collect_cone_matches_brute_force_on_random_aigs():
    rng = np.random.default_rng(23)
    for seed in range(12):
        aig = random_aig(num_pis=5, num_nodes=50, seed=400 + seed)
        ands = list(aig.ands())
        for _ in range(6):
            roots = rng.choice(ands, size=3, replace=False).tolist()
            # PI, constant and out-of-range roots contribute nothing.
            roots += [0, 1, aig.num_nodes, aig.num_nodes + 7, -1]
            stop = rng.choice(
                aig.num_nodes, size=int(rng.integers(0, 6)), replace=False
            ).tolist()
            for stop_set in ([], stop):
                assert collect_cone(aig, roots, stop_set) == _brute_cone(
                    aig, roots, stop_set
                ), (seed, roots, stop_set)
