"""Differential tests of the bitmask cut engine and the vectorised planner.

The cut engine must reproduce the tuple-set reference
(``tests/reference_cuts.py``) cut for cut: the same priority cuts in
the same order, the same per-level batches and the same expansion
count, for every Table I pass, several ``k_l`` and with the similarity
preference on and off.  The window planner must lay out slots, levels
and per-level groups exactly as the per-node dict planner did.
"""

import random

import numpy as np
import pytest

from repro.aig.literals import lit
from repro.aig.traversal import collect_cone
from repro.cuts.enumeration import CutEnumerator
from repro.cuts.selection import CutSelector, similarity
from repro.simulation.bitops import FULL_WORD
from repro.simulation.exhaustive import ExhaustiveSimulator, _FlatBatch
from repro.simulation.window import (
    Pair,
    Window,
    build_window,
    window_local_levels,
)

from conftest import layered_aig, random_aig
from reference_cuts import (
    ReferenceCutEnumerator,
    ReferenceSelector,
    similarity as reference_similarity,
)


def _aigs():
    yield random_aig(num_pis=6, num_nodes=70, seed=501)
    yield random_aig(num_pis=9, num_nodes=90, seed=502)
    yield layered_aig(num_pis=8, layers=7, width=12, seed=503)


def _classes(aig, seed):
    """A ``repr_of`` map with AND, PI and constant representatives, each
    smaller than its members (the engine's invariant)."""
    rnd = random.Random(seed)
    ands = list(aig.ands())
    repr_of = {}
    for member in rnd.sample(ands, len(ands) // 3):
        repr_node = rnd.choice([0] + list(range(1, member)))
        if repr_node in repr_of and repr_of[repr_node] != repr_node:
            continue
        repr_of[member] = repr_node
        repr_of.setdefault(repr_node, repr_node)
    return repr_of


def _run(enumerator, repr_of, only=None):
    batches = [(level, list(nodes)) for level, nodes in enumerator.run(
        repr_of, only=only
    )]
    cuts = [
        enumerator.priority_cuts(n) for n in range(enumerator.aig.num_nodes)
    ]
    return batches, cuts, enumerator.expansions


@pytest.mark.parametrize("pass_id", [1, 2, 3])
@pytest.mark.parametrize("k_l", [4, 6, 8])
@pytest.mark.parametrize("classes", ["none", "similarity", "no-similarity"])
def test_enumerator_matches_tuple_reference(pass_id, k_l, classes):
    for index, aig in enumerate(_aigs()):
        repr_of = {} if classes == "none" else _classes(aig, index)
        use_similarity = classes != "no-similarity"
        fanouts, levels = aig.fanout_counts(), aig.levels()
        fast = CutEnumerator(
            aig, k_l, 5, CutSelector(pass_id, fanouts, levels, use_similarity)
        )
        slow = ReferenceCutEnumerator(
            aig, k_l, 5,
            ReferenceSelector(pass_id, fanouts, levels, use_similarity),
        )
        assert _run(fast, repr_of) == _run(slow, repr_of), (index, aig.name)


def test_enumerator_matches_reference_on_a_cone():
    aig = random_aig(num_pis=7, num_nodes=80, seed=511)
    only = set(collect_cone(aig, [p >> 1 for p in aig.pos[:2]]))
    fanouts, levels = aig.fanout_counts(), aig.levels()
    repr_of = _classes(aig, 7)
    fast = CutEnumerator(aig, 6, 8, CutSelector(2, fanouts, levels))
    slow = ReferenceCutEnumerator(
        aig, 6, 8, ReferenceSelector(2, fanouts, levels)
    )
    assert _run(fast, repr_of, only) == _run(slow, repr_of, only)


@pytest.mark.parametrize("pass_id", [1, 2, 3])
def test_select_matches_tuple_reference(pass_id):
    rnd = random.Random(pass_id)
    aig = random_aig(num_pis=8, num_nodes=60, seed=521)
    fanouts, levels = aig.fanout_counts(), aig.levels()
    fast = CutSelector(pass_id, fanouts, levels)
    slow = ReferenceSelector(pass_id, fanouts, levels)
    nodes = list(range(1, aig.num_nodes))
    for _ in range(40):
        candidates = [
            tuple(sorted(rnd.sample(nodes, rnd.randint(1, 6))))
            for _ in range(rnd.randint(1, 12))
        ]
        reference = [
            tuple(sorted(rnd.sample(nodes, rnd.randint(1, 6))))
            for _ in range(rnd.randint(0, 4))
        ]
        for ref in (None, reference):
            count = rnd.randint(1, 6)
            assert fast.select(candidates, count, ref) == slow.select(
                candidates, count, ref
            )
        for cut in candidates:
            assert similarity(cut, reference) == reference_similarity(
                cut, reference
            )


# ---------------------------------------------------------------------------
# The window planner


def _window_batch(aig, rnd, count):
    """Windows over random cuts of random roots, ordered like a chunk."""
    enum = CutEnumerator(aig, 6, 4, CutSelector.for_network(aig))
    for _ in enum.run({}):
        pass
    ands = list(aig.ands())
    windows = []
    while len(windows) < count:
        a, b = sorted(rnd.sample(ands, 2))
        cuts = enum.priority_cuts(a) + enum.priority_cuts(b)
        cut = rnd.choice(cuts)
        inputs = set(cut) | set(rnd.choice(cuts))
        try:
            windows.append(
                build_window(
                    aig, sorted(inputs), [a, b],
                    [Pair(lit(a), lit(b, rnd.randint(0, 1)), tag=b),
                     Pair(lit(a), 0, tag=a)],
                )
            )
        except ValueError:
            continue  # the other root escapes this cut
    return sorted(windows, key=lambda w: w.tt_words, reverse=True)


def _dict_layout(windows):
    """Slot of every (window, node) member: slot 0 is the constant, then
    each window's inputs and nodes in order."""
    slot = 1
    layout = []
    for window in windows:
        members = {}
        for node in window.inputs:
            members.setdefault(node, slot)
            slot += 1
        for node in window.nodes.tolist():
            members.setdefault(node, slot)
            slot += 1
        layout.append(members)
    return layout, slot


def _dict_plan(aig, windows, layout, active):
    """The per-node planner: input groups by position, AND groups by
    window-local level, each in window-then-node order."""
    f0l, f1l = aig.fanin_lists()

    def slot_of(w_idx, var):
        return 0 if var == 0 else layout[w_idx][var]

    inputs, per_level = {}, {}
    for w_idx, window in enumerate(windows[:active]):
        for position, node in enumerate(window.inputs):
            inputs.setdefault(position, []).append(layout[w_idx][node])
        for node, level in zip(
            window.nodes.tolist(), window_local_levels(aig, window).tolist()
        ):
            f0, f1 = f0l[node], f1l[node]
            per_level.setdefault(level, []).append((
                layout[w_idx][node], slot_of(w_idx, f0 >> 1),
                (f0 & 1) * FULL_WORD, slot_of(w_idx, f1 >> 1),
                (f1 & 1) * FULL_WORD,
            ))
    return inputs, [per_level[level] for level in sorted(per_level)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_flat_batch_matches_dict_planner(seed):
    rnd = random.Random(seed)
    aig = layered_aig(num_pis=9, layers=6, width=10, seed=530 + seed)
    windows = _window_batch(aig, rnd, 12)
    batch = _FlatBatch(aig, windows)
    layout, num_slots = _dict_layout(windows)
    assert batch.num_slots == num_slots

    offset = 0
    for window in windows:
        count = len(window.nodes)
        assert batch.node_level[offset:offset + count].tolist() == (
            window_local_levels(aig, window).tolist()
        )
        offset += count

    pairs = [(w_idx, p) for w_idx, w in enumerate(windows) for p in w.pairs]
    assert batch.pair_window.tolist() == [w_idx for w_idx, _ in pairs]
    assert batch.pair_slot_a.tolist() == [
        layout[w_idx].get(p.lit_a >> 1, 0) for w_idx, p in pairs
    ]
    assert batch.pair_slot_b.tolist() == [
        layout[w_idx].get(p.lit_b >> 1, 0) for w_idx, p in pairs
    ]
    assert batch.pair_flip.tolist() == [
        bool((p.lit_a ^ p.lit_b) & 1) for _, p in pairs
    ]

    for active in range(1, len(windows) + 1):
        plan = batch.plan(active)
        inputs, levels = _dict_plan(aig, windows, layout, active)
        assert {
            pos: slots.tolist() for pos, slots in plan.input_groups.items()
        } == inputs
        assert len(plan.levels) == len(levels)
        for (tgt, s0, m0, s1, m1), expected in zip(plan.levels, levels):
            got = list(zip(
                tgt.tolist(), s0.tolist(), m0[:, 0].tolist(),
                s1.tolist(), m1[:, 0].tolist(),
            ))
            assert got == expected
        assert plan.num_and_slots == sum(
            len(w.nodes) for w in windows[:active]
        )
        assert batch.plan(active) is plan  # cached per prefix


def test_window_missing_a_fanin_is_rejected():
    aig = layered_aig(num_pis=6, layers=4, width=6, seed=540)
    root = max(aig.ands())
    f0, f1 = aig.fanins(root)
    # The root alone over one of its two fanins: the other is neither an
    # input nor a node of the window.
    window = Window(
        inputs=(f0 >> 1,),
        nodes=np.array([root], dtype=np.int64),
        pairs=[Pair(lit(root), 0)],
    )
    assert f1 >> 1 not in (0, f0 >> 1)
    with pytest.raises(ValueError, match="neither an input nor a member"):
        ExhaustiveSimulator().run(aig, [window])


def test_pair_outside_its_window_is_rejected():
    aig = random_aig(num_pis=4, num_nodes=20, seed=541)
    node = max(aig.ands())
    first = build_window(aig, range(1, aig.num_pis + 1), [node])
    second = build_window(aig, range(1, aig.num_pis + 1), [node])
    # Node ``num_nodes + node`` of window 0 has the key of ``node`` in
    # window 1; it must still read as outside window 0.
    first.pairs.append(Pair(lit(node), lit(aig.num_nodes + node)))
    with pytest.raises(ValueError, match="neither an input nor a member"):
        _FlatBatch(aig, [first, second])
