"""Randomized cross-checks for the incremental SweepState core.

The central invariant of :mod:`repro.sweep.state` is *bit-exactness*:
after any sequence of merges/PO rewrites, the incrementally maintained
network must be structurally identical to the historical
rebuild-from-scratch path, and the carried signature matrix must equal a
fresh full re-simulation of the reduced network.  These tests enforce
both on hundreds of seeded random networks, using the retained
sequential-builder ``*_reference`` implementations as independent
oracles (``tests/reference_transforms.py``).
"""

from __future__ import annotations

import itertools
import pickle
import random

import numpy as np
import pytest

from conftest import layered_aig, random_aig
from reference_transforms import (
    rebuild_with_replacements_reference,
    relabel_compact_reference,
)
from repro.aig.literals import CONST0, lit, lit_var
from repro.aig.miter import build_miter
from repro.aig.network import Aig
from repro.aig.rebuild import reachable_and_mask, rebuild_network
from repro.aig.transform import (
    cleanup,
    rebuild_with_replacements,
    relabel_compact,
)
from repro.bench.generators import multiplier
from repro.cache import CacheConfig, SweepCache
from repro.obs import Tracer, use_tracer
from repro.simulation.partial import pack_patterns, simulate_words
from repro.sweep.classes import EquivalenceClasses
from repro.sweep.config import EngineConfig
from repro.sweep.engine import CecStatus, SimSweepEngine
from repro.sweep.state import SweepState
from repro.synth.resyn import compress2


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _assert_same_network(a: Aig, b: Aig) -> None:
    assert a.num_pis == b.num_pis
    assert a.num_ands == b.num_ands
    assert list(a.pos) == list(b.pos)
    af0, af1 = a.fanin_literals()
    bf0, bf1 = b.fanin_literals()
    assert np.array_equal(af0, bf0)
    assert np.array_equal(af1, bf1)


def _exhaustive_tables(aig: Aig) -> np.ndarray:
    patterns = list(itertools.product([0, 1], repeat=aig.num_pis))
    return simulate_words(aig, pack_patterns(patterns, aig.num_pis))


def _true_merges(aig: Aig, rnd: random.Random, fraction: float = 1.0):
    """Proved-equivalence merge batch from exhaustive simulation.

    Only AND nodes are merged (as the engine does); ``fraction``
    subsamples the batch so multi-batch sequences leave work for later
    rounds.
    """
    classes = EquivalenceClasses.from_tables(_exhaustive_tables(aig))
    merges = {}
    for repr_node, node, phase in classes.all_pairs():
        if aig.is_and(node) and rnd.random() < fraction:
            merges[node] = (repr_node, phase)
    return merges


def _merges_to_replacements(merges):
    return {n: lit(t, p) for n, (t, p) in merges.items()}


# ----------------------------------------------------------------------
# Vectorised rebuild vs sequential-builder oracle (>= 200 random AIGs)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("block", range(8))
def test_rebuild_matches_reference_randomized(block):
    """220 seeded random AIGs: networks AND node maps are bit-identical."""
    for seed in range(block * 28, block * 28 + 28):
        rnd = random.Random(seed * 7919)
        num_pis = 3 + seed % 5
        num_nodes = 10 + (seed * 13) % 70
        aig = random_aig(
            num_pis=num_pis,
            num_nodes=num_nodes,
            num_pos=1 + seed % 4,
            seed=seed,
        )

        got_aig, got_map = relabel_compact(aig)
        ref_aig, ref_map = relabel_compact_reference(aig)
        _assert_same_network(got_aig, ref_aig)
        assert got_map == ref_map

        merges = _true_merges(aig, rnd, fraction=0.8)
        replacements = _merges_to_replacements(merges)
        got_aig, got_map = rebuild_with_replacements(aig, replacements)
        ref_aig, ref_map = rebuild_with_replacements_reference(
            aig, replacements
        )
        _assert_same_network(got_aig, ref_aig)
        assert got_map == ref_map


def test_rebuild_resolves_chains_like_reference():
    """Chained replacements (a→b, b→c) resolve transitively."""
    checked = 0
    for seed in range(200):
        aig = random_aig(num_pis=4, num_nodes=40, num_pos=2, seed=seed)
        classes = EquivalenceClasses.from_tables(_exhaustive_tables(aig))
        chain = None
        for eq_class in classes:
            ands = [
                n for n in eq_class.members[1:] if aig.is_and(n)
            ]
            if len(ands) >= 2:
                phases = {
                    n: p
                    for n, p in zip(eq_class.members, eq_class.phases)
                }
                chain = (eq_class.members[0], phases, ands)
                break
        if chain is None:
            continue
        repr_node, phases, ands = chain
        # Link each AND member to the *previous* member, not the
        # representative: the rebuild must compress the chain.
        replacements = {}
        prev = repr_node
        for node in ands:
            phase = phases[node] ^ phases[prev]
            replacements[node] = lit(prev, phase)
            prev = node
        got_aig, got_map = rebuild_with_replacements(aig, replacements)
        ref_aig, ref_map = rebuild_with_replacements_reference(
            aig, replacements
        )
        _assert_same_network(got_aig, ref_aig)
        assert got_map == ref_map
        checked += 1
    assert checked >= 50


def test_replacement_cycle_raises():
    aig = random_aig(num_pis=4, num_nodes=20, seed=3)
    a = aig.first_and
    b = aig.first_and + 1
    # The error must name the offending cycle (a -> b -> a).
    with pytest.raises(ValueError, match=f"{a} -> {b} -> {a}"):
        rebuild_with_replacements(aig, {a: lit(b), b: lit(a)})


def test_replacement_forward_chain_raises():
    aig = random_aig(num_pis=4, num_nodes=20, seed=4)
    node = aig.first_and + 2
    target = aig.first_and + 5
    with pytest.raises(ValueError, match="smaller id"):
        rebuild_with_replacements(aig, {node: lit(target)})


def test_replacement_chain_through_larger_id_resolves():
    """A forward intermediate target is fine if the chain ends lower."""
    aig = random_aig(num_pis=4, num_nodes=30, seed=5)
    low = aig.first_and
    mid = aig.first_and + 4
    high = aig.first_and + 9
    replacements = {mid: lit(high), high: lit(low, 1)}
    got_aig, _ = rebuild_with_replacements(aig, replacements)
    direct_aig, _ = rebuild_with_replacements(
        aig, {mid: lit(low, 1), high: lit(low, 1)}
    )
    _assert_same_network(got_aig, direct_aig)


# ----------------------------------------------------------------------
# Vectorised reachability
# ----------------------------------------------------------------------


def test_reachable_mask_matches_python_traversal():
    for seed in range(60):
        aig = (
            random_aig(num_pis=5, num_nodes=50, num_pos=3, seed=seed)
            if seed % 2
            else layered_aig(num_pis=6, layers=4, width=8, seed=seed)
        )
        f0, f1 = aig.fanin_literals()
        mask = reachable_and_mask(
            aig.num_nodes, aig.first_and, f0 >> 1, f1 >> 1,
            np.asarray(aig.pos, dtype=np.int64) >> 1,
        )
        seen = set()
        stack = [p >> 1 for p in aig.pos]
        while stack:
            node = stack.pop()
            if node in seen or node < aig.first_and:
                continue
            seen.add(node)
            i = node - aig.first_and
            stack.append(int(f0[i]) >> 1)
            stack.append(int(f1[i]) >> 1)
        expected = np.zeros(aig.num_nodes, dtype=bool)
        for node in seen:
            expected[node] = True
        assert np.array_equal(mask, expected)


# ----------------------------------------------------------------------
# SweepState: incremental == from-scratch (the tentpole invariant)
# ----------------------------------------------------------------------


def test_sweep_state_incremental_matches_scratch_randomized():
    """200 seeded cases: multi-batch merges + pool growth.

    After every batch the state network must equal the reference
    rebuild of the previous network, and the carried signature matrix
    must equal a fresh full simulation of the current network.
    """
    for seed in range(200):
        rnd = random.Random(seed * 104729)
        aig = random_aig(
            num_pis=3 + seed % 4,
            num_nodes=15 + (seed * 11) % 60,
            num_pos=1 + seed % 3,
            seed=seed + 1000,
        )
        state = SweepState(cleanup(aig), num_random_words=2, seed=seed)
        state.tables()  # materialise so every batch exercises the carry
        for batch in range(3):
            current = state.network()
            merges = _true_merges(current, rnd, fraction=0.7)
            if not merges:
                break
            ref_aig, _ = rebuild_with_replacements_reference(
                current, _merges_to_replacements(merges)
            )
            state.apply_merges(merges)
            _assert_same_network(state.network(), ref_aig)
            carried = state.tables()
            fresh = simulate_words(state.network(), state.pi_words)
            assert np.array_equal(carried, fresh)
            if batch == 0:
                # Growing the pool must only append simulated columns.
                pattern = [rnd.randint(0, 1) for _ in range(aig.num_pis)]
                state.add_cex_patterns([pattern])
                widened = state.tables()
                fresh = simulate_words(state.network(), state.pi_words)
                assert np.array_equal(widened, fresh)


def test_sweep_state_set_pos_matches_cleanup():
    for seed in range(40):
        aig = random_aig(num_pis=5, num_nodes=40, num_pos=4, seed=seed)
        state = SweepState(cleanup(aig), num_random_words=1, seed=seed)
        state.tables()
        current = state.network()
        new_pos = list(current.pos)
        new_pos[seed % len(new_pos)] = CONST0
        reference, _ = relabel_compact_reference(
            Aig(
                current.num_pis,
                current.fanin_literals()[0],
                current.fanin_literals()[1],
                new_pos,
                name=current.name,
            )
        )
        state.set_pos(new_pos)
        _assert_same_network(state.network(), reference)
        assert np.array_equal(
            state.tables(), simulate_words(state.network(), state.pi_words)
        )


def test_sweep_state_classes_remap_matches_from_tables():
    checked = 0
    for seed in range(80):
        rnd = random.Random(seed)
        aig = random_aig(num_pis=4, num_nodes=40, num_pos=2, seed=seed)
        miter = cleanup(aig)
        state = SweepState(miter, num_random_words=2, seed=seed)
        before = state.classes()
        if len(before) == 0:
            continue
        merges = _true_merges(miter, rnd, fraction=0.6)
        if not merges:
            continue
        state.apply_merges(merges)
        remapped = state.classes()
        scratch = EquivalenceClasses.from_tables(
            simulate_words(state.network(), state.pi_words)
        )
        got = [(c.members, c.phases) for c in remapped]
        want = [(c.members, c.phases) for c in scratch]
        assert got == want
        checked += 1
    assert checked >= 20


def test_sweep_state_origin_literals_track_functions():
    """Any original node maps to a current literal of equal function."""
    for seed in range(30):
        rnd = random.Random(seed)
        aig = cleanup(
            random_aig(num_pis=4, num_nodes=30, num_pos=2, seed=seed)
        )
        state = SweepState(aig, num_random_words=1, seed=seed)
        original = _exhaustive_tables(aig)
        for _ in range(2):
            merges = _true_merges(state.network(), rnd, fraction=0.8)
            if not merges:
                break
            state.apply_merges(merges)
        assert state.origin_valid
        now = _exhaustive_tables(state.network())
        for node in range(aig.num_nodes):
            mapped = int(state.origin_literals[node])
            if mapped < 0:
                continue
            want = original[node]
            got = now[mapped >> 1]
            if mapped & 1:
                got = ~got
                # Only the low 2^num_pis bits of the word are defined.
                width = 1 << aig.num_pis
                if width < 64:
                    keep = np.uint64((1 << width) - 1)
                    got = got & keep
                    want = want & keep
            assert np.array_equal(got, want)


def test_sweep_state_rejects_foreign_network():
    aig = cleanup(random_aig(num_pis=4, num_nodes=20, seed=1))
    other = cleanup(random_aig(num_pis=4, num_nodes=25, seed=2))
    state = SweepState(aig)
    with pytest.raises(ValueError):
        state.tables(other)
    with pytest.raises(ValueError):
        state.classes(other)
    # The historical call shape with the state's own network still works.
    assert state.tables(aig) is state.tables()


def test_sweep_state_pickles_and_rebuilds_lazily():
    rnd = random.Random(7)
    aig = cleanup(random_aig(num_pis=4, num_nodes=40, num_pos=2, seed=7))
    state = SweepState(aig, num_random_words=2, seed=7)
    merges = _true_merges(aig, rnd)
    if merges:
        state.apply_merges(merges)
    before = state.tables().copy()
    clone = pickle.loads(pickle.dumps(state))
    _assert_same_network(clone.network(), state.network())
    assert np.array_equal(clone.pi_words, state.pi_words)
    assert np.array_equal(clone.origin_literals, state.origin_literals)
    assert np.array_equal(clone.tables(), before)


def test_sweep_state_pickle_round_trip():
    """What a portfolio worker ships with its residue is what the
    finisher adopts: the carried matrices survive bit for bit, so the
    receiving side only simulates pattern words appended since."""
    config = EngineConfig(
        k_P=6, k_p=4, k_g=4, k_l=4, C=4, num_random_words=4,
        max_local_phases=1, max_global_iterations=1,
    )
    miter = build_miter(multiplier(4), compress2(multiplier(4)))
    result = SimSweepEngine(config).check_miter(miter)
    assert result.status is CecStatus.UNDECIDED
    state = result.sim_state
    state.bound_cache(SweepCache(CacheConfig()))  # computes the salt
    state.add_cex_patterns([[1, 0] * (state.num_pis // 2)])
    assert state.carried_words > 0 and state._salt is not None
    clone = pickle.loads(pickle.dumps(state))
    _assert_same_network(clone.network(), state.network())
    assert clone.matches(result.reduced_miter)
    assert clone.carried_words == state.carried_words
    assert np.array_equal(clone._tables, state._tables)
    assert np.array_equal(clone._salt, state._salt)
    assert np.array_equal(clone.pi_words, state.pi_words)
    assert np.array_equal(clone.origin_literals, state.origin_literals)
    assert clone.origin_valid == state.origin_valid
    assert clone.rebuilds == state.rebuilds
    assert clone.num_cex == state.num_cex == 1
    appended = clone.pi_words.shape[1] - clone._tables.shape[1]
    tracer = Tracer("test")
    with use_tracer(tracer):
        tables = clone.tables()
    assert np.array_equal(tables, state.tables())
    counters = tracer.metrics.counters
    assert counters.get("state.initial_words", 0) == 0
    assert counters["state.recomputed_words"] == (
        appended * clone.network().num_nodes
    )


def test_sweep_state_emits_rebuild_spans_and_counters():
    rnd = random.Random(11)
    aig = cleanup(random_aig(num_pis=4, num_nodes=50, num_pos=2, seed=11))
    with use_tracer(Tracer()) as tracer:
        state = SweepState(aig, num_random_words=2, seed=11)
        state.tables()
        merges = _true_merges(aig, rnd)
        assert merges, "seed must produce at least one provable merge"
        state.apply_merges(merges)
        names = [span[0] for span in tracer.spans()]
        assert "rebuild" in names
        counters = tracer.metrics.counters
        assert counters.get("state.rebuilds", 0) >= 1
        assert counters.get("state.carried_words", 0) > 0
        assert counters.get("state.recomputed_words", 0) == 0
        rebuild_span = next(
            s for s in tracer.spans() if s[0] == "rebuild"
        )
        attrs = rebuild_span[4]
        assert attrs["merges"] == len(merges)
        assert attrs["ands_after"] <= attrs["ands_before"]
        assert attrs["carried_words"] > 0


def test_rebuild_network_prune_before_matches_cleanup_reference():
    for seed in range(40):
        aig = random_aig(num_pis=5, num_nodes=45, num_pos=3, seed=seed)
        got = rebuild_network(aig, None, prune="before").aig
        ref, _ = relabel_compact_reference(aig)
        _assert_same_network(got, ref)
