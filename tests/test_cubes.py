"""Cube-and-conquer: split soundness, the distributed race, the checker.

The package's soundness rests on one invariant — the cubes over any
split-PI set are pairwise disjoint and jointly exhaustive — so the
property tests here check it structurally and functionally, the runner
tests drive the distributed race end to end (first-winner cancellation,
staged kills of busy losers, lazy worker respawn, zero leaked shared
memory), and ``--engine cube``'s checker is pinned against brute force.
"""

import glob
import itertools
import logging
import random
import threading
import time

import pytest

from repro.aig.network import Aig
from repro.aig.miter import build_miter
from repro.cubes import (
    Cube,
    CubeChecker,
    CubeRunner,
    choose_split_pis,
    cofactor,
    enumerate_cubes,
    patch_pattern,
)
from repro.sweep.engine import CecStatus
from repro.synth.resyn import compress2

from conftest import brute_force_equivalent, random_aig


def _mutate(aig: Aig, seed: int) -> Aig:
    """Flip one AND fanin phase (the classic synthesis-bug model)."""
    rnd = random.Random(seed)
    f0, f1 = aig.fanin_literals()
    f0 = [int(x) for x in f0]
    f1 = [int(x) for x in f1]
    pos = list(aig.pos)
    if not f0:
        pos[rnd.randrange(len(pos))] ^= 1
    elif rnd.random() < 0.5:
        f0[rnd.randrange(len(f0))] ^= 1
    else:
        f1[rnd.randrange(len(f1))] ^= 1
    return Aig(aig.num_pis, f0, f1, pos, name=aig.name + "_bug")


def _shm_segments() -> int:
    return len(glob.glob("/dev/shm/rs*"))


# ----------------------------------------------------------------------
# Split properties: exhaustive, disjoint, function-preserving
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cubes_are_exhaustive_and_pairwise_disjoint(seed, k):
    """Every assignment of the split PIs lands in exactly one cube."""
    aig = random_aig(num_pis=5 + seed % 3, num_nodes=30, num_pos=2, seed=seed)
    pis = choose_split_pis(aig, k)
    assert len(pis) == len(set(pis)) <= k
    cubes = enumerate_cubes(pis)
    assert len(cubes) == 1 << len(pis)
    for bits in itertools.product([0, 1], repeat=len(pis)):
        assignment = dict(zip(pis, bits))
        matching = [
            cube
            for cube in cubes
            if all(assignment[pi] == v for pi, v in cube.assignments)
        ]
        assert len(matching) == 1, (seed, k, bits)


def test_choose_split_pis_ranks_by_fanout():
    aig = random_aig(num_pis=6, num_nodes=50, num_pos=3, seed=7)
    fanouts = aig.fanout_counts()
    pis = choose_split_pis(aig, 3)
    chosen = [int(fanouts[pi]) for pi in pis]
    # Non-increasing fanout, and nothing with zero fanout is chosen.
    assert chosen == sorted(chosen, reverse=True)
    assert all(count > 0 for count in chosen)


@pytest.mark.parametrize("seed", range(8))
def test_cofactor_preserves_interface_and_function(seed):
    """``cofactor(aig, cube)`` equals ``aig`` with the cube's PIs pinned:
    same PI/PO interface, same value on every input extending the cube."""
    aig = random_aig(num_pis=6, num_nodes=40, num_pos=3, seed=seed)
    rnd = random.Random(seed)
    for cube in enumerate_cubes(choose_split_pis(aig, 2)):
        cof = cofactor(aig, cube)
        assert cof.num_pis == aig.num_pis
        assert len(cof.pos) == len(aig.pos)
        for _ in range(16):
            pattern = [rnd.randint(0, 1) for _ in range(aig.num_pis)]
            patched = patch_pattern(pattern, aig, cube)
            assert cof.evaluate(patched) == aig.evaluate(patched), (
                seed, str(cube), patched,
            )


def test_patch_pattern_overlays_cube_values_only():
    aig = random_aig(num_pis=5, num_nodes=20, num_pos=2, seed=3)
    cube = Cube(((1, 1), (4, 0)))
    patched = patch_pattern([0, 0, 1, 1, 1], aig, cube)
    assert patched == [1, 0, 1, 0, 1]
    assert not Cube(()).assignments  # the monolith patches nothing
    assert Cube(()).is_monolith


def test_cube_list_round_trip():
    cube = Cube(((2, 1), (5, 0)))
    assert Cube.from_list(cube.as_list()) == cube
    assert str(cube) == "pi2=1,pi5=0"
    assert str(Cube(())) == "monolith"


# ----------------------------------------------------------------------
# The distributed race
# ----------------------------------------------------------------------


def test_runner_race_equivalent_and_nonequivalent():
    """One warm runner settles an UNSAT and then a SAT query, reusing
    its workers, and leaks no shared-memory segments."""
    before = _shm_segments()
    original = random_aig(num_pis=6, num_nodes=50, num_pos=2, seed=21)
    eq_miter = build_miter(original, compress2(original))
    buggy = _mutate(compress2(original), 21)
    neq_miter = build_miter(original, buggy)
    with CubeRunner(num_workers=2) as runner:
        cubes = enumerate_cubes(choose_split_pis(eq_miter, 2))
        outcome = runner.solve(eq_miter, cubes, conflict_limit=100_000)
        assert outcome.status == "equivalent"
        assert outcome.stats["winner"] in ("monolith", "all-cubes")
        cubes = enumerate_cubes(choose_split_pis(neq_miter, 2))
        outcome = runner.solve(neq_miter, cubes, conflict_limit=100_000)
        assert outcome.status == "nonequivalent"
        # The patched model is a genuine counter-example of the miter.
        assert 1 in neq_miter.evaluate(outcome.cex)
        assert runner.races == 2
    assert _shm_segments() == before


def test_runner_kills_busy_losers_after_first_winner():
    """Losing cubes still solving when the winner settles are
    staged-killed, and the next race lazily respawns their workers."""
    original = random_aig(num_pis=6, num_nodes=40, num_pos=2, seed=33)
    miter = build_miter(original, compress2(original))
    cubes = enumerate_cubes(choose_split_pis(miter, 2))
    with CubeRunner(num_workers=3, terminate_grace=0.2) as runner:
        # Cubes park for 30 s before solving; the (undelayed) monolith
        # proves UNSAT immediately and must cancel all four cubes:
        # queued ones dropped from the backlog, busy ones killed.
        start = time.perf_counter()
        outcome = runner.solve(
            miter, cubes, conflict_limit=100_000, cube_delay=30.0
        )
        elapsed = time.perf_counter() - start
        assert outcome.status == "equivalent"
        assert outcome.stats["winner"] == "monolith"
        assert outcome.stats["cancelled"] == len(cubes)
        assert outcome.stats["killed"] >= 1
        assert elapsed < 20.0, "losers were waited on, not cancelled"
        killed_workers = [w for w in runner._workers if not w.alive]
        assert killed_workers, "staged kill left every worker alive"
        # The warm pool recovers: the next race respawns dead workers
        # and still reaches a verdict.  Monolith-only, so this race has
        # no losers to kill and every respawned worker stays alive.
        outcome = runner.solve(miter, [], conflict_limit=100_000)
        assert outcome.status == "equivalent"
        assert all(w.alive for w in runner._workers)
    assert _shm_segments() == 0


def test_runner_ignores_a_result_left_over_from_an_earlier_race():
    """A loser stopped just after posting its result leaves that message
    on the queue; it must not settle a job of the next race."""
    original = random_aig(num_pis=6, num_nodes=50, num_pos=2, seed=21)
    miter = build_miter(original, compress2(original))
    cubes = enumerate_cubes(choose_split_pis(miter, 2))
    with CubeRunner(num_workers=1) as runner:
        first = runner.solve(miter, cubes, conflict_limit=100_000)
        assert first.status == "equivalent"
        # A late "sat" for the first race's cube job 1.
        runner._runtime.result_queue.put({
            "kind": "result", "job": 1, "index": 0,
            "status": "sat", "cex": [0] * miter.num_pis,
        })
        second = runner.solve(miter, cubes, conflict_limit=100_000)
    assert second.status == "equivalent"


def test_runner_deadline_returns_unknown():
    """A race whose deadline expires reports unknown, not a verdict."""
    original = random_aig(num_pis=6, num_nodes=40, num_pos=2, seed=11)
    miter = build_miter(original, compress2(original))
    cubes = enumerate_cubes(choose_split_pis(miter, 2))
    with CubeRunner(num_workers=2, terminate_grace=0.2) as runner:
        outcome = runner.solve(
            miter,
            cubes,
            include_monolith=False,
            cube_delay=30.0,
            deadline=time.perf_counter() + 0.5,
        )
        assert outcome.status == "unknown"
        assert outcome.stats.get("timeout") is True
    assert _shm_segments() == 0


def test_runner_race_with_a_live_thread_finishes():
    """A race started from a process with a live thread still settles.

    The runner's workers are not forked from the calling process, so
    they cannot inherit a lock that thread holds (the hazard of forking
    a threaded test runner or bench harness).  The race runs under a
    watchdog so a regression fails here instead of hanging the suite.
    """
    original = random_aig(num_pis=6, num_nodes=50, num_pos=2, seed=21)
    miter = build_miter(original, compress2(original))
    cubes = enumerate_cubes(choose_split_pis(miter, 2))
    stop = threading.Event()
    log = logging.getLogger("repro.test.live_thread")

    def chatter():
        while not stop.is_set():
            log.debug("holding the logging locks")

    thread = threading.Thread(target=chatter, daemon=True)
    outcomes = []

    def race():
        with CubeRunner(num_workers=2, terminate_grace=0.2) as runner:
            outcomes.append(runner.solve(
                miter, cubes, conflict_limit=100_000,
                deadline=time.perf_counter() + 60.0,
            ))

    thread.start()
    try:
        watched = threading.Thread(target=race, daemon=True)
        watched.start()
        watched.join(timeout=120.0)
    finally:
        stop.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert not watched.is_alive(), "cube race hung"
    assert [o.status for o in outcomes] == ["equivalent"]
    assert _shm_segments() == 0


# ----------------------------------------------------------------------
# The standalone checker (--engine cube)
# ----------------------------------------------------------------------


def test_cube_checker_verdicts_match_brute_force():
    original = random_aig(num_pis=6, num_nodes=45, num_pos=3, seed=5)
    optimized = compress2(original)
    checker = CubeChecker(workers=2)
    result = checker.check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT
    buggy = _mutate(optimized, 5)
    equal, _ = brute_force_equivalent(original, buggy)
    assert not equal
    result = checker.check(original, buggy)
    assert result.status is CecStatus.NONEQUIVALENT
    assert original.evaluate(result.cex) != buggy.evaluate(result.cex)
    assert _shm_segments() == 0
