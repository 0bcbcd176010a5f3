"""Adaptive per-pair scheduling: verdict equivalence and lane soundness.

The scheduler's contract is that lane choice affects speed, never the
verdict: the property sweep here runs ~100 seeded miters (equivalent
transforms and injected bugs) through the adaptive flow and the fixed
pipeline and requires identical verdicts, then pins every lane with
``REPRO_SCHED_FORCE`` to show each one is individually sound (forced
runs still prove equivalences and still find the injected bug's
counter-example, because unresolved pairs reroute to the SAT backstop).
Routing reads no clock: the default path does the same work on the
same input however fast time appears to pass.
"""

import math
import random
import time
from pathlib import Path

import pytest

from repro import read_aiger
from repro.aig.network import Aig
from repro.bench import generators as gen
from repro.obs import Tracer, use_tracer
from repro.portfolio.checker import CombinedChecker
from repro.sched import (
    FORCE_ENV,
    LANES,
    AdaptiveSweeper,
    CostModel,
    FeatureExtractor,
    SatBatchLane,
)
from repro.sched.features import PairFeatures
from repro.sweep.config import EngineConfig
from repro.sweep.engine import CecStatus
from repro.sweep.state import SweepState
from repro.synth.balance import balance
from repro.synth.resyn import compress2
from repro.synth.rewrite import cut_rewrite

from conftest import brute_force_equivalent, random_aig

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def _mutate(aig: Aig, seed: int) -> Aig:
    """Flip one AND fanin phase — the classic synthesis-bug model."""
    rnd = random.Random(seed)
    f0, f1 = aig.fanin_literals()
    f0 = [int(x) for x in f0]
    f1 = [int(x) for x in f1]
    pos = list(aig.pos)
    if not f0:  # the transform collapsed every AND; flip a PO instead
        pos[rnd.randrange(len(pos))] ^= 1
    elif rnd.random() < 0.5:
        f0[rnd.randrange(len(f0))] ^= 1
    else:
        f1[rnd.randrange(len(f1))] ^= 1
    return Aig(aig.num_pis, f0, f1, pos, name=aig.name + "_bug")


def _case(seed: int):
    """One seeded miter instance: (original, other, expected_equal)."""
    original = random_aig(
        num_pis=5 + seed % 4, num_nodes=40 + seed % 30, num_pos=3,
        seed=seed,
    )
    transform = [balance, lambda a: cut_rewrite(a, 4), compress2][seed % 3]
    if seed % 2 == 0:
        other = transform(original)
    else:
        other = _mutate(transform(original), seed)
    equal, _ = brute_force_equivalent(original, other)
    return original, other, equal


# ---------------------------------------------------------------------------
# Property sweep: adaptive ≡ fixed on ~100 seeded miters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed_block", range(10))
def test_adaptive_and_fixed_verdicts_identical(seed_block):
    """10 blocks × 10 seeds = 100 miters: both flows, same verdicts,
    and every verdict matches brute force."""
    for seed in range(seed_block * 10, seed_block * 10 + 10):
        original, other, equal = _case(seed)
        fixed = CombinedChecker(EngineConfig.fast(), sched="fixed").check(
            original, other
        )
        auto = CombinedChecker(EngineConfig.fast(), sched="auto").check(
            original, other
        )
        assert fixed.status == auto.status, seed
        expected = CecStatus.EQUIVALENT if equal else CecStatus.NONEQUIVALENT
        assert auto.status is expected, seed
        if not equal:
            assert original.evaluate(auto.cex) != other.evaluate(auto.cex), (
                seed
            )


# ---------------------------------------------------------------------------
# Forced single lanes stay sound and complete
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lane", LANES)
def test_forced_lane_still_proves_and_disproves(lane, monkeypatch):
    """Pinning every dispatch to one lane must not change any verdict:
    lanes only settle pairs with sound certificates, the rest reroute
    to the SAT backstop, and the final PO proof is always exact."""
    monkeypatch.setenv(FORCE_ENV, lane)
    for seed in range(8):
        original, other, equal = _case(seed)
        sweeper = AdaptiveSweeper(EngineConfig.fast())
        assert CostModel().forced_lane() == lane
        result = sweeper.check(original, other)
        expected = CecStatus.EQUIVALENT if equal else CecStatus.NONEQUIVALENT
        assert result.status is expected, (lane, seed)
        if not equal:
            assert original.evaluate(result.cex) != other.evaluate(
                result.cex
            ), (lane, seed)


def test_force_env_with_unknown_lane_is_ignored(monkeypatch):
    monkeypatch.setenv(FORCE_ENV, "quantum")
    assert CostModel().forced_lane() is None


# ---------------------------------------------------------------------------
# Cost model unit behaviour
# ---------------------------------------------------------------------------


def _features(**overrides) -> PairFeatures:
    base = dict(
        support_a=4, support_b=4, union_size=6, level=10, class_size=2,
        agreement_words=32, node_is_and=True,
        union_support=frozenset(range(6)),
    )
    base.update(overrides)
    return PairFeatures(**base)


def test_static_costs_encode_feasibility():
    model = CostModel()
    wide = _features(union_size=-1, union_support=None)
    assert math.isinf(model.static_cost("sim", wide))
    pi_pair = _features(node_is_and=False)
    assert math.isinf(model.static_cost("cut", pi_pair))
    beyond_bdd = _features(union_size=model.bdd_cap + 1)
    assert math.isinf(model.static_cost("bdd", beyond_bdd))
    # SAT is the backstop: finite on everything.
    for f in (wide, pi_pair, beyond_bdd):
        assert math.isfinite(model.static_cost("sat", f))
    # choose() always lands on a feasible lane.
    hopeless = _features(
        union_size=-1, union_support=None, node_is_and=False
    )
    assert model.choose(hopeless) in ("bdd", "sat")


def test_mispredict_penalty_grows_and_decays():
    model = CostModel()
    f = _features()
    base = model.predicted_cost("sim", f)
    model.record("sim", resolved=False)
    assert model.predicted_cost("sim", f) > base
    assert model.mispredicts == 1
    for _ in range(10):
        model.record("sim", resolved=True)
    assert model.penalty["sim"] == 1.0
    assert model.predicted_cost("sim", f) == base


def test_choose_depends_only_on_features_and_penalties():
    """No RNG and no clock: equal features under equal penalties pick
    the same lane, call after call and model after model, and only a
    penalty moves a choice."""
    cases = [
        _features(),
        _features(union_size=-1, union_support=None),
        _features(node_is_and=False),
        _features(level=80, class_size=9),
    ]
    first, second = CostModel(), CostModel()
    for f in cases:
        picks = {first.choose(f) for _ in range(20)} | {second.choose(f)}
        assert len(picks) == 1, f
    f = _features()
    assert first.choose(f) == "sim"
    for _ in range(10):
        first.mispredict("sim")
    assert first.choose(f) != "sim"
    assert second.choose(f) == "sim"


# ---------------------------------------------------------------------------
# Feature extraction off the live sweep state
# ---------------------------------------------------------------------------


def test_feature_extractor_reads_sweep_state():
    miter = gen.multiplier(4)
    state = SweepState(miter, num_random_words=4, seed=1)
    extractor = FeatureExtractor(state, cap=12)
    classes = state.classes()
    sizes = extractor.class_sizes(classes)
    checked = 0
    for repr_node, node, phase in classes.all_pairs():
        if not (miter.is_and(node) or miter.is_pi(node)):
            continue
        f = extractor.pair(repr_node, node, sizes.get(node, 2))
        assert f.agreement_words == state.agreement_words
        assert f.class_size >= 2
        assert f.level >= 0
        if f.union_support is not None:
            assert f.union_size == len(f.union_support)
            assert f.union_size <= 2 * 12
        else:
            assert f.union_size == -1
        checked += 1
    assert checked > 0


def test_feature_tables_memoised_until_network_changes():
    miter = gen.adder(6)
    state = SweepState(miter, num_random_words=4, seed=1)
    first = state.support_sets(8)
    assert state.support_sets(8) is first  # same network, same cap
    assert state.support_sets(10) is not first  # cap change recomputes


# ---------------------------------------------------------------------------
# Batched SAT lane: shared solver, pairs > solves
# ---------------------------------------------------------------------------


def test_sat_batch_shares_one_solver_across_pairs():
    tracer = Tracer(process_name="test-sched")
    with use_tracer(tracer):
        original = gen.multiplier(4)
        sweeper = AdaptiveSweeper(EngineConfig.fast())
        result = sweeper.check(original, compress2(original))
        counters = tracer.metrics.as_dict()["counters"]
    assert result.status is CecStatus.EQUIVALENT
    # Every lane counter is exported (pre-registered even when zero).
    for lane in LANES:
        assert f"sched.dispatch.{lane}" in counters
    assert "sched.mispredict" in counters
    pairs = counters.get("sat.batch.pairs", 0)
    solves = counters.get("sat.batch.solves", 0)
    if pairs:
        # Batching invariant: many pairs per solver instance.
        assert solves < pairs


def test_sat_batch_budget_scales_with_level():
    lane = SatBatchLane(conflict_budget=1_000)
    shallow = lane.budget_for(_features(level=0))
    deep = lane.budget_for(_features(level=64))
    assert shallow == 1_000
    assert deep > shallow


# ---------------------------------------------------------------------------
# Integration details
# ---------------------------------------------------------------------------


def test_combined_rejects_unknown_sched_mode():
    with pytest.raises(ValueError):
        CombinedChecker(sched="turbo")


def test_adaptive_report_keeps_engine_phase_records():
    original = gen.voter(13)
    checker = CombinedChecker(EngineConfig.fast(), sched="auto")
    result = checker.check(original, compress2(original))
    assert result.status is CecStatus.EQUIVALENT
    kinds = [p.kind for p in result.report.phases]
    assert "P" in kinds
    timings = checker.timings
    assert timings.engine_seconds > 0
    assert timings.total_seconds >= timings.engine_seconds


# ---------------------------------------------------------------------------
# The default path repeats its work
# ---------------------------------------------------------------------------

#: Counters of what the default path did: where each pair went, how the
#: SAT batches were filled, and how much cut and simulation work ran.
WORK_COUNTERS = tuple(f"sched.dispatch.{lane}" for lane in LANES) + (
    "sched.mispredict",
    "sat.batch.pairs",
    "sat.batch.solves",
    "cuts.expansions",
    "sim.words_simulated",
)


def _traced_work(checker, a, b):
    tracer = Tracer()
    with use_tracer(tracer):
        result = checker.check(a, b)
    counters = {
        name: tracer.metrics.counter_value(name) for name in WORK_COUNTERS
    }
    phases = [
        (p.kind, p.candidates, p.proved, p.cex) for p in result.report.phases
    ]
    return result.status, counters, phases


@pytest.mark.parametrize("name", ["voter23", "adder11"])
def test_default_path_repeats_its_work_on_a_faster_clock(name, monkeypatch):
    """A frozen benchmark pair (read only) goes twice through one
    default ``CombinedChecker``, the second time with
    ``time.perf_counter`` running 3x fast: the verdict, every dispatch
    and SAT-batch counter, the cut and simulation work and the phase
    records must read the same.  Routing on measured seconds, or
    carrying a learned model from one check to the next, breaks this.
    voter23 settles in the sim, cut and BDD lanes; adder11 also fills a
    batched SAT solve."""
    a = read_aiger(INPUTS / f"{name}.aag")
    b = read_aiger(INPUTS / f"{name}_compress2.aag")
    checker = CombinedChecker()
    first = _traced_work(checker, a, b)
    real = time.perf_counter
    origin = real()
    monkeypatch.setattr(
        time, "perf_counter", lambda: origin + 3.0 * (real() - origin)
    )
    second = _traced_work(checker, a, b)
    assert first == second
    status, counters, phases = first
    assert status is CecStatus.EQUIVALENT
    # The residue really went through the scheduler's lanes.
    assert sum(counters[f"sched.dispatch.{lane}"] for lane in LANES) > 0
    assert [kind for kind, *_ in phases] == ["P", "SCHED"]
