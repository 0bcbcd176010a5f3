"""Tests for the functional-knowledge cache (:mod:`repro.cache`)."""

import json
import os
import warnings

import pytest

from repro.aig.builder import AigBuilder
from repro.aig.miter import build_miter
from repro.aig.network import negate_outputs
from repro.bench import generators as gen
from repro.cache import (
    EQUIVALENT,
    INCONCLUSIVE,
    NONEQUIVALENT,
    CacheConfig,
    CacheCounters,
    MiterFingerprints,
    ProofStore,
    SweepCache,
    Verdict,
)
from repro.cache.fingerprint import remove_var, shrink_table, var_projection
from repro.cache.store import FORMAT_VERSION, PROOFS_FILENAME
from repro.portfolio.checker import CombinedChecker
from repro.sat.sweeping import SatSweepChecker
from repro.sweep.config import EngineConfig
from repro.sweep.engine import CecStatus, SimSweepEngine


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def _two_ways_and3():
    """x1&x2&x3 built with two different association orders."""
    b = AigBuilder(3)
    x1, x2, x3 = 2, 4, 6
    left = b.add_and(b.add_and(x1, x2), x3)
    right = b.add_and(x1, b.add_and(x2, x3))
    b.add_po(left)
    b.add_po(right)
    return b.build(), left, right


def test_truth_table_keys_identify_equal_functions():
    aig, left, right = _two_ways_and3()
    fp = MiterFingerprints(aig)
    assert left != right  # different nodes...
    assert fp.key_of(left >> 1) == fp.key_of(right >> 1)  # ...same function


def test_npn_equivalent_but_different_functions_get_different_keys():
    # AND and OR share an NPN class; they must NOT share a proof key.
    b = AigBuilder(2)
    x1, x2 = 2, 4
    and_node = b.add_and(x1, x2)
    or_node = b.add_or(x1, x2)
    b.add_po(and_node)
    b.add_po(or_node)
    fp = MiterFingerprints(b.build())
    assert fp.key_of(and_node >> 1) != fp.key_of(or_node >> 1)


def test_keys_stable_across_rebuilds():
    """The same circuit built twice yields identical keys (warm start)."""
    fp1 = MiterFingerprints(gen.multiplier(4))
    fp2 = MiterFingerprints(gen.multiplier(4))
    aig = gen.multiplier(4)
    for node in range(aig.first_and, aig.num_nodes):
        assert fp1.key_of(node) == fp2.key_of(node)


def test_structural_keys_for_wide_cones():
    config = CacheConfig(tt_support_limit=4)
    aig = gen.adder(8)  # POs depend on up to 16 PIs
    fp = MiterFingerprints(aig, config)
    wide = [po >> 1 for po in aig.pos if fp.table_of(po >> 1) is None]
    assert wide, "expected some cones beyond the truth-table limit"
    assert all(fp.key_of(n).startswith("S:") for n in wide)
    fp2 = MiterFingerprints(gen.adder(8), config)
    assert [fp.key_of(n) for n in wide] == [fp2.key_of(n) for n in wide]


def test_decide_pair_equivalent_and_phase():
    aig, left, right = _two_ways_and3()
    fp = MiterFingerprints(aig)
    assert fp.decide_pair(left, right) == ("equivalent", None)
    status, cex = fp.decide_pair(left, right ^ 1)
    assert status == "nonequivalent"
    assert cex is not None and len(cex) == aig.num_pis


def test_decide_pair_cex_is_a_real_distinguisher():
    b = AigBuilder(3)
    x1, x2, x3 = 2, 4, 6
    f = b.add_and(x1, x2)  # depends on x1,x2
    g = b.add_and(x1, x3)  # depends on x1,x3
    b.add_po(f)
    b.add_po(g)
    aig = b.build()
    fp = MiterFingerprints(aig)
    status, cex = fp.decide_pair(f, g)
    assert status == "nonequivalent"
    # Replay: x1&x2 vs x1&x3 must differ under the synthesised pattern.
    v_f = cex[0] & cex[1]
    v_g = cex[0] & cex[2]
    assert v_f != v_g


def test_pair_key_symmetric():
    aig, left, right = _two_ways_and3()
    fp = MiterFingerprints(aig)
    assert fp.pair_key(left, right) == fp.pair_key(right, left)
    assert fp.pair_key(left ^ 1, right) == fp.pair_key(left, right ^ 1)
    assert fp.pair_key(left, right) != fp.pair_key(left, right ^ 1)


def test_cut_key_order_insensitive():
    aig = gen.multiplier(3)
    fp = MiterFingerprints(aig)
    cut = [aig.first_and, aig.first_and + 1, aig.first_and + 2]
    assert fp.cut_key(cut) == fp.cut_key(list(reversed(cut)))


def test_shrink_table_drops_fake_support():
    # f = x_a over support (a, b): b is non-influential.
    table = var_projection(0, 2)
    shrunk, support = shrink_table(table, (3, 7))
    assert support == (3,)
    assert shrunk == 0b10


def test_remove_var_projects_out_dont_care():
    table = var_projection(1, 2)  # x_b over (a, b)
    assert remove_var(table, 0, 2) == 0b10


# ----------------------------------------------------------------------
# Proof store
# ----------------------------------------------------------------------


def test_store_roundtrip(tmp_path):
    store = ProofStore()
    cex = [1, 0, 1, 1]
    assert store.put("P:a|b|0", Verdict(EQUIVALENT, engine="sim"))
    assert store.put(
        "P:a|c|1", Verdict(NONEQUIVALENT, cex=cex, num_pis=4, context="G")
    )
    assert store.append_pending(str(tmp_path)) == 2
    loaded = ProofStore.load(str(tmp_path))
    assert len(loaded) == 2
    assert loaded.get("P:a|b|0").status == EQUIVALENT
    verdict = loaded.get("P:a|c|1")
    assert verdict.cex == cex
    assert verdict.num_pis == 4
    assert verdict.context == "G"


def test_store_conclusive_never_regresses():
    store = ProofStore()
    assert store.put("k", Verdict(EQUIVALENT))
    assert not store.put("k", Verdict(INCONCLUSIVE, conflict_limit=10**9))
    assert store.get("k").status == EQUIVALENT


def test_store_inconclusive_upgrades_on_higher_budget():
    store = ProofStore()
    assert store.put("k", Verdict(INCONCLUSIVE, conflict_limit=100))
    assert not store.put("k", Verdict(INCONCLUSIVE, conflict_limit=100))
    assert not store.put("k", Verdict(INCONCLUSIVE, conflict_limit=50))
    assert store.put("k", Verdict(INCONCLUSIVE, conflict_limit=200))
    assert store.put("k", Verdict(EQUIVALENT))


def test_store_tolerates_corrupt_lines(tmp_path):
    store = ProofStore()
    store.put("P:a|b|0", Verdict(EQUIVALENT))
    store.append_pending(str(tmp_path))
    path = tmp_path / PROOFS_FILENAME
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("{truncated garba")  # torn write
    loaded = ProofStore.load(str(tmp_path))
    assert len(loaded) == 1
    assert loaded.load_errors == 1


def test_store_rejects_incompatible_format(tmp_path):
    path = tmp_path / PROOFS_FILENAME
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"format": FORMAT_VERSION + 1}) + "\n")
        handle.write('{"k":"P:a|b|0","s":"equivalent"}\n')
    assert len(ProofStore.load(str(tmp_path))) == 0


def test_store_last_occurrence_wins(tmp_path):
    path = tmp_path / PROOFS_FILENAME
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"format": FORMAT_VERSION}) + "\n")
        handle.write('{"k":"k","s":"inconclusive","l":5}\n')
        handle.write('{"k":"k","s":"equivalent"}\n')
    assert ProofStore.load(str(tmp_path)).get("k").status == EQUIVALENT


def test_store_compact_merges_and_dedups(tmp_path):
    a = ProofStore()
    a.put("shared", Verdict(INCONCLUSIVE, conflict_limit=10))
    a.put("only_a", Verdict(EQUIVALENT))
    a.append_pending(str(tmp_path))
    b = ProofStore.load(str(tmp_path))
    b.put("shared", Verdict(EQUIVALENT))
    b.put("only_b", Verdict(EQUIVALENT))
    b.append_pending(str(tmp_path))
    # Compact through a store that never saw b's appends: they survive.
    a.put("shared", Verdict(EQUIVALENT))
    a.compact(str(tmp_path))
    final = ProofStore.load(str(tmp_path))
    assert set(final) == {"shared", "only_a", "only_b"}
    assert final.get("shared").status == EQUIVALENT
    lines = (tmp_path / PROOFS_FILENAME).read_text().splitlines()
    assert len(lines) == 1 + 3  # format line + one line per key


# ----------------------------------------------------------------------
# Bound cache semantics
# ----------------------------------------------------------------------


def _wide_miter():
    return build_miter(gen.adder(8), gen.kogge_stone_adder(8))


def test_bound_cache_records_and_replays(tmp_path):
    miter = _wide_miter()
    cache = SweepCache(CacheConfig(directory=str(tmp_path)))
    bound = cache.bind(miter)
    po = miter.pos[-1]  # carry-out: wide support, not table-decidable
    assert bound.lookup_pair(po, 0) is None  # cold miss
    bound.record_equivalent(po, 0, context="P")
    assert cache.counters.stores == 1
    cache.flush()

    warm = SweepCache(CacheConfig(directory=str(tmp_path))).bind(miter)
    known = warm.lookup_pair(po, 0)
    assert known is not None and known.is_equivalent


def test_bound_cache_invalidates_bogus_cex(tmp_path):
    miter = _wide_miter()
    cache = SweepCache(CacheConfig(directory=str(tmp_path)))
    bound = cache.bind(miter)
    po = miter.pos[-1]  # carry-out: wide support, not table-decidable
    key = bound.fingerprints.pair_key(po, 0)
    # Poison the store: claims nonequivalent with a non-distinguishing cex
    # (the miter is equivalent, so NO pattern can distinguish PO vs 0).
    cache.store.put(
        key,
        Verdict(
            NONEQUIVALENT, cex=[0] * miter.num_pis, num_pis=miter.num_pis
        ),
    )
    assert bound.lookup_pair(po, 0) is None
    assert cache.counters.invalidated == 1
    assert cache.store.get(key) is None  # dropped from the live view


def test_bound_cache_num_pis_mismatch_invalidates(tmp_path):
    miter = _wide_miter()
    cache = SweepCache(CacheConfig(directory=str(tmp_path)))
    bound = cache.bind(miter)
    po = miter.pos[-1]  # carry-out: wide support, not table-decidable
    key = bound.fingerprints.pair_key(po, 0)
    cache.store.put(key, Verdict(NONEQUIVALENT, cex=[1, 0], num_pis=2))
    assert bound.lookup_pair(po, 0) is None
    assert cache.counters.invalidated == 1


def test_bound_cache_inconclusive_needs_opt_in(tmp_path):
    miter = _wide_miter()
    cache = SweepCache(CacheConfig(directory=str(tmp_path)))
    bound = cache.bind(miter)
    po = miter.pos[-1]  # carry-out: wide support, not table-decidable
    bound.record_inconclusive(po, 0, conflict_limit=500)
    assert bound.lookup_pair(po, 0) is None
    known = bound.lookup_pair(po, 0, want_inconclusive=True)
    assert known is not None
    assert known.status == INCONCLUSIVE
    assert known.conflict_limit == 500


def test_bound_cache_skips_table_decidable_pairs():
    aig, left, right = _two_ways_and3()
    cache = SweepCache(CacheConfig())
    bound = cache.bind(aig)
    bound.record_equivalent(left, right)
    assert cache.counters.stores == 0  # fingerprints re-decide these free
    known = bound.lookup_pair(left, right)
    assert known is not None and known.is_equivalent
    assert cache.counters.fingerprint_decided == 1


def test_local_mismatch_memo_roundtrip(tmp_path):
    miter = _wide_miter()
    cache = SweepCache(CacheConfig(directory=str(tmp_path)))
    bound = cache.bind(miter)
    a, b = miter.pos[-1], miter.pos[-2]
    cut = [3, 5, 9]
    assert not bound.local_mismatch_seen(a, b, cut)
    bound.record_local_mismatch(a, b, cut)
    cache.flush()
    warm = SweepCache(CacheConfig(directory=str(tmp_path))).bind(miter)
    assert warm.local_mismatch_seen(a, b, list(reversed(cut)))


def test_readonly_cache_never_writes(tmp_path):
    miter = _wide_miter()
    cache = SweepCache(
        CacheConfig(directory=str(tmp_path), readonly=True)
    )
    bound = cache.bind(miter)
    bound.record_equivalent(miter.pos[-1], 0)
    assert cache.flush() == 0
    assert not os.path.exists(tmp_path / PROOFS_FILENAME)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------


def test_counters_diff_and_roundtrip():
    counters = CacheCounters(hits=5, misses=3, stores=2)
    earlier = counters.copy()
    counters.hits += 2
    counters.invalidated += 1
    delta = counters.diff(earlier)
    assert delta.hits == 2 and delta.invalidated == 1 and delta.misses == 0
    assert CacheCounters.from_dict(counters.as_dict()) == counters
    assert counters.hit_rate == pytest.approx(7 / 11)  # lookups incl. invalidated
    assert "hits=7" in counters.summary()


# ----------------------------------------------------------------------
# Engine integration: the warm start
# ----------------------------------------------------------------------


def _engine(tmp_path):
    config = EngineConfig(cache=CacheConfig(directory=str(tmp_path)))
    return SimSweepEngine(config)


def test_cold_then_warm_equivalent(tmp_path):
    cold = _engine(tmp_path).check_miter(_wide_miter())
    assert cold.status is CecStatus.EQUIVALENT
    assert cold.report.exhaustive_pairs > 0
    assert cold.report.cache.stores > 0
    assert cold.report.cache.hits == 0

    warm = _engine(tmp_path).check_miter(_wide_miter())
    assert warm.status is CecStatus.EQUIVALENT
    assert warm.report.cache.hits > 0
    # The acceptance criterion: every previously proved pair resolves
    # from the cache; no exhaustive-simulation pair checks remain.
    assert warm.report.exhaustive_pairs == 0


def test_cold_then_warm_nonequivalent(tmp_path):
    buggy = negate_outputs(gen.kogge_stone_adder(8), [3])
    miter = build_miter(gen.adder(8), buggy)
    cold = _engine(tmp_path).check_miter(miter)
    assert cold.status is CecStatus.NONEQUIVALENT
    warm = _engine(tmp_path).check_miter(miter)
    assert warm.status is CecStatus.NONEQUIVALENT
    assert warm.cex is not None


def test_warm_start_verdicts_match_uncached(tmp_path):
    """A warm engine must agree with an uncached engine case by case."""
    pairs = [
        (gen.adder(6), gen.kogge_stone_adder(6)),
        (gen.multiplier(4), gen.multiplier(4)),
        (gen.adder(6), negate_outputs(gen.kogge_stone_adder(6), [0])),
    ]
    for aig_a, aig_b in pairs:
        miter = build_miter(aig_a, aig_b)
        baseline = SimSweepEngine(EngineConfig()).check_miter(miter)
        _engine(tmp_path).check_miter(miter)  # populate
        warm = _engine(tmp_path).check_miter(miter)
        assert warm.status is baseline.status


def test_combined_checker_shares_cache_with_sat(tmp_path):
    config = EngineConfig(cache=CacheConfig(directory=str(tmp_path)))
    checker = CombinedChecker(config=config)
    assert checker.engine.cache is checker.sat_checker.cache
    result = checker.check_miter(_wide_miter())
    assert result.status is CecStatus.EQUIVALENT
    assert result.report.cache is not None

    warm = CombinedChecker(config=config)
    warm_result = warm.check_miter(_wide_miter())
    assert warm_result.status is CecStatus.EQUIVALENT
    assert warm_result.report.cache.hits > 0


def test_sat_checker_warm_start(tmp_path):
    miter = _wide_miter()
    cold_cache = SweepCache(CacheConfig(directory=str(tmp_path)))
    cold = SatSweepChecker(cache=cold_cache)
    assert cold.check_miter(miter).status is CecStatus.EQUIVALENT

    warm_cache = SweepCache(CacheConfig(directory=str(tmp_path)))
    warm = SatSweepChecker(cache=warm_cache)
    result = warm.check_miter(miter)
    assert result.status is CecStatus.EQUIVALENT
    assert result.report.cache.hits > 0


def test_engine_without_cache_reports_none():
    result = SimSweepEngine(EngineConfig()).check_miter(_wide_miter())
    assert result.report.cache is None


def test_cache_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(tt_support_limit=-1).validate()
    with pytest.raises(ValueError):
        CacheConfig(npn_limit=9).validate()
    CacheConfig().validate()


def test_proof_store_clear_pending_keeps_entries():
    store = ProofStore()
    store.put("k", Verdict(status=EQUIVALENT))
    store.clear_pending()
    assert not store.pending
    assert store.get("k") is not None


# ----------------------------------------------------------------------
# Store file lock
# ----------------------------------------------------------------------


def test_filelock_closes_fd_when_flock_raises(tmp_path, monkeypatch):
    from repro.cache import store as store_module

    class _RaisingFcntl:
        LOCK_EX = 2
        LOCK_UN = 8

        @staticmethod
        def flock(fd, op):
            raise OSError("contrived flock failure")

    monkeypatch.setattr(store_module, "fcntl", _RaisingFcntl)
    open_fds = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        with pytest.raises(OSError):
            store_module._FileLock(str(tmp_path)).__enter__()
    assert len(os.listdir("/proc/self/fd")) == open_fds


def test_filelock_fallback_without_fcntl(tmp_path, monkeypatch):
    from repro.cache import store as store_module

    monkeypatch.setattr(store_module, "fcntl", None)
    monkeypatch.setattr(store_module._FileLock, "_warned_no_fcntl", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with store_module._FileLock(str(tmp_path)):
            excl = os.path.join(str(tmp_path), ".lock.excl")
            assert os.path.exists(excl)
        assert not os.path.exists(excl)
        # Reacquirable after release, and the warning fires exactly once.
        with store_module._FileLock(str(tmp_path)):
            pass
    assert (
        sum(issubclass(w.category, RuntimeWarning) for w in caught) == 1
    )


def test_filelock_fallback_breaks_stale_claims(tmp_path, monkeypatch):
    from repro.cache import store as store_module

    monkeypatch.setattr(store_module, "fcntl", None)
    monkeypatch.setattr(store_module._FileLock, "_warned_no_fcntl", True)
    excl = os.path.join(str(tmp_path), ".lock.excl")
    with open(excl, "w") as handle:
        handle.write("99999")
    stale = os.stat(excl).st_mtime - 120.0
    os.utime(excl, (stale, stale))
    with store_module._FileLock(str(tmp_path)):
        pass  # the dead holder's claim was broken, not spun on forever
    assert not os.path.exists(excl)
