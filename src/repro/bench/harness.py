"""Experiment harness: regenerates Table II, Fig. 6 and Fig. 7.

Each ``run_*`` function produces plain dataclass rows mirroring the
paper's columns/series, plus text formatters that print them the way the
paper tabulates them.  Absolute times differ from the paper (NumPy vs
CUDA, Python CDCL vs ABC's solver); the claims under reproduction are the
*relative* ones — who wins per case, reduction percentages, phase
breakdown shapes, and the monotone P → PG → PGL improvement.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.suite import BenchmarkCase
from repro.cache.config import CacheConfig
from repro.cache.knowledge import SweepCache
from repro.obs import Tracer, use_tracer
from repro.portfolio.checker import CombinedChecker, PortfolioChecker
from repro.portfolio.parallel import PortfolioError
from repro.sat.sweeping import SatSweepChecker
from repro.sweep.config import EngineConfig
from repro.sweep.engine import CecStatus, SimSweepEngine


@dataclass
class Table2Row:
    """One benchmark line of Table II."""

    name: str
    pis: int
    pos: int
    miter_nodes: int
    miter_levels: int
    abc_seconds: float
    abc_status: str
    cfm_seconds: float
    cfm_status: str
    gpu_seconds: float
    reduced_percent: float
    residue_sat_seconds: float
    total_seconds: float
    ours_status: str
    #: Per-engine seconds of the portfolio run (from its
    #: ``PortfolioReport``); empty when the portfolio was skipped.
    cfm_engine_seconds: Dict[str, float] = field(default_factory=dict)
    #: Knowledge-cache counters of the combined run (hits, misses,
    #: stores, …); empty when no cache directory was given.
    cache: Dict[str, int] = field(default_factory=dict)
    #: Per-phase records of the combined run's engine front end
    #: (``PhaseRecord.as_dict()`` each) — the per-row histogram data.
    phases: List[Dict] = field(default_factory=list)
    #: Span summary of the traced combined run
    #: (:meth:`repro.obs.Tracer.summary`).
    trace: Dict = field(default_factory=dict)
    #: Seconds spent in incremental ``SweepState`` rebuilds (sum of the
    #: run's ``rebuild`` spans, workers included).
    rebuild_s: float = 0.0
    #: Carried / (carried + recomputed) signature words of the run —
    #: 1.0 means every reduction carried its knowledge, 0.0 means the
    #: run degenerated to rebuild-from-scratch.
    carryover_ratio: float = 0.0
    #: Adaptive-scheduler comparison of the row: cold ``auto`` vs cold
    #: ``fixed`` wall-clock (``speedup`` = fixed/auto), the auto run's
    #: per-lane ``dispatch`` counts, ``mispredicts``, and the batched
    #: SAT lane's ``sat_batch`` pairs/solves.
    sched: Dict[str, object] = field(default_factory=dict)
    #: Cube-and-conquer comparison of the row: the distributed cube
    #: race vs the single-solver monolith on the same raw miter POs —
    #: both wall-clocks, ``speedup`` (mono / race), both statuses, and
    #: the race counters (splits, races, cancellations).  Empty when
    #: the comparison was skipped (``--no-cubes``).
    cube: Dict[str, object] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits / lookups of the combined run (0.0 without a cache)."""
        lookups = self.cache.get("hits", 0) + self.cache.get("misses", 0)
        return self.cache.get("hits", 0) / lookups if lookups else 0.0

    @property
    def speedup_vs_abc(self) -> float:
        """Speed-up of the combined checker over standalone SAT sweeping."""
        return self.abc_seconds / self.total_seconds if self.total_seconds else 0.0

    @property
    def speedup_vs_cfm(self) -> float:
        """Speed-up of the combined checker over the portfolio checker."""
        return self.cfm_seconds / self.total_seconds if self.total_seconds else 0.0


@dataclass
class Fig6Row:
    """Phase runtime fractions of the simulation engine (Fig. 6)."""

    name: str
    fractions: Dict[str, float]
    seconds: Dict[str, float]
    #: Knowledge-cache counters of the run; empty without a cache.
    cache: Dict[str, int] = field(default_factory=dict)
    #: Per-phase records (``PhaseRecord.as_dict()`` each).
    phases: List[Dict] = field(default_factory=list)
    #: Span summary of the traced run (:meth:`repro.obs.Tracer.summary`).
    trace: Dict = field(default_factory=dict)
    #: Seconds spent in incremental ``SweepState`` rebuilds.
    rebuild_s: float = 0.0
    #: Carried / (carried + recomputed) signature words of the run.
    carryover_ratio: float = 0.0


@dataclass
class ServeRow:
    """One query of the serve-mode benchmark (per round, per case).

    ``latency`` is the client-observed submit→result time (queueing and
    protocol included); ``seconds`` is the worker-side engine time.  The
    cold round pays worker warm-up (imports, cache load); the
    warm round measures the steady state the daemon exists for.
    """

    name: str
    round: str
    status: str
    seconds: float
    latency: float
    cache_hits: int
    cache_lookups: int
    worker: int
    #: Counter dict in the shape :func:`bench_payload` aggregates.
    cache: Dict[str, int] = field(default_factory=dict)


@dataclass
class Fig7Row:
    """Normalised SAT time on intermediate miters (Fig. 7).

    ``normalized[flow]`` is (SAT time on the miter left after ``flow``) /
    (SAT time on the original miter); ``flow`` ∈ {"P", "PG", "PGL"}.
    """

    name: str
    standalone_seconds: float
    normalized: Dict[str, float]
    reduced_ands: Dict[str, int]


def _carry_stats(tracer: Tracer) -> Dict[str, float]:
    """Rebuild time and carry-over ratio of one traced run.

    ``rebuild_s`` sums the ``span.rebuild.seconds`` histogram (merged
    worker spans included); the ratio divides carried signature words by
    all words touched at reductions (carried + recomputed — the initial
    full simulations are deliberately excluded: they exist on every
    path, incremental or not).
    """
    histogram = tracer.metrics.histograms.get("span.rebuild.seconds")
    rebuild_s = histogram.total if histogram is not None else 0.0
    counters = tracer.metrics.counters
    carried = counters.get("state.carried_words", 0)
    recomputed = counters.get("state.recomputed_words", 0)
    touched = carried + recomputed
    return {
        "rebuild_s": rebuild_s,
        "carryover_ratio": carried / touched if touched else 0.0,
    }


def _sched_stats(tracer: Tracer) -> Dict[str, object]:
    """Adaptive-scheduler counters of one traced ``--sched auto`` run.

    Per-lane dispatch counts, mispredictions, and the batched SAT
    lane's pairs/solves (all zero when the P phase settled the miter
    before the dispatcher ever saw a pair)."""
    counters = tracer.metrics.counters
    return {
        "dispatch": {
            lane: int(counters.get(f"sched.dispatch.{lane}", 0))
            for lane in ("sim", "cut", "bdd", "sat")
        },
        "mispredicts": int(counters.get("sched.mispredict", 0)),
        "sat_batch": {
            "pairs": int(counters.get("sat.batch.pairs", 0)),
            "solves": int(counters.get("sat.batch.solves", 0)),
        },
    }


def _mono_sat_seconds(miter, conflict_limit, time_limit):
    """Single-solver proof of every raw miter PO — the cube race's
    baseline: same queries, one CDCL instance, no splitting, no
    parallelism."""
    from repro.aig.literals import CONST0, lit_is_const
    from repro.sat.cnf import CnfBuilder
    from repro.sat.solver import SatSolver, SolveStatus

    start = time.perf_counter()
    deadline = start + time_limit if time_limit is not None else None
    live_pos = [po for po in miter.pos if po != CONST0]
    if not live_pos:
        return "equivalent", time.perf_counter() - start
    if any(lit_is_const(po) for po in live_pos):
        return "nonequivalent", time.perf_counter() - start
    status = "equivalent"
    for po in live_pos:
        solver = SatSolver()
        cnf = CnfBuilder(miter, solver)
        solver.add_clause([cnf.literal(po)])
        verdict = solver.solve(
            conflict_limit=conflict_limit, deadline=deadline
        )
        if verdict is SolveStatus.SAT:
            status = "nonequivalent"
            break
        if verdict is not SolveStatus.UNSAT:
            status = "unknown"
            break
    return status, time.perf_counter() - start


def _cube_stats(miter, conflict_limit, time_limit=None) -> Dict[str, object]:
    """Distributed cube race vs the single-solver monolith on the raw
    miter POs (no sweeping front end on either side, so the comparison
    isolates what splitting + racing buys on the identical queries).

    Returns the row's ``cube`` dict: both wall-clocks, the speedup
    (mono / race), both statuses, and the race counters (splits, races,
    first-winner cancellations).  Conclusive verdicts must agree — the
    comparison doubles as a soundness cross-check.
    """
    from repro.cubes.checker import CubeChecker

    checker = CubeChecker(time_limit=time_limit, conflict_limit=conflict_limit)
    tracer = Tracer(process_name="bench-cube")
    start = time.perf_counter()
    with use_tracer(tracer):
        race_result = checker.check_miter(miter)
    race_seconds = time.perf_counter() - start
    mono_status, mono_seconds = _mono_sat_seconds(
        miter, conflict_limit, time_limit
    )
    race_status = race_result.status.value
    conclusive = {"equivalent", "nonequivalent"}
    if race_status in conclusive and mono_status in conclusive:
        assert race_status == mono_status, (
            f"cube race disagrees with the single-solver monolith: "
            f"race={race_status}, mono={mono_status}"
        )
    counters = tracer.metrics.counters
    return {
        "race_seconds": race_seconds,
        "mono_seconds": mono_seconds,
        "speedup": mono_seconds / race_seconds if race_seconds else 0.0,
        "race_status": race_status,
        "mono_status": mono_status,
        "splits": int(counters.get("cubes.split", 0)),
        "races": int(counters.get("cubes.races", 0)),
        "cancelled": int(counters.get("cubes.cancelled", 0)),
    }


def run_table2_case(
    case: BenchmarkCase,
    config: Optional[EngineConfig] = None,
    sat_conflict_limit: int = 100_000,
    baseline_time_limit: Optional[float] = None,
    run_portfolio: bool = True,
    cache: Optional[SweepCache] = None,
    run_cubes: bool = True,
) -> Table2Row:
    """Run all three checkers of Table II on one case.

    ``run_cubes`` adds the distributed cube race vs single-solver
    monolith comparison (the row's ``cube`` dict).

    Raises ``AssertionError`` if any conclusive verdicts disagree — the
    harness doubles as an end-to-end cross-check of every engine.
    """
    stats = case.stats()
    miter = case.miter

    abc = SatSweepChecker(
        conflict_limit=sat_conflict_limit, time_limit=baseline_time_limit
    )
    start = time.perf_counter()
    abc_result = abc.check_miter(miter)
    abc_seconds = time.perf_counter() - start

    cfm_engine_seconds: Dict[str, float] = {}
    if run_portfolio:
        cfm = PortfolioChecker(
            sat_checker=SatSweepChecker(
                conflict_limit=sat_conflict_limit,
                time_limit=baseline_time_limit,
            )
        )
        start = time.perf_counter()
        try:
            cfm_result = cfm.check_miter(miter)
            cfm_status = cfm_result.status.value
        except PortfolioError:
            # A fully-failed portfolio is a data point, not a reason to
            # abort the whole table run.
            cfm_result = None
            cfm_status = "failed"
        cfm_seconds = time.perf_counter() - start
        if cfm.report is not None:
            cfm_engine_seconds = {
                rec.name: rec.seconds for rec in cfm.report.engines
            }
    else:
        cfm_seconds = float("nan")
        cfm_status = "skipped"
        cfm_result = None

    # Only "ours" sees the knowledge cache: the baselines must stay cold
    # so the speedup columns compare against uncached engines.
    ours = CombinedChecker(
        config=config,
        sat_checker=SatSweepChecker(conflict_limit=sat_conflict_limit),
        cache=cache,
    )
    tracer = Tracer(process_name=f"bench:{case.name}")
    with use_tracer(tracer):
        ours_result = ours.check_miter(miter)
    cache_counters = (
        ours_result.report.cache.as_dict()
        if getattr(ours_result.report, "cache", None) is not None
        else {}
    )

    # Adaptive-vs-fixed scheduling comparison, both against the same
    # cache state ("ours" already ran auto; a shared suite cache would
    # warm whichever mode runs second, so the comparison pair runs cold).
    fixed_checker = CombinedChecker(
        config=config,
        sat_checker=SatSweepChecker(conflict_limit=sat_conflict_limit),
        sched="fixed",
    )
    start = time.perf_counter()
    fixed_result = fixed_checker.check_miter(miter)
    fixed_seconds = time.perf_counter() - start
    if cache is None:
        auto_result = ours_result
        auto_seconds = ours.timings.total_seconds
        sched_tracer = tracer
    else:
        auto_checker = CombinedChecker(
            config=config,
            sat_checker=SatSweepChecker(conflict_limit=sat_conflict_limit),
        )
        sched_tracer = Tracer(process_name=f"bench-sched:{case.name}")
        start = time.perf_counter()
        with use_tracer(sched_tracer):
            auto_result = auto_checker.check_miter(miter)
        auto_seconds = time.perf_counter() - start
    assert auto_result.status == fixed_result.status, (
        f"scheduler modes disagree on {case.name}: "
        f"auto={auto_result.status}, fixed={fixed_result.status}"
    )
    sched_stats = _sched_stats(sched_tracer)
    sched_stats.update(
        {
            "auto_seconds": auto_seconds,
            "fixed_seconds": fixed_seconds,
            "speedup": fixed_seconds / auto_seconds if auto_seconds else 0.0,
            "status": auto_result.status.value,
        }
    )

    cube_stats: Dict[str, object] = {}
    if run_cubes:
        cube_stats = _cube_stats(
            miter, sat_conflict_limit, time_limit=baseline_time_limit
        )

    verdicts = {
        v
        for v in (
            abc_result.status,
            ours_result.status,
            fixed_result.status,
            cfm_result.status if cfm_result else None,
        )
        if v is not None and v is not CecStatus.UNDECIDED
    }
    assert len(verdicts) <= 1, (
        f"engines disagree on {case.name}: abc={abc_result.status}, "
        f"cfm={cfm_status}, ours={ours_result.status}"
    )

    return Table2Row(
        name=case.name,
        pis=stats["pis"],
        pos=stats["pos"],
        miter_nodes=stats["miter_nodes"],
        miter_levels=stats["miter_levels"],
        abc_seconds=abc_seconds,
        abc_status=abc_result.status.value,
        cfm_seconds=cfm_seconds,
        cfm_status=cfm_status,
        gpu_seconds=ours.timings.engine_seconds,
        reduced_percent=ours.timings.reduction_percent,
        residue_sat_seconds=ours.timings.sat_seconds,
        total_seconds=ours.timings.total_seconds,
        ours_status=ours_result.status.value,
        cfm_engine_seconds=cfm_engine_seconds,
        cache=cache_counters,
        phases=[
            p.as_dict() for p in getattr(ours_result.report, "phases", [])
        ],
        trace=tracer.summary(),
        sched=sched_stats,
        cube=cube_stats,
        **_carry_stats(tracer),
    )


def run_table2(
    cases: Sequence[BenchmarkCase],
    config: Optional[EngineConfig] = None,
    cache_dir: Optional[str] = None,
    json_out: Optional[str] = None,
    **kwargs,
) -> List[Table2Row]:
    """Run the Table II comparison over a suite.

    ``cache_dir`` warm-starts the combined checker from a shared
    functional-knowledge cache; ``json_out`` writes the machine-readable
    ``BENCH_table2.json`` payload (see :func:`write_bench_json`).
    """
    cache = _suite_cache(cache_dir)
    rows = [
        run_table2_case(case, config=config, cache=cache, **kwargs)
        for case in cases
    ]
    if json_out is not None:
        write_bench_json(json_out, "table2", rows)
    return rows


def run_fig6(
    cases: Sequence[BenchmarkCase],
    config: Optional[EngineConfig] = None,
    cache_dir: Optional[str] = None,
    json_out: Optional[str] = None,
) -> List[Fig6Row]:
    """Phase runtime breakdown of the simulation engine (Fig. 6)."""
    cache = _suite_cache(cache_dir)
    rows = []
    for case in cases:
        engine = SimSweepEngine(config, cache=cache)
        tracer = Tracer(process_name=f"fig6:{case.name}")
        with use_tracer(tracer):
            result = engine.check_miter(case.miter)
        rows.append(
            Fig6Row(
                name=case.name,
                fractions=result.report.phase_fractions(),
                seconds=result.report.phase_seconds(),
                cache=(
                    result.report.cache.as_dict()
                    if result.report.cache is not None
                    else {}
                ),
                phases=[p.as_dict() for p in result.report.phases],
                trace=tracer.summary(),
                **_carry_stats(tracer),
            )
        )
    if json_out is not None:
        write_bench_json(json_out, "fig6", rows)
    return rows


def run_fig7(
    cases: Sequence[BenchmarkCase],
    config: Optional[EngineConfig] = None,
    sat_conflict_limit: int = 100_000,
    time_limit: Optional[float] = None,
    json_out: Optional[str] = None,
) -> List[Fig7Row]:
    """SAT time on intermediate miters, normalised (Fig. 7).

    For each case the engine is stopped after P, after PG, and run fully
    (PGL); each residual miter is then proved by the SAT sweeper, and
    times are normalised by the SAT time on the *original* miter.  No
    knowledge cache is offered here: warm-started flows would prove
    pairs for free and the P/PG/PGL comparison would stop measuring the
    phases themselves.
    """
    rows = []
    for case in cases:
        standalone = _sat_seconds(
            case.miter, sat_conflict_limit, time_limit
        )
        normalized: Dict[str, float] = {}
        reduced: Dict[str, int] = {}
        for flow in ("P", "PG", "PGL"):
            engine = SimSweepEngine(config)
            result = engine.check_miter(
                case.miter, stop_after=None if flow == "PGL" else flow
            )
            if result.status is CecStatus.UNDECIDED:
                residue = result.reduced_miter
                seconds = _sat_seconds(
                    residue, sat_conflict_limit, time_limit
                )
                reduced[flow] = residue.num_ands
            else:
                seconds = 0.0
                reduced[flow] = 0
            normalized[flow] = (
                seconds / standalone if standalone > 0 else 0.0
            )
        rows.append(
            Fig7Row(
                name=case.name,
                standalone_seconds=standalone,
                normalized=normalized,
                reduced_ands=reduced,
            )
        )
    if json_out is not None:
        write_bench_json(json_out, "fig7", rows)
    return rows


def run_serve(
    cases: Sequence[BenchmarkCase],
    workers: int = 2,
    cache_root: Optional[str] = None,
    rounds: int = 2,
    json_out: Optional[str] = None,
) -> List[ServeRow]:
    """Benchmark the serve daemon: per-query latency, cold vs warm.

    A real :class:`~repro.serve.server.CecServer` runs on a temporary
    Unix socket (in a helper thread) and every case is submitted through
    :class:`~repro.serve.client.ServeClient` for ``rounds`` rounds — so
    the measured latency includes protocol framing, admission, queueing,
    the pickled hand-off to a worker, and the engine itself.  Round 0 is
    the cold round; later rounds hit the workers' resident caches.
    """
    import asyncio
    import tempfile
    import threading

    from repro.serve.client import ServeClient
    from repro.serve.server import CecServer

    if rounds < 1:
        raise ValueError("need at least one round")
    rows: List[ServeRow] = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as scratch:
        socket_path = os.path.join(scratch, "cec.sock")
        root = cache_root if cache_root is not None else os.path.join(
            scratch, "cache"
        )
        server = CecServer(
            socket_path,
            workers=workers,
            cache_root=root,
            max_pending=max(64, len(cases) * 2),
            max_batch=max(16, len(cases)),
        )
        thread = threading.Thread(
            target=lambda: asyncio.run(server.serve_forever()), daemon=True
        )
        thread.start()
        daemon_stats: Dict = {}
        try:
            with ServeClient(
                socket_path, timeout=None, connect_retries=50
            ) as client:
                for round_index in range(rounds):
                    label = "cold" if round_index == 0 else "warm"
                    records = client.submit_batch(
                        [case.miter for case in cases],
                        names=[case.name for case in cases],
                    )
                    for record in records:
                        hits = int(record["cache_hits"])
                        lookups = int(record["cache_lookups"])
                        rows.append(
                            ServeRow(
                                name=str(record["name"]),
                                round=label,
                                status=str(record["status"]),
                                seconds=float(record["seconds"]),
                                latency=float(record["latency"]),
                                cache_hits=hits,
                                cache_lookups=lookups,
                                worker=int(record["worker"]),
                                cache={
                                    "hits": hits,
                                    "misses": lookups - hits,
                                },
                            )
                        )
                # Snapshot the daemon's own telemetry (respawns, SLO
                # tallies, worker RSS) into the payload before the
                # shutdown tears the pool down — ``check_bench`` gates
                # on the respawn count staying at the baseline's zero.
                daemon_stats = client.stats()
                client.shutdown()
        finally:
            thread.join(timeout=30)
    if json_out is not None:
        write_bench_json(
            json_out, "serve", rows, extra={"daemon": daemon_stats}
        )
    return rows


def latency_percentiles(values: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99/mean/max of a latency sample (empty → zeros)."""
    if not values:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    ordered = sorted(values)

    def pct(q: float) -> float:
        index = min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)
        return ordered[max(0, index)]

    return {
        "p50": pct(0.50),
        "p90": pct(0.90),
        "p99": pct(0.99),
        "mean": sum(ordered) / len(ordered),
        "max": ordered[-1],
    }


def _suite_cache(cache_dir: Optional[str]) -> Optional[SweepCache]:
    """One shared knowledge cache for a whole suite run (or ``None``)."""
    if cache_dir is None:
        return None
    return SweepCache(CacheConfig(directory=cache_dir))


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (ignores non-positive entries, like the paper's table)."""
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    return math.exp(sum(math.log(v) for v in positives) / len(positives))


def format_table2(rows: Sequence[Table2Row]) -> str:
    """Render Table II rows as the paper lays them out."""
    header = (
        f"{'Benchmark':<16}{'#PIs':>7}{'#POs':>7}{'#Nodes':>9}{'Lvl':>6}"
        f"{'SAT(s)':>9}{'Pf(s)':>9}{'Eng(s)':>9}{'Red%':>7}"
        f"{'Res(s)':>9}{'Tot(s)':>9}{'xSAT':>7}{'xPf':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:<16}{row.pis:>7}{row.pos:>7}{row.miter_nodes:>9}"
            f"{row.miter_levels:>6}{row.abc_seconds:>9.2f}"
            f"{row.cfm_seconds:>9.2f}{row.gpu_seconds:>9.2f}"
            f"{row.reduced_percent:>7.1f}{row.residue_sat_seconds:>9.2f}"
            f"{row.total_seconds:>9.2f}{row.speedup_vs_abc:>7.2f}"
            f"{row.speedup_vs_cfm:>7.2f}"
        )
    lines.append(
        f"{'Geomean':<16}{'':>47}{'':>25}"
        f"{geomean([r.speedup_vs_abc for r in rows]):>16.2f}"
        f"{geomean([r.speedup_vs_cfm for r in rows if not math.isnan(r.cfm_seconds)]):>7.2f}"
    )
    sched = geomean(
        [float(r.sched.get("speedup", 0.0)) for r in rows if r.sched]
    )
    if sched:
        lines.append(
            f"Scheduler geomean (fixed pipeline / adaptive): {sched:.2f}x"
        )
    return "\n".join(lines)


def format_fig6(rows: Sequence[Fig6Row]) -> str:
    """Render the Fig. 6 phase breakdown as a text table."""
    lines = [f"{'Benchmark':<16}{'P%':>8}{'G%':>8}{'L%':>8}"]
    for row in rows:
        p = 100 * row.fractions.get("P", 0.0)
        g = 100 * row.fractions.get("G", 0.0)
        l = 100 * row.fractions.get("L", 0.0)
        lines.append(f"{row.name:<16}{p:>8.1f}{g:>8.1f}{l:>8.1f}")
    return "\n".join(lines)


def format_fig7(rows: Sequence[Fig7Row]) -> str:
    """Render the Fig. 7 normalised residue-proving times."""
    lines = [
        f"{'Benchmark':<16}{'SAT(s)':>9}{'P':>8}{'PG':>8}{'PGL':>8}"
    ]
    for row in rows:
        lines.append(
            f"{row.name:<16}{row.standalone_seconds:>9.2f}"
            f"{row.normalized['P']:>8.2f}{row.normalized['PG']:>8.2f}"
            f"{row.normalized['PGL']:>8.2f}"
        )
    return "\n".join(lines)


def format_serve(rows: Sequence[ServeRow]) -> str:
    """Render serve-mode rows plus the per-round latency percentiles."""
    lines = [
        f"{'Benchmark':<16}{'Round':>6}{'Status':>14}{'Engine(s)':>11}"
        f"{'Latency(s)':>12}{'Hits':>6}"
    ]
    for row in rows:
        lines.append(
            f"{row.name:<16}{row.round:>6}{row.status:>14}"
            f"{row.seconds:>11.3f}{row.latency:>12.3f}{row.cache_hits:>6}"
        )
    for label in ("cold", "warm"):
        sample = [r.latency for r in rows if r.round == label]
        if not sample:
            continue
        stats = latency_percentiles(sample)
        lines.append(
            f"{label} latency: p50 {stats['p50']:.3f}s, "
            f"p90 {stats['p90']:.3f}s, p99 {stats['p99']:.3f}s, "
            f"mean {stats['mean']:.3f}s"
        )
    return "\n".join(lines)


def _sat_seconds(miter, conflict_limit: int, time_limit: Optional[float]):
    checker = SatSweepChecker(
        conflict_limit=conflict_limit, time_limit=time_limit
    )
    start = time.perf_counter()
    checker.check_miter(miter)
    return time.perf_counter() - start


def bench_payload(
    experiment: str, rows: Sequence, extra: Optional[Dict] = None
) -> Dict:
    """Machine-readable payload for one experiment's rows.

    ``rows`` are the dataclass rows of the matching ``run_*`` function.
    Besides the per-row fields the payload carries the suite-level
    aggregates a CI job greps for: speed-up geomeans (Table II) and the
    combined knowledge-cache counters with their hit rate.  ``extra``
    merges additional top-level sections into the payload — ``run_serve``
    ships the daemon's final ``stats`` snapshot as ``daemon`` so the
    regression gate can check respawn counts and SLO tallies.
    """
    serialized = []
    for row in rows:
        record = dataclasses.asdict(row)
        if isinstance(row, Table2Row):
            record["speedup_vs_abc"] = row.speedup_vs_abc
            record["speedup_vs_cfm"] = row.speedup_vs_cfm
            record["cache_hit_rate"] = row.cache_hit_rate
        serialized.append(record)
    payload: Dict = {"experiment": experiment, "rows": serialized}
    if experiment == "serve":
        latency: Dict[str, Dict[str, float]] = {}
        for label in ("cold", "warm"):
            sample = [r.latency for r in rows if r.round == label]
            if sample:
                latency[label] = latency_percentiles(sample)
        payload["latency"] = latency
        cold = latency.get("cold", {}).get("p50", 0.0)
        warm = latency.get("warm", {}).get("p50", 0.0)
        payload["warm_speedup_p50"] = cold / warm if warm > 0 else 0.0
    if experiment == "table2":
        payload["geomeans"] = {
            "speedup_vs_abc": geomean([r.speedup_vs_abc for r in rows]),
            "speedup_vs_cfm": geomean(
                [
                    r.speedup_vs_cfm
                    for r in rows
                    if not math.isnan(r.cfm_seconds)
                ]
            ),
            "sched_speedup": geomean(
                [
                    float(r.sched.get("speedup", 0.0))
                    for r in rows
                    if r.sched
                ]
            ),
            "cube_speedup": geomean(
                [
                    float(r.cube.get("speedup", 0.0))
                    for r in rows
                    if r.cube
                ]
            ),
        }
        # The acceptance headline (adaptive vs fixed pipeline, identical
        # verdicts) also lives at the top level for easy grepping.
        payload["sched_speedup"] = payload["geomeans"]["sched_speedup"]
    totals: Dict[str, int] = {}
    for row in rows:
        for key, value in getattr(row, "cache", {}).items():
            totals[key] = totals.get(key, 0) + value
    lookups = totals.get("hits", 0) + totals.get("misses", 0)
    payload["cache"] = {
        "counters": totals,
        "hit_rate": totals.get("hits", 0) / lookups if lookups else 0.0,
    }
    if extra:
        payload.update(extra)
    return payload


def write_bench_json(
    path: str, experiment: str, rows: Sequence, extra: Optional[Dict] = None
) -> str:
    """Write ``bench_payload`` to disk; returns the path written.

    When ``path`` is a directory the file is named
    ``BENCH_<experiment>.json`` inside it.  The write goes through a
    temporary file and an atomic rename so a crashed run never leaves a
    truncated payload for CI to choke on.
    """
    if os.path.isdir(path):
        path = os.path.join(path, f"BENCH_{experiment}.json")
    payload = bench_payload(experiment, rows, extra=extra)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)
    return path


def main(argv=None) -> int:
    """``python -m repro.bench.harness table2 --profile tiny --json OUT``."""
    import argparse

    from repro.bench.suite import default_suite

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="regenerate Table II / Fig. 6 / Fig. 7 data",
    )
    parser.add_argument(
        "experiment", choices=["table2", "fig6", "fig7", "serve"],
        help="which paper artefact to regenerate (serve: daemon "
        "per-query latency percentiles, cold vs warm)",
    )
    parser.add_argument(
        "--profile", default="tiny",
        help="suite profile (tiny for smoke runs, default for the paper)",
    )
    parser.add_argument(
        "--only", nargs="*", default=None, metavar="CASE",
        help="restrict to the named suite cases",
    )
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="OUT",
        help="write BENCH_<experiment>.json (OUT may be a directory)",
    )
    parser.add_argument(
        "--cache", dest="cache_dir", default=None, metavar="DIR",
        help="functional-knowledge cache directory (table2/fig6 only)",
    )
    parser.add_argument(
        "--no-portfolio", action="store_true",
        help="skip the portfolio baseline in table2 (faster smoke runs)",
    )
    parser.add_argument(
        "--no-cubes", action="store_true",
        help="skip the cube race vs monolith comparison in table2",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="serve-mode daemon worker count",
    )
    parser.add_argument(
        "--rounds", type=int, default=2,
        help="serve-mode submission rounds (round 0 is cold)",
    )
    args = parser.parse_args(argv)

    cases = default_suite(args.profile, only=args.only)
    if args.experiment == "table2":
        rows = run_table2(
            cases,
            cache_dir=args.cache_dir,
            json_out=args.json_out,
            run_portfolio=not args.no_portfolio,
            run_cubes=not args.no_cubes,
        )
        print(format_table2(rows))
    elif args.experiment == "fig6":
        rows = run_fig6(
            cases, cache_dir=args.cache_dir, json_out=args.json_out
        )
        print(format_fig6(rows))
    elif args.experiment == "serve":
        rows = run_serve(
            cases,
            workers=args.workers,
            cache_root=args.cache_dir,
            rounds=args.rounds,
            json_out=args.json_out,
        )
        print(format_serve(rows))
    else:
        rows = run_fig7(cases, json_out=args.json_out)
        print(format_fig7(rows))
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
