"""The scheduler-facing cube surface: the ``"cube"`` lane and the
cube-accelerated final PO proof.

Two consumers of the same splitting core:

- :class:`CubeLane` is an *in-process* dispatch lane, a drop-in peer of
  :class:`~repro.sched.lanes.SatBatchLane`: a routed pair's
  XOR-difference query is split into per-cube assumption solves on the
  round's shared solver.  All cubes UNSAT proves the pair (the cubes
  are exhaustive), any SAT model is a genuine counter-example, any
  blown budget reroutes the pair to the SAT backstop — sound whichever
  way it ends, which is what lets ``REPRO_SCHED_FORCE=cube`` pin every
  dispatch here in the soundness tests.
- :func:`prove_pos_with_cubes` wraps the final PO proof: POs whose
  predicted SAT latency (the cost model's static seed) clears the
  threshold are extracted as single-PO cones and raced on a
  :class:`~repro.cubes.runner.CubeRunner` worker pool; everything else
  — and anything the race leaves unknown — falls through to the
  classic :func:`~repro.sched.lanes.prove_pos_batched` backstop.

Knobs: ``REPRO_CUBE_THRESHOLD`` (predicted seconds above which a PO is
"hard"; ``0`` routes every final PO through the race; unset disables
the distributed path entirely) and ``REPRO_CUBE_WORKERS`` (race pool
size, default 3).
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.aig.literals import CONST0, lit, lit_is_const, lit_var
from repro.aig.transform import cone_aig
from repro.obs import get_tracer
from repro.sat.cnf import CnfBuilder
from repro.sat.solver import SatSolver, SolveStatus
from repro.sat.sweeping import prove_pos_batched, record_pair_verdict
from repro.sweep.engine import CecResult, CecStatus
from repro.sweep.loop import _expired

from repro.cubes.runner import CubeOutcome, CubeRunner
from repro.cubes.split import choose_split_pis, enumerate_cubes

#: Predicted-latency threshold (seconds) above which a final PO is
#: routed through the distributed cube race.  Unset disables the race.
THRESHOLD_ENV = "REPRO_CUBE_THRESHOLD"

#: Worker count of the cube race pool.
WORKERS_ENV = "REPRO_CUBE_WORKERS"

#: Default split width: 2 PIs → 4 cubes (+ the monolith sibling).
DEFAULT_SPLIT_K = 2

#: The cost model's static SAT seed (``CostModel.static_cost("sat")``),
#: mirrored here so the hard-PO predicate and the lane costs agree.
SAT_SEED_BASE = 3e-3
SAT_SEED_PER_LEVEL = 1.5e-4


def cube_threshold() -> Optional[float]:
    """The ``REPRO_CUBE_THRESHOLD`` value, or ``None`` when disabled."""
    raw = os.environ.get(THRESHOLD_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def cube_workers(default: int = 3) -> int:
    """The ``REPRO_CUBE_WORKERS`` pool size (≥ 1)."""
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return max(1, default)


#: A race verdict as the solver status of the PO's difference query.
_RACE_STATUS = {
    "equivalent": SolveStatus.UNSAT,
    "nonequivalent": SolveStatus.SAT,
}


def predicted_po_cost(level: int) -> float:
    """Static SAT-latency estimate of one final-PO proof (seconds)."""
    return SAT_SEED_BASE + SAT_SEED_PER_LEVEL * level


class CubeLane:
    """Per-pair cube splitting on the round's shared solver.

    Splits each pair query on the miter's ``DEFAULT_SPLIT_K``
    highest-fanout PIs: the 2^k cube solves each carry the pair selector
    plus the cube's PI assumptions, so the shared CNF is reused across
    cubes *and* across pairs exactly like the SAT batch lane.  Per-cube conflict budgets
    divide the pair budget, keeping a routed pair's worst case
    comparable to the SAT lane's.
    """

    name = "cube"

    def __init__(self, conflict_budget: int = 1_000) -> None:
        self.conflict_budget = conflict_budget

    def budget_for(self, f) -> int:
        """Whole-pair conflict budget (split across the cubes)."""
        return int(self.conflict_budget * (1.0 + min(f.level, 96) / 48.0))

    def run(self, ctx, pairs, model):
        from repro.sched.lanes import LaneOutcome

        out = LaneOutcome()
        if not pairs:
            return out
        metrics = get_tracer().metrics
        cubes = enumerate_cubes(choose_split_pis(ctx.miter, DEFAULT_SPLIT_K))
        metrics.counter_add("cubes.pairs", len(pairs))
        solver = SatSolver()
        cnf = CnfBuilder(ctx.miter, solver)
        for rp in pairs:
            if _expired(ctx.deadline):
                out.unresolved.append(rp)
                continue
            budget = max(100, self.budget_for(rp.features) // len(cubes))
            start = time.perf_counter()
            metrics.counter_add("cubes.split", len(cubes))
            sel, sol_a, sol_b = cnf.open_pair_query(rp.lit_r, rp.lit_n)
            # Every cube UNSAT proves the pair (the cubes are
            # exhaustive); the first SAT or blown cube settles it.
            status = SolveStatus.UNSAT
            for cube in cubes:
                assumptions = [sel] + [
                    cnf.literal(lit(pi, 0 if value else 1))
                    for pi, value in cube.assignments
                ]
                status = solver.solve(
                    assumptions=assumptions,
                    conflict_limit=budget,
                    deadline=ctx.deadline,
                )
                if status is not SolveStatus.UNSAT:
                    break
            cnf.retire_query(sel)
            pattern = None
            if status is SolveStatus.UNSAT:
                cnf.assert_equal(sol_a, sol_b)
            elif status is SolveStatus.SAT:
                pattern = cnf.pi_pattern_from_model()
            seconds = time.perf_counter() - start
            record_pair_verdict(
                ctx.bound, rp.lit_r, rp.lit_n, status, pattern, seconds,
                budget, ctx.deadline, context="SCHED", engine="cube",
            )
            resolved = status is not SolveStatus.UNKNOWN
            model.record(self.name, rp.features, seconds, resolved=resolved)
            if status is SolveStatus.UNSAT:
                out.merges[rp.node] = (rp.repr_node, rp.phase)
            elif status is SolveStatus.SAT:
                out.cex_patterns.append(pattern)
            else:
                out.unresolved.append(rp)
        return out


def prove_pos_with_cubes(
    sweep,
    cache,
    conflict_limit: int,
    deadline: Optional[float],
    record,
    threshold: Optional[float] = None,
    runner: Optional[CubeRunner] = None,
    split_k: int = DEFAULT_SPLIT_K,
    workers: Optional[int] = None,
) -> CecResult:
    """Final PO proof with the hard POs raced as cube fan-outs.

    Drop-in replacement for :func:`~repro.sat.sweeping.prove_pos_batched`
    with identical verdict semantics: hard POs (predicted cost ≥
    ``threshold``) are settled by a :class:`CubeRunner` race over their
    single-PO cones, then everything still open falls through to the
    batched backstop.  A race that ends unknown records an inconclusive
    cache verdict at the full conflict limit, so a cache-backed run
    skips the doomed monolithic retry in the backstop.
    """
    if threshold is None:
        threshold = cube_threshold()
    miter = sweep.network()
    hard = []
    if threshold is not None:
        levels = miter.levels()
        hard = [
            i
            for i, po in enumerate(miter.pos)
            if not lit_is_const(po)
            and predicted_po_cost(int(levels[lit_var(po)])) >= threshold
        ]
    if not hard:
        return prove_pos_batched(sweep, cache, conflict_limit, deadline, record)

    tracer = get_tracer()
    bound = sweep.bound_cache(cache)
    new_pos = list(miter.pos)
    owns_runner = runner is None
    if owns_runner:
        runner = CubeRunner(
            num_workers=workers if workers is not None else cube_workers(),
            trace=tracer.enabled,
        )
    try:
        for i in hard:
            po = miter.pos[i]
            if _expired(deadline):
                break
            record.candidates += 1
            if bound is not None:
                known = bound.lookup_pair(po, CONST0, want_inconclusive=True)
                if known is not None:
                    if known.is_equivalent:
                        new_pos[i] = CONST0
                        record.proved += 1
                        continue
                    if known.is_nonequivalent:
                        return CecResult(
                            CecStatus.NONEQUIVALENT, cex=known.cex
                        )
                    if known.conflict_limit >= conflict_limit:
                        continue
            cone = cone_aig(miter, [i])
            cubes = enumerate_cubes(choose_split_pis(cone, split_k))
            po_start = time.perf_counter()
            with tracer.span(
                "cubes.po", category="cubes", po_index=i,
                cubes=len(cubes),
            ):
                outcome: CubeOutcome = runner.solve(
                    cone,
                    cubes,
                    conflict_limit=conflict_limit,
                    deadline=deadline,
                )
            seconds = time.perf_counter() - po_start
            tracer.metrics.observe("cubes.po_seconds", seconds)
            status = _RACE_STATUS.get(outcome.status, SolveStatus.UNKNOWN)
            record_pair_verdict(
                bound, po, CONST0, status, outcome.cex, seconds,
                conflict_limit, deadline, context="PO", engine="cube",
            )
            if status is SolveStatus.SAT:
                record.cex += 1
                return CecResult(CecStatus.NONEQUIVALENT, cex=outcome.cex)
            if status is SolveStatus.UNSAT:
                new_pos[i] = CONST0
                record.proved += 1
    finally:
        if owns_runner:
            runner.close()
    sweep.set_pos(new_pos)
    return prove_pos_batched(sweep, cache, conflict_limit, deadline, record)
