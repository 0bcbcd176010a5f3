"""The cube-raced PO proof behind ``cec --engine cube``.

:func:`prove_pos_with_cubes` extracts every non-constant miter PO as a
single-PO cone and races it on a :class:`~repro.cubes.runner.CubeRunner`
worker pool: the monolithic query plus its cofactor cubes, first
conclusive sibling wins.  Everything a race leaves unknown falls through
to the classic :func:`~repro.sat.sweeping.prove_pos_batched` backstop,
so the proof is complete at its conflict limit.
:class:`~repro.cubes.checker.CubeChecker` is its caller.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.aig.literals import CONST0, lit_is_const
from repro.aig.transform import cone_aig
from repro.obs import get_tracer
from repro.sat.solver import SolveStatus
from repro.sat.sweeping import prove_pos_batched, record_pair_verdict
from repro.sweep.engine import CecResult, CecStatus
from repro.sweep.loop import _expired

from repro.cubes.runner import CubeOutcome, CubeRunner
from repro.cubes.split import choose_split_pis, enumerate_cubes

#: Split width: 2 PIs → 4 cubes (+ the monolith sibling).
SPLIT_K = 2

#: A race verdict as the solver status of the PO's difference query.
_RACE_STATUS = {
    "equivalent": SolveStatus.UNSAT,
    "nonequivalent": SolveStatus.SAT,
}


def prove_pos_with_cubes(
    sweep,
    cache,
    conflict_limit: int,
    deadline: Optional[float],
    record,
    workers: int,
) -> CecResult:
    """PO proof with every non-constant PO raced as a cube fan-out.

    Same verdict semantics as :func:`~repro.sat.sweeping.prove_pos_batched`:
    each PO is settled by a :class:`CubeRunner` race over its single-PO
    cone, then everything still open falls through to the batched
    backstop.  A race that ends unknown records an inconclusive cache
    verdict at the full conflict limit, so a cache-backed run skips the
    doomed monolithic retry in the backstop.
    """
    miter = sweep.network()
    tracer = get_tracer()
    bound = sweep.bound_cache(cache)
    new_pos = list(miter.pos)
    with CubeRunner(num_workers=workers, trace=tracer.enabled) as runner:
        for i, po in enumerate(miter.pos):
            if lit_is_const(po):
                continue
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
            cubes = enumerate_cubes(choose_split_pis(cone, SPLIT_K))
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
    sweep.set_pos(new_pos)
    return prove_pos_batched(sweep, cache, conflict_limit, deadline, record)
