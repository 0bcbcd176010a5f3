"""Standalone distributed cube-and-conquer CEC (``--engine cube``).

The sweeping engines earn their keep by *shrinking* the miter before
SAT ever runs; this checker is the opposite baseline — no simulation,
no sweeping, no equivalence classes.  Every miter PO is extracted as a
single-PO cone and settled by a :class:`~repro.cubes.runner.CubeRunner`
race: the monolithic query plus its 2^k cofactor cubes fan out across
warm workers and the first conclusive sibling cancels the rest.

It is the repository's one entry point to the cube race: the bench
harness's ``cube_speedup`` comparison and CI's ``--require-cubes`` trace
gate both drive it.

Implementation: :func:`~repro.cubes.lane.prove_pos_with_cubes` over a
fresh un-swept :class:`~repro.sweep.state.SweepState`, so *every*
non-constant PO races.  Anything a race leaves unknown falls through to
the batched SAT backstop, so the engine is complete at its conflict
limit.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.aig.miter import build_miter
from repro.aig.network import Aig
from repro.obs import get_tracer
from repro.sweep.engine import CecResult
from repro.sweep.report import PhaseRecord
from repro.sweep.state import SweepState

from repro.cubes.lane import prove_pos_with_cubes


class CubeChecker:
    """Pure distributed cube-and-conquer over the raw miter POs.

    Parameters
    ----------
    time_limit:
        Optional wall-clock budget in seconds for the whole check.
    conflict_limit:
        Per-query CDCL conflict budget (same meaning as the SAT
        sweeper's; the backstop runs at this limit too).
    workers:
        Cube race pool size.
    """

    def __init__(
        self,
        time_limit: Optional[float] = None,
        conflict_limit: int = 100_000,
        workers: int = 3,
        cache=None,
    ) -> None:
        self.time_limit = time_limit
        self.conflict_limit = conflict_limit
        self.workers = workers
        self.cache = cache
        #: Stats of the last run (PhaseRecord duck-typing the bench rows).
        self.record = PhaseRecord(kind="cube")

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(self, miter: Aig) -> CecResult:
        """Race every miter PO as a monolith + cofactor-cube fan-out."""
        deadline = (
            time.perf_counter() + self.time_limit
            if self.time_limit is not None
            else None
        )
        sweep = SweepState(miter)
        self.record = PhaseRecord(kind="cube")
        start = time.perf_counter()
        with get_tracer().span(
            "cubes.check", category="cubes", pos=len(miter.pos)
        ):
            result = prove_pos_with_cubes(
                sweep,
                self.cache,
                self.conflict_limit,
                deadline,
                self.record,
                workers=self.workers,
            )
        self.record.seconds = time.perf_counter() - start
        self.record.miter_ands_after = sweep.network().num_ands
        return result
