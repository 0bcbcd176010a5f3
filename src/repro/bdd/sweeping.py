"""BDD sweeping (Kuehlmann–Krohm style, [6] in the paper).

The original sweeping framework used size-limited BDDs as the prover:
equivalence classes come from random simulation, and a candidate pair is
proved by building both nodes' global BDDs under a node budget —
identical BDD ids prove the pair (canonicity), a non-zero XOR disproves
it with a counter-example, and budget exhaustion leaves it unresolved.

Included as the historical third prover next to SAT sweeping and the
paper's exhaustive-simulation sweeping; the three share the same outer
loop, which makes the provers directly comparable (see
``examples/engine_comparison.py`` and the ablation benchmarks).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.aig.literals import CONST0
from repro.aig.miter import build_miter, miter_is_trivially_unsat
from repro.aig.network import Aig
from repro.bdd.manager import ZERO, BddLimitExceeded, BddManager
from repro.sweep.engine import CecResult, CecStatus
from repro.sweep.loop import Round, SweepLoop, _expired, adopt_state
from repro.sweep.report import PhaseRecord
from repro.sweep.state import SweepState


class BddSweepChecker:
    """Sweeping with a size-limited BDD prover.

    Parameters
    ----------
    node_limit:
        Total BDD nodes allowed per sweeping round; once exceeded, the
        remaining pairs of the round stay unresolved (classic
        Kuehlmann-style budget).
    num_random_words, seed:
        Class initialisation, as in the other sweepers.
    time_limit:
        Optional wall-clock budget in seconds.
    max_rounds:
        Sweep/refine iterations.
    """

    def __init__(
        self,
        node_limit: int = 200_000,
        num_random_words: int = 32,
        seed: int = 2025,
        time_limit: Optional[float] = None,
        max_rounds: int = 8,
    ) -> None:
        self.node_limit = node_limit
        self.num_random_words = num_random_words
        self.seed = seed
        self.time_limit = time_limit
        self.max_rounds = max_rounds

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks for equivalence (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(self, miter: Aig) -> CecResult:
        """Run BDD sweeping on a miter."""
        loop = SweepLoop("BDDSWEEP", miter, None, self.time_limit)
        sweep = adopt_state(miter, None, self.num_random_words, self.seed)
        return loop.run(
            sweep, "bdd.sweep", self.max_rounds,
            self._prove_round, self._prove_outputs,
        )

    # ------------------------------------------------------------------

    def _prove_round(
        self, sweep: SweepState, classes, pairs, deadline: Optional[float]
    ) -> Round:
        miter = sweep.network()
        manager = BddManager(node_limit=self.node_limit)
        node_bdds: Dict[int, int] = {0: ZERO}
        merges = {}
        cex_patterns: List[List[int]] = []
        for repr_node, node, phase in pairs:
            if _expired(deadline):
                return Round(merges, cex_patterns, exhausted=True)
            try:
                pattern = bdd_pair_verdict(
                    miter, manager, node_bdds, repr_node, node, phase
                )
            except BddLimitExceeded:
                return Round(merges, cex_patterns, exhausted=True)
            if pattern is None:
                merges[node] = (repr_node, phase)
            else:
                cex_patterns.append(pattern)
        return Round(merges, cex_patterns)

    def _prove_outputs(
        self,
        sweep: SweepState,
        deadline: Optional[float],
        record: PhaseRecord,
    ) -> CecResult:
        miter = sweep.network()
        manager = BddManager(node_limit=self.node_limit)
        node_bdds: Dict[int, int] = {0: ZERO}
        new_pos = list(miter.pos)
        any_unknown = False
        for i, po in enumerate(miter.pos):
            if po == CONST0:
                continue
            try:
                bdd = node_bdd(miter, manager, node_bdds, po >> 1)
            except BddLimitExceeded:
                any_unknown = True
                continue
            if po & 1:
                bdd = manager.apply_not(bdd)
            if bdd != ZERO:
                assignment = manager.any_sat(bdd)
                return CecResult(
                    CecStatus.NONEQUIVALENT,
                    cex=[assignment.get(j, 0) for j in range(miter.num_pis)],
                )
            new_pos[i] = CONST0
            record.proved += 1
        reduced = sweep.set_pos(new_pos)
        if not any_unknown and miter_is_trivially_unsat(reduced):
            return CecResult(CecStatus.EQUIVALENT)
        return CecResult(
            CecStatus.UNDECIDED, reduced_miter=reduced, sim_state=sweep
        )


def bdd_pair_verdict(
    miter: Aig,
    manager: BddManager,
    node_bdds: Dict[int, int],
    repr_node: int,
    node: int,
    phase: int,
) -> Optional[List[int]]:
    """Compare a candidate pair's global BDDs.

    Returns ``None`` when the BDDs are identical (canonicity proves the
    pair), else a full PI pattern on which the pair differs.
    :class:`~repro.bdd.manager.BddLimitExceeded` escapes to the caller
    when the manager's node budget blows.  Shared by the BDD sweeper and
    the scheduler's BDD lane.
    """
    bdd_r = node_bdd(miter, manager, node_bdds, repr_node)
    bdd_n = node_bdd(miter, manager, node_bdds, node)
    if phase:
        bdd_n = manager.apply_not(bdd_n)
    if bdd_r == bdd_n:
        return None
    assignment = manager.any_sat(manager.apply_xor(bdd_r, bdd_n))
    return [assignment.get(i, 0) for i in range(miter.num_pis)]


def node_bdd(
    miter: Aig,
    manager: BddManager,
    node_bdds: Dict[int, int],
    node: int,
) -> int:
    """Build (and memoise) a node's global BDD, iteratively.

    Shared between the sweeping checker and the scheduler's BDD lane:
    ``node_bdds`` memoises per manager (seed it with ``{0: ZERO}``), and
    :class:`~repro.bdd.manager.BddLimitExceeded` escapes to the caller
    when the manager's node budget blows.
    """
    stack = [node]
    f0l, f1l = miter.fanin_lists()
    num_pis = miter.num_pis
    while stack:
        current = stack[-1]
        if current in node_bdds:
            stack.pop()
            continue
        if 1 <= current <= num_pis:
            node_bdds[current] = manager.var(current - 1)
            stack.pop()
            continue
        v0 = f0l[current] >> 1
        v1 = f1l[current] >> 1
        pending = [v for v in (v0, v1) if v not in node_bdds]
        if pending:
            stack.extend(pending)
            continue
        b0 = node_bdds[v0]
        if f0l[current] & 1:
            b0 = manager.apply_not(b0)
        b1 = node_bdds[v1]
        if f1l[current] & 1:
            b1 = manager.apply_not(b1)
        node_bdds[current] = manager.apply_and(b0, b1)
        stack.pop()
    return node_bdds[node]

