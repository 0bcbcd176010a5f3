"""Functionally reduced AIGs (FRAIGs, [7] in the paper).

A FRAIG is an AIG in which no two nodes are functionally equivalent (up
to complementation).  Sweeping a *miter* is exactly fraiging it; this
module applies the same machinery to a single network as a synthesis
operation — the way logic tools use ``fraig`` to remove redundancy
before mapping.

Two provers are offered:

- :func:`fraig` — SAT-based, the classic construction;
- :func:`fraig_sim` — exhaustive-simulation-based, this paper's thesis
  applied to fraiging: pairs whose support union is small are proved by
  whole-truth-table comparison, no SAT involved.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.aig.literals import lit
from repro.aig.network import Aig
from repro.aig.transform import cleanup
from repro.aig.traversal import supports_capped
from repro.sat.cnf import CnfBuilder
from repro.sat.solver import SatSolver, SolveStatus
from repro.sat.sweeping import query_pair
from repro.simulation.exhaustive import ExhaustiveSimulator
from repro.sweep.provers import prove_full_support
from repro.sweep.state import SweepState


def fraig(
    aig: Aig,
    conflict_limit: int = 10_000,
    num_random_words: int = 16,
    seed: int = 2025,
    max_rounds: int = 8,
) -> Aig:
    """SAT-based functional reduction; returns an equivalent network.

    Candidate pairs come from simulation classes; each is checked by a
    conflict-limited CDCL query.  Unresolved pairs (budget exhausted)
    simply stay unmerged — the result is always functionally equivalent
    to the input, merely possibly not fully reduced.
    """
    state = SweepState(
        cleanup(aig), num_random_words=num_random_words, seed=seed
    )
    for _ in range(max_rounds):
        pairs = list(state.classes().all_pairs())
        if not pairs:
            break
        cnf = CnfBuilder(state.network(), SatSolver())
        merges: Dict[int, Tuple[int, int]] = {}
        cex_patterns: List[List[int]] = []
        for repr_node, node, phase in pairs:
            status, pattern, _seconds = query_pair(
                cnf, None, lit(repr_node), lit(node, phase),
                conflict_limit, None, context="FRAIG",
            )
            if status is SolveStatus.UNSAT:
                merges[node] = (repr_node, phase)
            elif status is SolveStatus.SAT:
                cex_patterns.append(pattern)
        if not _reduce(state, merges, cex_patterns):
            break
    return state.network()


def fraig_sim(
    aig: Aig,
    k_g: int = 14,
    num_random_words: int = 16,
    seed: int = 2025,
    max_rounds: int = 8,
    memory_budget_words: int = 1 << 22,
    window_merging: bool = True,
) -> Aig:
    """Simulation-based functional reduction (no SAT).

    The G-phase prover of the paper's engine applied as a synthesis
    pass: pairs with support union ≤ ``k_g`` are proved by exhaustive
    simulation; wider pairs (and windows above the memory budget) are
    left alone.  Sound by construction — every merge is backed by a
    complete truth-table comparison.
    """
    state = SweepState(
        cleanup(aig), num_random_words=num_random_words, seed=seed
    )
    simulator = ExhaustiveSimulator(memory_budget_words)
    for _ in range(max_rounds):
        current = state.network()
        supports = supports_capped(current, k_g)
        candidates = []
        for repr_node, node, phase in state.classes().all_pairs():
            supp_r = supports[repr_node]
            supp_n = supports[node]
            if supp_r is None or supp_n is None:
                continue
            union = supp_r | supp_n
            if len(union) <= k_g:
                candidates.append((repr_node, node, phase, union))
        if not candidates:
            break
        verdicts = prove_full_support(
            current, simulator, candidates, None, "FRAIG",
            merge_k_s=k_g if window_merging else None,
        )
        if not _reduce(
            state, verdicts.merges, list(verdicts.cex.values())
        ):
            break
    return state.network()


def _reduce(
    state: SweepState,
    merges: Dict[int, Tuple[int, int]],
    cex_patterns: List[List[int]],
) -> bool:
    """Refine the classes and merge the proved pairs; False when the
    round changed nothing."""
    if cex_patterns:
        state.add_cex_patterns(cex_patterns)
    if merges:
        state.apply_merges(merges)
    return bool(merges or cex_patterns)
