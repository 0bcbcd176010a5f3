"""Exhaustive-simulation provers shared by the fixed flow and the lanes.

Two of the paper's provers, each with one body:

- :func:`prove_full_support` simulates candidate pairs exhaustively over
  the union of their structural supports (the G phase of Fig. 5, and
  the scheduler's ``sim`` lane).  Such a window covers every input the
  pair depends on, so EQUAL proves the pair and MISMATCH yields a
  genuine counter-example.
- :func:`cut_pass` runs one priority-cut enumeration pass and checks
  pairs over their common cuts (the L phase, and the ``cut`` lane).  A
  local EQUAL proves the pair; a local mismatch may be a satisfiability
  don't-care, so it proves nothing and is only memoised.

Callers choose behaviour through arguments: the engine passes its
whole-class representatives, merged windows and cache context
``"G"``/``"L"``; the lanes pass their routed pairs, unmerged windows
and ``"SCHED"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.aig.literals import lit
from repro.aig.network import Aig
from repro.aig.traversal import collect_cone
from repro.cuts.common import CommonCutBuffer, common_cuts
from repro.cuts.enumeration import CutEnumerator
from repro.cuts.selection import CutSelector
from repro.obs import get_tracer
from repro.simulation.exhaustive import ExhaustiveSimulator, PairStatus
from repro.simulation.merging import merge_windows
from repro.simulation.window import Window, build_pair_window
from repro.sweep.config import EngineConfig

#: A candidate pair: ``(representative, node, phase, support)``.
SupportPair = Tuple[int, int, int, Iterable[int]]


@dataclass
class WindowVerdicts:
    """Per-node outcomes of :func:`prove_full_support`, in outcome order.

    A node in neither map had its window skipped on the simulator's
    memory budget.
    """

    merges: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    cex: Dict[int, List[int]] = field(default_factory=dict)


def prove_full_support(
    miter: Aig,
    simulator: ExhaustiveSimulator,
    pairs: Sequence[SupportPair],
    bound,
    context: str,
    merge_k_s: Optional[int] = None,
) -> WindowVerdicts:
    """Exhaustively simulate each pair over its full support.

    ``merge_k_s`` merges similar windows under that support threshold
    before simulating (§III-B3); ``None`` simulates one window per
    pair.  Verdicts are recorded in ``bound`` (a
    :class:`~repro.cache.knowledge.BoundCache` or ``None``) under
    ``context``.
    """
    verdicts = WindowVerdicts()
    if not pairs:
        return verdicts
    windows = [
        build_pair_window(
            miter, sorted(support), lit(repr_node), lit(node, phase), node
        )
        for repr_node, node, phase, support in pairs
    ]
    if merge_k_s is not None:
        windows = merge_windows(miter, windows, merge_k_s)
    outcomes = simulator.run(
        miter, windows, collect_cex=True, skip_oversized=True
    )
    for outcome in outcomes:
        pair = outcome.pair
        if outcome.status is PairStatus.EQUAL:
            phase = (pair.lit_a ^ pair.lit_b) & 1
            verdicts.merges[pair.tag] = (pair.lit_a >> 1, phase)
            if bound is not None:
                bound.record_equivalent(
                    pair.lit_a, pair.lit_b, context=context
                )
        else:
            pattern = outcome.cex.to_pi_pattern(miter.num_pis)
            verdicts.cex[pair.tag] = pattern
            if bound is not None:
                bound.record_nonequivalent(
                    pair.lit_a, pair.lit_b, pattern, context=context
                )
    return verdicts


def cut_pass(
    miter: Aig,
    simulator: ExhaustiveSimulator,
    selector: CutSelector,
    config: EngineConfig,
    repr_of: Dict[int, int],
    pair_info: Dict[int, Tuple[int, int]],
    merges: Dict[int, Tuple[int, int]],
    bound,
    context: str,
) -> int:
    """One cut-enumeration pass checking pairs over their common cuts.

    ``pair_info`` maps each candidate node to ``(representative,
    phase)``; ``repr_of`` maps every node the enumerator should treat as
    a class member to its representative (Table I's similarity
    criterion).  Proved pairs are added to ``merges``, and pairs already
    in it are skipped.  Returns the enumerator's expansions, which are
    also added to the ``cuts.expansions`` counter.
    """
    enumerator = CutEnumerator(miter, config.k_l, config.C, selector)
    # Only the fanin cones of the surviving pairs (and their
    # representatives) need cuts; late phases with few candidates
    # then skip most of the miter.
    pair_roots = set()
    for node, (repr_node, _phase) in pair_info.items():
        if node not in merges:
            pair_roots.add(node)
            if repr_node != 0:
                pair_roots.add(repr_node)
    needed = set(collect_cone(miter, pair_roots))

    def flush(windows: List[Window]) -> None:
        outcomes = simulator.run(
            miter, windows, collect_cex=False, skip_oversized=True
        )
        for outcome in outcomes:
            pair = outcome.pair
            if outcome.status is PairStatus.EQUAL:
                if pair.tag not in merges:
                    phase = (pair.lit_a ^ pair.lit_b) & 1
                    merges[pair.tag] = (pair.lit_a >> 1, phase)
                if bound is not None and outcome.window is not None:
                    bound.record_equivalent(
                        pair.lit_a,
                        pair.lit_b,
                        context=context,
                        cut_size=len(outcome.window.inputs),
                    )
            elif bound is not None and outcome.window is not None:
                # A local mismatch may be an SDC, so it proves nothing
                # about the pair — but re-simulating the same pair over
                # the same cut is futile; memoise it.
                bound.record_local_mismatch(
                    pair.lit_a, pair.lit_b, outcome.window.inputs
                )

    buffer = CommonCutBuffer(config.buffer_capacity, flush)
    for _level, nodes in enumerator.run(repr_of, only=needed):
        batch: List[Window] = []
        for node in nodes:
            info = pair_info.get(node)
            if info is None or node in merges:
                continue
            repr_node, phase = info
            if repr_node in merges:
                continue
            cuts = common_cuts(
                enumerator.priority_cuts(repr_node) if repr_node != 0 else [],
                enumerator.priority_cuts(node),
                config.k_l,
                config.max_common_cuts_per_pair,
            )
            lit_a, lit_b = lit(repr_node), lit(node, phase)
            for cut in cuts:
                if bound is not None and bound.local_mismatch_seen(
                    lit_a, lit_b, cut
                ):
                    continue
                batch.append(build_pair_window(miter, cut, lit_a, lit_b, node))
        buffer.insert(batch)
    buffer.drain()
    get_tracer().metrics.counter_add("cuts.expansions", enumerator.expansions)
    return enumerator.expansions
