"""The simulation-based CEC engine (Fig. 5 flow).

The engine proves miters in three kinds of phases:

- **P** (PO checking): exhaustively simulate simulatable miter POs against
  constant zero, bounded by ``k_P``/``k_p``;
- **G** (global function checking): initialise equivalence classes by
  random partial simulation, then exhaustively check candidate pairs
  whose support union is at most ``k_g``, collecting counter-examples to
  refine classes and merging proved pairs;
- **L** (local function checking, repeated): three passes of cut
  generation with the Table I criteria; pairs are checked over common
  cuts of size ≤ ``k_l`` — identical local functions prove equivalence,
  mismatches are inconclusive (SDCs).  Each phase reduces the miter once,
  so later phases see new structure and new cuts.

If the flow ends with a non-empty miter the result is UNDECIDED and the
reduced miter is returned for an external checker (the paper hands it to
ABC ``&cec``; this package hands it to
:class:`repro.sat.sweeping.SatSweepChecker` via
:class:`repro.portfolio.checker.CombinedChecker`).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.aig.literals import CONST0, lit
from repro.aig.miter import build_miter, miter_is_trivially_unsat
from repro.aig.network import Aig
from repro.aig.transform import cleanup
from repro.aig.traversal import supports_capped
from repro.cache.knowledge import SweepCache
from repro.cuts.selection import CutSelector
from repro.obs import get_tracer
from repro.simulation.exhaustive import (
    ExhaustiveSimulator,
    PairStatus,
)
from repro.simulation.merging import merge_windows
from repro.simulation.window import Pair, Window, build_window
from repro.sweep.classes import SimulationState
from repro.sweep.config import EngineConfig
from repro.sweep.disproof import find_po_disproof
from repro.sweep.provers import cut_pass, prove_full_support
from repro.sweep.state import SweepState
from repro.sweep.report import (
    EngineReport,
    PhaseRecord,
    PhaseTimer,
    PortfolioReport,
)


class CecStatus(enum.Enum):
    """Verdict of an equivalence check."""

    EQUIVALENT = "equivalent"
    NONEQUIVALENT = "nonequivalent"
    UNDECIDED = "undecided"


@dataclass
class CecResult:
    """Outcome of a CEC engine run.

    ``cex`` is a full PI assignment witnessing nonequivalence (only for
    NONEQUIVALENT).  ``reduced_miter`` carries the residual miter for
    UNDECIDED results so another engine can continue.  ``report`` is an
    :class:`~repro.sweep.report.EngineReport` for single-engine runs and
    a :class:`~repro.sweep.report.PortfolioReport` for portfolio runs.
    """

    status: CecStatus
    cex: Optional[List[int]] = None
    reduced_miter: Optional[Aig] = None
    report: Union[EngineReport, PortfolioReport] = field(
        default_factory=EngineReport
    )
    #: Sweep state of the run (pattern pool, carried signatures and
    #: classes).  Carried so a downstream checker can reuse the refined
    #: equivalence classes — the EC-transfer extension of §V.  A
    #: :class:`~repro.sweep.state.SweepState` for the simulation engine;
    #: plain :class:`SimulationState` producers remain compatible.
    sim_state: Optional[Union["SweepState", "SimulationState"]] = None

    @property
    def is_equivalent(self) -> bool:
        """True when the check proved equivalence."""
        return self.status is CecStatus.EQUIVALENT


class SimSweepEngine:
    """Simulation-based parallel sweeping engine.

    Example
    -------
    >>> from repro.aig import AigBuilder
    >>> b = AigBuilder(); x, y = b.add_pis(2)
    >>> _ = b.add_po(b.add_and(x, y))
    >>> b2 = AigBuilder(); x2, y2 = b2.add_pis(2)
    >>> _ = b2.add_po(b2.lit_not(b2.add_or(b2.lit_not(x2), b2.lit_not(y2))))
    >>> SimSweepEngine().check(b.build(), b2.build()).status.value
    'equivalent'
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        on_phase=None,
        cache: Optional[SweepCache] = None,
    ) -> None:
        """``on_phase`` is an optional callback invoked with each
        completed :class:`~repro.sweep.report.PhaseRecord` — progress
        reporting for long runs (the CLI's ``--verbose``).  ``cache``
        injects an existing :class:`~repro.cache.SweepCache` (so several
        checkers can share one store); by default the engine builds its
        own from ``config.cache``."""
        self.config = config or EngineConfig()
        self.config.validate()
        self.on_phase = on_phase
        self.cache = (
            cache if cache is not None
            else SweepCache.from_config(self.config.cache)
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks for equivalence (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(
        self, miter: Aig, stop_after: Optional[str] = None
    ) -> CecResult:
        """Run the Fig. 5 flow on a miter.

        ``stop_after`` truncates the flow for the Fig. 7 experiment:
        ``"P"`` stops after PO checking, ``"PG"`` after the global phase;
        ``None`` (and ``"PGL"``) run the full flow.
        """
        if stop_after not in (None, "P", "PG", "PGL"):
            raise ValueError(f"unknown stop point {stop_after!r}")
        tracer = get_tracer()
        with tracer.span(
            "sim.check_miter", category="engine", initial_ands=miter.num_ands
        ):
            return self._run_flow(miter, stop_after, tracer)

    def _run_flow(
        self, miter: Aig, stop_after: Optional[str], tracer
    ) -> CecResult:
        start = time.perf_counter()
        report = EngineReport(initial_ands=miter.num_ands)
        state = SweepState(
            cleanup(miter),
            num_random_words=self.config.num_random_words,
            seed=self.config.seed,
            strategy=self.config.pattern_strategy,
        )
        simulator = ExhaustiveSimulator(self.config.memory_budget_words)
        cache_snapshot = (
            self.cache.snapshot() if self.cache is not None else None
        )

        def note(record: PhaseRecord) -> None:
            report.phases.append(record)
            metrics = tracer.metrics
            metrics.counter_add(f"engine.{record.kind}.candidates", record.candidates)
            metrics.counter_add(f"engine.{record.kind}.proved", record.proved)
            metrics.counter_add(f"engine.{record.kind}.cex", record.cex)
            if self.on_phase is not None:
                self.on_phase(record)

        def finish(result: CecResult) -> CecResult:
            current = state.network()
            # ``final_ands`` is the miter size at verdict time: the
            # residue for UNDECIDED, zero for a full proof, and the
            # still-unproved miter for a disproof (a counter-example is
            # not a reduction, so it must not read as 100 %).
            if result.reduced_miter is not None:
                report.final_ands = result.reduced_miter.num_ands
            elif result.status is CecStatus.EQUIVALENT:
                report.final_ands = 0
            else:
                report.final_ands = current.num_ands
            report.total_seconds = time.perf_counter() - start
            report.exhaustive_pairs = simulator.stats.pairs
            if self.cache is not None:
                self.cache.flush()
                report.cache = self.cache.counters.diff(cache_snapshot)
            if tracer.enabled:
                report.metrics = tracer.metrics.as_dict()
            result.report = report
            return result

        def run_phase(kind: str, body, **span_args):
            """Run one phase; returns ``(verdict, outcome)`` where the
            verdict, if any, ends the flow."""
            record = PhaseRecord(kind)
            with tracer.span(
                f"phase.{kind}", category="phase", **span_args
            ) as span, PhaseTimer(record):
                outcome = body(record)
                span.set("candidates", record.candidates)
                span.set("proved", record.proved)
            if isinstance(outcome, CecResult):
                note(record)
                return outcome, outcome
            record.miter_ands_after = state.network().num_ands
            note(record)
            if miter_is_trivially_unsat(state.network()):
                return CecResult(CecStatus.EQUIVALENT), outcome
            return None, outcome

        verdict = structural_verdict(state.network())
        # ---- P phase -------------------------------------------------
        if verdict is None:
            verdict, _ = run_phase(
                "P", lambda record: self._po_phase(state, simulator, record)
            )
        # ---- G phase -------------------------------------------------
        if verdict is None and stop_after != "P":
            verdict, _ = run_phase(
                "G",
                lambda record: self._global_phase(state, simulator, record),
            )
        # ---- repeated L phases ----------------------------------------
        if verdict is None and stop_after not in ("P", "PG"):
            disabled_passes: Set[int] = set()
            for phase_index in range(self.config.max_local_phases):
                verdict, progressed = run_phase(
                    "L",
                    lambda record: self._local_phase(
                        state, simulator, record, disabled_passes
                    ),
                    round=phase_index,
                )
                if verdict is not None or not progressed:
                    break
                if self.config.interleave_rewriting:
                    # §V extension: restructure the reduced miter so the
                    # next local phase enumerates genuinely new cuts.
                    from repro.synth.rewrite import cut_rewrite

                    state.replace_network(cut_rewrite(state.network(), k=4))

        if verdict is None:
            # Carry the state: the adaptive scheduler (and the Fig. 7
            # experiment's downstream engines) resume from the P-phase
            # pool and classes instead of re-simulating.
            verdict = CecResult(
                CecStatus.UNDECIDED,
                reduced_miter=state.network(),
                sim_state=state,
            )
        return finish(verdict)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _po_phase(
        self,
        state: SweepState,
        simulator: ExhaustiveSimulator,
        record: PhaseRecord,
    ) -> Union[CecResult, Aig]:
        cfg = self.config
        miter = state.network()
        bound = state.bound_cache(self.cache)
        support_sets = supports_capped(miter, cfg.k_P)
        nontrivial = [(i, p) for i, p in enumerate(miter.pos) if p != CONST0]
        po_supports = {
            i: support_sets[p >> 1] for i, p in nontrivial
        }
        one_shot = all(s is not None for s in po_supports.values())
        threshold = cfg.k_P if one_shot else cfg.k_p
        new_pos = list(miter.pos)
        windows: List[Window] = []
        for i, p in nontrivial:
            supp = po_supports[i]
            if supp is None or len(supp) > threshold:
                continue
            record.candidates += 1
            if bound is not None:
                known = bound.lookup_pair(p, CONST0)
                if known is not None:
                    if known.is_equivalent:
                        record.proved += 1
                        new_pos[i] = CONST0
                        continue
                    if known.is_nonequivalent:
                        record.cex += 1
                        return CecResult(
                            CecStatus.NONEQUIVALENT, cex=known.cex
                        )
            windows.append(
                build_window(
                    miter,
                    sorted(supp),
                    roots=[p >> 1] if (p >> 1) not in supp else [],
                    pairs=[Pair(p, CONST0, tag=i)],
                )
            )
        if windows:
            if cfg.window_merging:
                windows = merge_windows(
                    miter, windows, cfg.k_s_for(threshold)
                )
            outcomes = simulator.run(
                miter, windows, collect_cex=True, skip_oversized=True
            )
            for outcome in outcomes:
                if outcome.status is PairStatus.MISMATCH:
                    record.cex += 1
                    cex = outcome.cex.to_pi_pattern(miter.num_pis)
                    if bound is not None:
                        bound.record_nonequivalent(
                            outcome.pair.lit_a, CONST0, cex, context="P"
                        )
                    return CecResult(CecStatus.NONEQUIVALENT, cex=cex)
                record.proved += 1
                if bound is not None:
                    bound.record_equivalent(
                        outcome.pair.lit_a, CONST0, context="P"
                    )
                new_pos[outcome.pair.tag] = CONST0
        return state.set_pos(new_pos)

    def _global_phase(
        self,
        state: SweepState,
        simulator: ExhaustiveSimulator,
        record: PhaseRecord,
    ) -> Optional[CecResult]:
        cfg = self.config
        tracer = get_tracer()
        for iteration in range(cfg.max_global_iterations):
            with tracer.span(
                "phase.G.round", category="phase", round=iteration
            ) as span:
                verdict, progressed = self._global_round(
                    state, simulator, record, span
                )
            if verdict is not None:
                return verdict
            if not progressed:
                break
        return None

    def _global_round(
        self,
        state: SweepState,
        simulator: ExhaustiveSimulator,
        record: PhaseRecord,
        span,
    ) -> Tuple[Optional[CecResult], bool]:
        """One check → refine → reduce cycle of the global phase.

        Returns ``(verdict, progressed)``: a conclusive verdict ends the
        phase, ``progressed=False`` means the round changed nothing and
        the iteration should stop.  Merges are applied to ``state`` in
        place (carrying signatures and classes across the rebuild).
        """
        cfg = self.config
        miter = state.network()
        disproof = po_disproof(state)
        if disproof is not None:
            return disproof, False
        classes = state.classes()
        if len(classes) == 0:
            return None, False
        span.set("classes", len(classes))
        bound = state.bound_cache(self.cache)
        support_sets = supports_capped(miter, cfg.k_g)
        candidates = []
        merges: Dict[int, Tuple[int, int]] = {}
        cex_patterns: List[List[int]] = []
        for repr_node, node, phase in classes.all_pairs():
            if bound is not None:
                # Cached knowledge is not bounded by k_g: a pair the
                # cold run proved in a later phase (or by SAT)
                # resolves here on the warm run.
                known = bound.lookup_pair(
                    lit(repr_node), lit(node, phase)
                )
                if known is not None:
                    record.candidates += 1
                    if known.is_equivalent:
                        merges[node] = (repr_node, phase)
                    else:
                        cex_patterns.append(known.cex)
                    continue
            supp_r = support_sets[repr_node]
            supp_n = support_sets[node]
            if supp_r is None or supp_n is None:
                continue
            union = supp_r | supp_n
            if len(union) > cfg.k_g:
                continue
            record.candidates += 1
            candidates.append((repr_node, node, phase, union))
        if not candidates and not merges and not cex_patterns:
            return None, False
        verdicts = prove_full_support(
            miter,
            simulator,
            candidates,
            bound,
            "G",
            merge_k_s=cfg.k_s_for(cfg.k_g) if cfg.window_merging else None,
        )
        merges.update(verdicts.merges)
        cex_patterns.extend(verdicts.cex.values())
        record.proved += len(merges)
        record.cex += len(cex_patterns)
        span.set("proved", len(merges))
        span.set("cex", len(cex_patterns))
        if cex_patterns:
            state.add_cex_patterns(
                cex_patterns, distance1=cfg.distance1_cex
            )
        if merges:
            state.apply_merges(merges)
        if not merges and not cex_patterns:
            return None, False
        if miter_is_trivially_unsat(state.network()):
            return None, False
        return None, True

    def _local_phase(
        self,
        state: SweepState,
        simulator: ExhaustiveSimulator,
        record: PhaseRecord,
        disabled_passes: Set[int],
    ) -> Union[CecResult, bool]:
        """One cut-based local checking phase; returns a verdict, or
        whether it made progress (merged something)."""
        cfg = self.config
        miter = state.network()
        disproof = po_disproof(state)
        if disproof is not None:
            return disproof
        classes = state.classes()
        if len(classes) == 0:
            return False
        bound = state.bound_cache(self.cache)
        pair_info: Dict[int, Tuple[int, int]] = {}
        repr_of: Dict[int, int] = {}
        for eq_class in classes:
            for member in eq_class.members:
                repr_of[member] = eq_class.representative
            for repr_node, node, phase in eq_class.candidate_pairs():
                if miter.is_and(node):
                    pair_info[node] = (repr_node, phase)
        record.candidates += len(pair_info)
        fanout_counts = miter.fanout_counts()
        levels = miter.levels()
        merges: Dict[int, Tuple[int, int]] = {}
        proved_by_pass: Dict[int, int] = {}

        if bound is not None:
            # Warm-start pre-pass: settle pairs with cached verdicts
            # before any cut enumeration or window simulation runs.
            cached_patterns: List[List[int]] = []
            for node, (repr_node, phase) in list(pair_info.items()):
                known = bound.lookup_pair(lit(repr_node), lit(node, phase))
                if known is None:
                    continue
                if known.is_equivalent:
                    merges[node] = (repr_node, phase)
                else:
                    cached_patterns.append(known.cex)
                    del pair_info[node]
            if cached_patterns:
                record.cex += len(cached_patterns)
                state.add_cex_patterns(
                    cached_patterns, distance1=cfg.distance1_cex
                )

        tracer = get_tracer()
        for pass_id in cfg.passes:
            if pass_id in disabled_passes:
                continue
            proved_before = len(merges)
            selector = CutSelector(
                pass_id, fanout_counts, levels, cfg.similarity_selection
            )
            with tracer.span(
                "cuts.pass", category="cuts", pass_id=pass_id
            ) as pass_span:
                expansions = cut_pass(
                    miter,
                    simulator,
                    selector,
                    cfg,
                    repr_of,
                    pair_info,
                    merges,
                    bound,
                    "L",
                )
                pass_span.set("expansions", expansions)
            proved_by_pass[pass_id] = len(merges) - proved_before

        record.proved += len(merges)
        if cfg.adaptive_passes:
            for pass_id, proved in proved_by_pass.items():
                if proved == 0:
                    disabled_passes.add(pass_id)
        if not merges:
            return False
        state.apply_merges(merges)
        return True


def structural_verdict(miter: Aig) -> Optional[CecResult]:
    """Verdicts available before any simulation."""
    if miter_is_trivially_unsat(miter):
        return CecResult(CecStatus.EQUIVALENT)
    if any(po == 1 for po in miter.pos):
        # A constant-true PO is satisfied by every pattern.
        return CecResult(CecStatus.NONEQUIVALENT, cex=[0] * miter.num_pis)
    return None


def po_disproof(state: SweepState) -> Optional[CecResult]:
    """Random-pattern disproof: does the state's pattern pool already
    satisfy some PO of its miter?  Shared by every sweeping checker."""
    pattern = find_po_disproof(state.network(), state.pi_words, state.tables())
    if pattern is None:
        return None
    return CecResult(CecStatus.NONEQUIVALENT, cex=pattern)
