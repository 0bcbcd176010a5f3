"""Incremental sweep state: knowledge carried across miter reductions.

Historically every reduction of the miter threw away all derived
knowledge: the engine re-simulated the whole reduced network, re-built
equivalence classes from zero-width signatures and re-fingerprinted
every cone for the knowledge cache — an O(phases × miter size) tax paid
in interpreted Python, exactly in the repeated-L-phase regime where the
paper spends its time.

:class:`SweepState` owns the live miter plus everything the phases
derive from it, and *carries* that knowledge through each reduction
instead of rebuilding it:

- the **signature matrix** of the pattern pool: proved merges are exact
  equivalences, so a surviving node computes the same function before
  and after the rebuild and its signature row is carried by a pure
  gather; only newly appended pattern columns are ever simulated;
- the current :class:`~repro.sweep.classes.EquivalenceClasses`, remapped
  through the old→new literal map when the pool has not changed;
- the **fingerprint salt** and memoised truth tables of the functional
  knowledge cache, so NPN lookups and proofs survive reductions without
  re-simulating or re-evaluating cones;
- a vectorised union-find over the *original* miter's nodes
  (:attr:`origin_literals`), composing every rebuild's literal map so
  any original node can be traced to its current representative;
- the pattern pool itself (a :class:`~repro.sweep.classes.SimulationState`).

The structural invariant is bit-exactness: :meth:`network` after any
sequence of :meth:`apply_merges`/:meth:`set_pos` calls is structurally
identical to what the historical rebuild-from-scratch path produces, and
the carried signature matrix equals a fresh full re-simulation of the
reduced miter.  ``tests/test_sweep_state.py`` enforces both invariants
on hundreds of seeded random cases; ``docs/sweep-state.md`` explains
why they hold.

Observability: every rebuild emits a ``rebuild`` span and every carry or
re-simulation a ``carryover`` span (category ``state``), with
``state.carried_words`` / ``state.recomputed_words`` /
``state.initial_words`` counters distinguishing gathered signature words
from freshly simulated ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aig.literals import lit
from repro.aig.network import Aig
from repro.aig.rebuild import RebuildResult, rebuild_network
from repro.obs import get_tracer
from repro.simulation.partial import simulate_words
from repro.sweep.classes import EquivalenceClasses, SimulationState

__all__ = ["SweepState"]


class SweepState:
    """The live miter plus all phase-carried knowledge.

    Duck-types the :class:`~repro.sweep.classes.SimulationState` surface
    (``num_pis``, ``pi_words``, ``tables``, ``classes``,
    ``add_cex_patterns``) so it can ride ``CecResult.sim_state`` into a
    downstream checker unchanged.

    Parameters
    ----------
    miter:
        The (cleaned) miter this state owns.  All mutation goes through
        :meth:`apply_merges` / :meth:`set_pos` / :meth:`replace_network`.
    num_random_words, seed, strategy:
        Pattern-pool parameters, as for
        :class:`~repro.sweep.classes.SimulationState`.  The pool itself
        is created lazily on first use so PO-phase-only runs never pay
        for it.
    """

    def __init__(
        self,
        miter: Aig,
        num_random_words: int = 32,
        seed: int = 2025,
        strategy: str = "random",
    ) -> None:
        self._aig = miter
        self.num_pis = miter.num_pis
        self._num_random_words = num_random_words
        self._seed = seed
        self._strategy = strategy
        self._sim: Optional[SimulationState] = None
        #: Carried signature matrix, aligned with the *current* network.
        self._tables: Optional[np.ndarray] = None
        self._classes: Optional[EquivalenceClasses] = None
        #: Pool width (words) the classes were computed at.
        self._classes_words = -1
        #: Carried fingerprint salt matrix ``(num_nodes, salt_words)``.
        self._salt: Optional[np.ndarray] = None
        self._bound = None
        #: Truth tables / truth-table keys carried between cache binds.
        self._table_carry: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        self._key_carry: Dict[int, str] = {}
        #: Original-miter node id -> current literal (-1 once swept).
        self.origin_literals = np.arange(miter.num_nodes, dtype=np.int64) * 2
        #: True while :attr:`origin_literals` still tracks the original
        #: nodes (a :meth:`replace_network` restructure severs the link).
        self.origin_valid = True
        self.rebuilds = 0
        #: Feature memos for the adaptive scheduler (supports / levels of
        #: the *current* network; recomputed when the network changes).
        self._feature_net: Optional[Aig] = None
        self._feature_cap = -1
        self._feature_supports: Optional[list] = None
        self._feature_levels: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Pattern pool (SimulationState surface)
    # ------------------------------------------------------------------

    def _pool(self) -> SimulationState:
        if self._sim is None:
            self._sim = SimulationState(
                self.num_pis,
                self._num_random_words,
                self._seed,
                strategy=self._strategy,
            )
        return self._sim

    def pool(self) -> SimulationState:
        """The pattern pool (created on first use) — for EC transfer."""
        return self._pool()

    def adopt_pool(self, sim: SimulationState) -> None:
        """Reuse an existing pattern pool (EC transfer between engines).

        The pool's counter-examples pre-split the classes exactly as if
        this state had found them itself.  Any signature matrix carried
        so far is dropped — it belongs to the previous pool.
        """
        if sim.num_pis != self.num_pis:
            raise ValueError(
                f"pool has {sim.num_pis} PIs, state has {self.num_pis}"
            )
        self._sim = sim
        self._tables = None
        self._classes = None
        self._classes_words = -1

    @property
    def pi_words(self) -> np.ndarray:
        """PI pattern words of the pool (created on first use)."""
        return self._pool().pi_words

    @property
    def num_patterns(self) -> int:
        """Total simulation patterns in the pool (64 per word)."""
        return self._pool().num_patterns

    # ------------------------------------------------------------------
    # Feature extraction (the adaptive scheduler's dispatch hook)
    # ------------------------------------------------------------------

    def support_sets(self, cap: int) -> list:
        """Capped structural supports of the current network, memoised.

        Same contract as :func:`repro.aig.traversal.supports_capped`
        (frozenset per node, ``None`` above ``cap``), but cached against
        the live network so the scheduler's per-round feature extraction
        pays the linear pass once per reduction instead of once per
        round.
        """
        if (
            self._feature_supports is None
            or self._feature_net is not self._aig
            or self._feature_cap != cap
        ):
            from repro.aig.traversal import supports_capped

            self._feature_supports = supports_capped(self._aig, cap)
            self._feature_levels = None
            self._feature_net = self._aig
            self._feature_cap = cap
        return self._feature_supports

    def levels(self) -> np.ndarray:
        """Per-node AIG levels of the current network, memoised."""
        if self._feature_levels is None or self._feature_net is not self._aig:
            self._feature_levels = self._aig.levels()
            if self._feature_net is not self._aig:
                self._feature_supports = None
                self._feature_cap = -1
            self._feature_net = self._aig
        return self._feature_levels

    @property
    def agreement_words(self) -> int:
        """Signature agreement depth of the current classes, in words.

        Same-class pairs agree on *every* pool signature, so the pool
        width is the depth to which their conjectured equivalence has
        survived simulation — a confidence feature for the scheduler.
        """
        return int(self.pi_words.shape[1])

    @property
    def num_cex(self) -> int:
        """Counter-example patterns added so far."""
        return 0 if self._sim is None else self._sim.num_cex

    def add_cex_patterns(
        self,
        patterns: Sequence[Sequence[int]],
        distance1: bool = False,
        distance1_limit: int = 64,
    ) -> None:
        """Append counter-example patterns to the pool.

        The carried signature matrix is *not* invalidated: the existing
        columns stay exact, and :meth:`tables` simulates only the newly
        appended words on demand.
        """
        if not patterns:
            return
        self._pool().add_cex_patterns(
            patterns, distance1=distance1, distance1_limit=distance1_limit
        )
        self._classes = None
        self._classes_words = -1

    # ------------------------------------------------------------------
    # Derived knowledge
    # ------------------------------------------------------------------

    def network(self) -> Aig:
        """The current miter."""
        return self._aig

    def matches(self, miter: Aig) -> bool:
        """True when ``miter`` *is* (or structurally equals) the network.

        Structural equality matters because checkers historically ran
        ``cleanup`` on a handed-over residue; a residue produced by this
        state is already clean, so the copy is equal and the carried
        knowledge applies to it verbatim.
        """
        own = self._aig
        if miter is own:
            return True
        if (
            miter.num_pis != own.num_pis
            or miter.num_ands != own.num_ands
            or miter.pos != own.pos
        ):
            return False
        of0, of1 = own.fanin_literals()
        mf0, mf1 = miter.fanin_literals()
        return bool(np.array_equal(of0, mf0) and np.array_equal(of1, mf1))

    def tables(self, miter: Optional[Aig] = None) -> np.ndarray:
        """Signature matrix of the current network under the pool.

        Carried columns are reused; only pattern words appended since
        the last call are simulated.  ``miter``, when given, must be the
        state's own network (the historical call shape) — a foreign
        network raises, because its signatures would not be carryable.
        """
        if miter is not None and not self.matches(miter):
            raise ValueError(
                "tables() called with a network this state does not own"
            )
        pool = self._pool()
        width = pool.pi_words.shape[1]
        tracer = get_tracer()
        if self._tables is None:
            self._tables = simulate_words(self._aig, pool.pi_words)
            tracer.metrics.counter_add(
                "state.initial_words", int(self._tables.size)
            )
            return self._tables
        have = self._tables.shape[1]
        if have < width:
            with tracer.span("carryover", category="state") as span:
                fresh = simulate_words(
                    self._aig, pool.pi_words[:, have:]
                )
                self._tables = np.hstack([self._tables, fresh])
                carried = int(self._aig.num_nodes * have)
                span.set("carried_words", carried)
                span.set("recomputed_words", int(fresh.size))
                tracer.metrics.counter_add("state.carried_words", carried)
                tracer.metrics.counter_add(
                    "state.recomputed_words", int(fresh.size)
                )
        return self._tables

    @property
    def carried_words(self) -> int:
        """Signature words currently carried (0 when none computed)."""
        return 0 if self._tables is None else int(self._tables.size)

    def classes(
        self,
        miter: Optional[Aig] = None,
        tables: Optional[np.ndarray] = None,
    ) -> EquivalenceClasses:
        """Equivalence classes of the current network under the pool.

        Classes remapped through the last reduction are served without
        re-clustering; they are recomputed only when the pool has grown
        since (new patterns can split any class).
        """
        if miter is not None and not self.matches(miter):
            raise ValueError(
                "classes() called with a network this state does not own"
            )
        width = self._pool().pi_words.shape[1]
        if self._classes is not None and self._classes_words == width:
            return self._classes
        if tables is None:
            tables = self.tables()
        self._classes = EquivalenceClasses.from_tables(tables)
        self._classes_words = width
        return self._classes

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def apply_merges(self, merges: Dict[int, Tuple[int, int]]) -> Aig:
        """Merge proved pairs, rebuild the miter and carry all knowledge.

        This is the miter manager's reduction step (§III-A).  ``merges``
        maps a proved node to ``(representative, phase)``: the node is
        functionally equal to ``lit(representative, phase)``, and the
        representative (a class minimum) has the smaller id.  The rebuild is
        the vectorised gather/strash of :mod:`repro.aig.rebuild`;
        signature rows, the salt matrix, the equivalence classes and the
        cached truth tables of every surviving node move over by pure
        index gathers — nothing is re-simulated.
        """
        if not merges:
            return self._aig
        replacements = {
            node: lit(target, phase)
            for node, (target, phase) in merges.items()
        }
        tracer = get_tracer()
        with tracer.span(
            "rebuild",
            category="state",
            merges=len(merges),
            ands_before=self._aig.num_ands,
        ) as span:
            result = rebuild_network(
                self._aig, replacements, name=self._aig.name, prune="after"
            )
            span.set("rounds", result.rounds)
            span.set("ands_after", result.aig.num_ands)
            carried = self._carry_over(result)
            span.set("carried_words", carried)
            span.set("recomputed_words", 0)
        tracer.metrics.counter_add("state.rebuilds")
        return self._aig

    def set_pos(self, new_pos: List[int]) -> Aig:
        """Replace the PO literals and sweep the dead cones (P phase).

        Equivalent to building an :class:`Aig` with the new POs and
        running ``cleanup`` — same relabel semantics, but the carried
        knowledge survives the compaction.
        """
        if list(new_pos) == self._aig.pos:
            return self._aig
        staged = Aig(
            self._aig.num_pis,
            self._aig.fanin_literals()[0],
            self._aig.fanin_literals()[1],
            new_pos,
            name=self._aig.name,
        )
        tracer = get_tracer()
        with tracer.span(
            "rebuild",
            category="state",
            merges=0,
            ands_before=self._aig.num_ands,
        ) as span:
            result = rebuild_network(
                staged, None, name=self._aig.name, prune="before"
            )
            span.set("rounds", result.rounds)
            span.set("ands_after", result.aig.num_ands)
            carried = self._carry_over(result)
            span.set("carried_words", carried)
            span.set("recomputed_words", 0)
        tracer.metrics.counter_add("state.rebuilds")
        return self._aig

    def replace_network(self, aig: Aig) -> Aig:
        """Adopt a restructured network (e.g. after cut rewriting).

        Rewriting preserves the PO functions but loses the node
        correspondence, so all carried per-node knowledge is dropped and
        the next :meth:`tables` call re-simulates from scratch (counted
        as recomputed words, not initial ones).
        """
        if aig.num_pis != self.num_pis:
            raise ValueError("replacement network changes the PI interface")
        self._aig = aig
        if self._tables is not None:
            tracer = get_tracer()
            with tracer.span("carryover", category="state") as span:
                span.set("carried_words", 0)
                recomputed = int(aig.num_nodes * self._tables.shape[1])
                span.set("recomputed_words", recomputed)
                tracer.metrics.counter_add(
                    "state.recomputed_words", recomputed
                )
                self._tables = simulate_words(aig, self.pi_words)
        self._classes = None
        self._classes_words = -1
        self._salt = None
        self._bound = None
        self._table_carry = {}
        self._key_carry = {}
        self.origin_valid = False
        self.origin_literals = np.full(
            self.origin_literals.shape, -1, dtype=np.int64
        )
        return self._aig

    def _carry_over(self, result: RebuildResult) -> int:
        """Remap every piece of carried knowledge; returns carried words."""
        node_map = result.node_map
        new_aig = result.aig
        # Old ids of the surviving nodes in new-id order: const + PIs
        # keep their ids, kept ANDs are listed by the rebuild.
        old_of_new = np.concatenate(
            [
                np.arange(self._aig.first_and, dtype=np.int64),
                self._aig.first_and + result.kept_ands,
            ]
        )
        carried = 0
        if self._tables is not None:
            # Merges are proved exact equivalences: every surviving node
            # computes the same function as its old self, so its
            # signature row moves by a pure gather.
            self._tables = self._tables[old_of_new]
            carried += int(self._tables.size)
        if self._salt is not None:
            self._salt = self._salt[old_of_new]
            carried += int(self._salt.size)
        if (
            self._classes is not None
            and self._sim is not None
            and self._classes_words == self._sim.pi_words.shape[1]
        ):
            self._classes = self._classes.remap(node_map)
        else:
            self._classes = None
            self._classes_words = -1
        self._carry_fingerprints(node_map)
        if self.origin_valid:
            origin = self.origin_literals
            alive = origin >= 0
            mapped = node_map[origin[alive] >> 1]
            origin[alive] = np.where(
                mapped >= 0, mapped ^ (origin[alive] & 1), -1
            )
        self._aig = new_aig
        self.rebuilds += 1
        tracer = get_tracer()
        tracer.metrics.counter_add("state.carried_words", carried)
        return carried

    def _carry_fingerprints(self, node_map: np.ndarray) -> None:
        """Move cached truth tables / keys onto their new node ids."""
        source_tables: Dict = dict(self._table_carry)
        source_keys: Dict[int, str] = dict(self._key_carry)
        if self._bound is not None:
            fp = self._bound.fingerprints
            for node, entry in fp._tables.items():
                if entry is not None:
                    source_tables[node] = entry
            for node, key in fp._final_keys.items():
                if key.startswith("T:"):
                    source_keys[node] = key
            self._bound = None
        new_tables: Dict = {}
        new_keys: Dict[int, str] = {}
        for node, entry in source_tables.items():
            mapped = int(node_map[node])
            if mapped < 0:
                continue
            if mapped & 1:
                # The new node computes the complement: complement the
                # table (same functional support).
                table, support = entry
                mask = (1 << (1 << len(support))) - 1
                new_tables[mapped >> 1] = (mask ^ table, support)
            else:
                new_tables[mapped >> 1] = entry
        for node, key in source_keys.items():
            mapped = int(node_map[node])
            # Keys digest the function including its phase, so only
            # phase-preserving survivors can reuse them.
            if mapped >= 0 and not (mapped & 1):
                new_keys[mapped >> 1] = key
        self._table_carry = new_tables
        self._key_carry = new_keys

    # ------------------------------------------------------------------
    # Knowledge-cache binding
    # ------------------------------------------------------------------

    def bound_cache(self, cache):
        """Bind ``cache`` to the current network, reusing carried state.

        The fingerprint salt matrix and every memoised truth table /
        truth-table key survive reductions, so re-binding after a
        reduction costs a structural-hash pass instead of a full
        re-simulation plus cone re-evaluation.
        """
        if cache is None:
            return None
        if self._bound is not None and self._bound.cache is cache:
            return self._bound
        from repro.cache.fingerprint import MiterFingerprints

        fingerprints = MiterFingerprints(
            self._aig,
            cache.config,
            salt_matrix=self._salt_matrix(cache.config),
            table_carry=self._table_carry,
            key_carry=self._key_carry,
        )
        self._bound = cache.bind(self._aig, fingerprints=fingerprints)
        return self._bound

    def _salt_matrix(self, config) -> Optional[np.ndarray]:
        if config.salt_words <= 0 or self.num_pis == 0:
            return None
        if (
            self._salt is None
            or self._salt.shape[1] != config.salt_words
        ):
            from repro.cache.fingerprint import SALT_SEED
            from repro.simulation.bitops import random_words

            rng = np.random.default_rng(SALT_SEED)
            words = random_words(self.num_pis, config.salt_words, rng)
            self._salt = simulate_words(self._aig, words)
            get_tracer().metrics.counter_add(
                "state.initial_words", int(self._salt.size)
            )
        return self._salt

    # ------------------------------------------------------------------
    # Pickling (portfolio workers ship CecResult.sim_state)
    # ------------------------------------------------------------------

    def __getstate__(self):
        state = {
            "_aig": self._aig,
            "num_pis": self.num_pis,
            "_num_random_words": self._num_random_words,
            "_seed": self._seed,
            "_strategy": self._strategy,
            "_sim": self._sim,
            "_tables": self._tables,
            "_salt": self._salt,
            "origin_literals": self.origin_literals,
            "origin_valid": self.origin_valid,
            "rebuilds": self.rebuilds,
        }
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # The signature and salt matrices cross the wire, so a finisher
        # adopts them without re-simulating.  Everything else is rebuilt
        # lazily on the receiving side: classes re-cluster from the
        # carried tables, and the cache binding holds process-local
        # resources.
        self._classes = None
        self._feature_net = None
        self._feature_cap = -1
        self._feature_supports = None
        self._feature_levels = None
        self._classes_words = -1
        self._bound = None
        self._table_carry = {}
        self._key_carry = {}
