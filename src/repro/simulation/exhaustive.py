"""Parallel exhaustive simulation (Algorithm 1 of the paper).

Given a batch of candidate pairs and their windows, the simulator compares
the *entire* truth tables of each pair over the window's input set.  The
computation is memory-bounded and multi-round: every window slot gets an
entry of ``E = 2^e`` words, with ``E`` chosen on the fly as the largest
power of two such that the whole simulation table fits in the provided
budget (Algorithm 1 line 2); round ``r`` simulates truth-table words
``[rE, (r+1)E)`` and windows whose tables are exhausted drop out of later
rounds (line 6).

The paper's three dimensions of parallelism map onto NumPy as follows:

1. *words of one truth table* — axis 1 of the simulation table; every
   bitwise op processes all ``E`` words of a node at once;
2. *nodes of one level* — all window-local levels are batched across the
   entire active set, so one gather/AND/scatter evaluates every node of a
   level in every active window;
3. *multiple windows* — windows are flattened into a single simulation
   table, exactly the ``simt`` of Algorithm 1.

Semantics note: a MISMATCH outcome is a hard disproof only when the window
inputs are the nodes' supports (global checking).  For local-function
windows a mismatch is *inconclusive* — the differing patterns may be
satisfiability don't-cares — and the engine treats it as such.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aig.network import Aig
from repro.obs import get_tracer
from repro.simulation.bitops import (
    FULL_WORD,
    first_set_bit,
    num_tt_words,
    pattern_of_index,
    projection_segment,
)
from repro.simulation.cex import CounterExample
from repro.simulation.window import Pair, Window


class PairStatus(enum.Enum):
    """Result of exhaustively comparing one candidate pair."""

    #: The two truth tables agree on every pattern.
    EQUAL = "equal"

    #: A pattern with differing values was found.
    MISMATCH = "mismatch"


@dataclass
class PairOutcome:
    """Outcome of one pair, with the distinguishing pattern if requested.

    ``window`` is the window the pair was checked in — callers that key
    knowledge by cut content (the functional-knowledge cache) need the
    exact input set the comparison ranged over.
    """

    pair: Pair
    status: PairStatus
    cex: Optional[CounterExample] = None
    window: Optional[Window] = None


@dataclass
class SimulatorStats:
    """Bookkeeping for reports and the window-merging ablation."""

    batches: int = 0
    windows: int = 0
    pairs: int = 0
    slots: int = 0
    rounds: int = 0
    words_simulated: int = 0
    #: Largest simulation table allocated so far, in 64-bit words.
    #: Always ≤ ``memory_budget_words`` — the Algorithm 1 invariant.
    peak_table_words: int = 0
    #: Windows dropped because they alone exceed the memory budget
    #: (only with ``skip_oversized=True``).
    skipped_windows: int = 0


class ExhaustiveSimulator:
    """Memory-bounded multi-round exhaustive simulator.

    Parameters
    ----------
    memory_budget_words:
        Size of the simulation table in 64-bit words (the ``M`` of
        Algorithm 1).  The default of ``2**22`` words is 32 MiB.
    """

    def __init__(self, memory_budget_words: int = 1 << 22) -> None:
        if memory_budget_words < 1:
            raise ValueError("memory budget must be positive")
        self.memory_budget_words = memory_budget_words
        self.stats = SimulatorStats()

    def run(
        self,
        aig: Aig,
        windows: Sequence[Window],
        collect_cex: bool = True,
        skip_oversized: bool = False,
    ) -> List[PairOutcome]:
        """Check all pairs of all windows; returns one outcome per pair.

        Batches whose slot count alone would overflow the memory budget
        are split into sub-batches, so the simulation table never
        exceeds ``memory_budget_words`` (Algorithm 1's ``M``).  A single
        window too large for the budget raises ``ValueError`` — or, with
        ``skip_oversized``, is dropped without an outcome (its pairs
        simply stay unproved, the sound answer when the bound ``M``
        makes a window uncheckable).
        """
        windows = [w for w in windows if w.pairs]
        if skip_oversized:
            kept = [w for w in windows if self.window_fits(w)]
            self.stats.skipped_windows += len(windows) - len(kept)
            windows = kept
        if not windows:
            return []
        windows = sorted(windows, key=lambda w: w.tt_words, reverse=True)
        outcomes: List[PairOutcome] = []
        tracer = get_tracer()
        with tracer.span(
            "sim.exhaustive.run",
            category="sim",
            windows=len(windows),
            pairs=sum(len(w.pairs) for w in windows) if tracer.enabled else 0,
        ):
            for chunk in self._partition(windows):
                outcomes.extend(self._run_chunk(aig, chunk, collect_cex))
        return outcomes

    def window_fits(self, window: Window) -> bool:
        """Whether one window's slots fit the memory budget on their own."""
        need = 1 + len(window.inputs) + len(window.nodes)
        return need <= self.memory_budget_words

    def _partition(self, windows: Sequence[Window]) -> List[List[Window]]:
        """Split windows into sub-batches whose slots fit the budget.

        Even at the minimum entry size of one word per slot, a batch
        needs one word per input/node slot plus the shared constant
        slot; greedily packing windows under that bound preserves the
        descending ``tt_words`` order the round logic relies on.
        """
        budget = self.memory_budget_words
        chunks: List[List[Window]] = []
        current: List[Window] = []
        slots = 1  # shared constant-zero slot
        for window in windows:
            need = len(window.inputs) + len(window.nodes)
            if 1 + need > budget:
                raise ValueError(
                    f"window needs {1 + need} simulation slots but the "
                    f"memory budget is {budget} words; raise "
                    f"memory_budget_words"
                )
            if current and slots + need > budget:
                chunks.append(current)
                current = []
                slots = 1
            current.append(window)
            slots += need
        if current:
            chunks.append(current)
        return chunks

    def _run_chunk(
        self,
        aig: Aig,
        windows: List[Window],
        collect_cex: bool,
    ) -> List[PairOutcome]:
        """Simulate one budget-respecting batch of windows."""
        batch = _FlatBatch(aig, windows)
        max_tt = windows[0].tt_words
        entry = self._entry_size(batch.num_slots, max_tt)
        rounds = max(1, max_tt // entry)

        self.stats.batches += 1
        self.stats.windows += len(windows)
        self.stats.pairs += batch.num_pairs
        self.stats.slots += batch.num_slots

        simt = np.zeros((batch.num_slots, entry), dtype=np.uint64)
        self.stats.peak_table_words = max(
            self.stats.peak_table_words, simt.size
        )
        outcomes: List[Optional[PairOutcome]] = [None] * batch.num_pairs
        unresolved = np.ones(batch.num_pairs, dtype=bool)

        chunk_words = 0
        for r in range(rounds):
            active = batch.active_window_count(r, entry)
            if active == 0:
                break
            plan = batch.plan(active)
            self._fill_inputs(simt, plan, r * entry, entry)
            self._simulate_levels(simt, plan)
            self.stats.rounds += 1
            self.stats.words_simulated += plan.num_and_slots * entry
            chunk_words += plan.num_and_slots * entry
            self._compare_pairs(
                simt, batch, active, r, entry, unresolved, outcomes, collect_cex
            )
        metrics = get_tracer().metrics
        metrics.counter_add("sim.words_simulated", chunk_words)
        # Every AND evaluation gathers two fanin rows and scatters one
        # result row of `entry` 64-bit words: 24 bytes moved per word.
        metrics.counter_add("sim.gather_scatter_bytes", chunk_words * 24)
        metrics.counter_add("sim.batches")
        for i in np.nonzero(unresolved)[0]:
            outcomes[i] = PairOutcome(
                batch.pairs[i],
                PairStatus.EQUAL,
                window=batch.windows[batch.pair_window[i]],
            )
        return [o for o in outcomes if o is not None]

    # ------------------------------------------------------------------

    def _entry_size(self, num_slots: int, max_tt: int) -> int:
        entry = 1
        while entry * 2 * num_slots <= self.memory_budget_words:
            entry *= 2
        return min(entry, max_tt)

    @staticmethod
    def _fill_inputs(
        simt: np.ndarray, plan: "_Plan", word_start: int, entry: int
    ) -> None:
        for position, slots in plan.input_groups.items():
            segment = projection_segment(position, word_start, entry)
            simt[slots] = segment[None, :]

    @staticmethod
    def _simulate_levels(simt: np.ndarray, plan: "_Plan") -> None:
        for tgt, s0, m0, s1, m1 in plan.levels:
            simt[tgt] = (simt[s0] ^ m0) & (simt[s1] ^ m1)

    def _compare_pairs(
        self,
        simt: np.ndarray,
        batch: "_FlatBatch",
        active_windows: int,
        round_index: int,
        entry: int,
        unresolved: np.ndarray,
        outcomes: List[Optional[PairOutcome]],
        collect_cex: bool,
    ) -> None:
        candidates = np.nonzero(
            unresolved & (batch.pair_window < active_windows)
        )[0]
        if candidates.size == 0:
            return
        diff = simt[batch.pair_slot_a[candidates]] ^ simt[
            batch.pair_slot_b[candidates]
        ]
        flip = batch.pair_flip[candidates]
        diff[flip] ^= FULL_WORD
        has_mismatch = diff.any(axis=1)
        for local_idx in np.nonzero(has_mismatch)[0]:
            pair_idx = int(candidates[local_idx])
            unresolved[pair_idx] = False
            window = batch.windows[batch.pair_window[pair_idx]]
            cex = None
            if collect_cex:
                word_idx, bit = first_set_bit(diff[local_idx])
                pattern = pattern_of_index(
                    round_index * entry + word_idx, bit, window.num_inputs
                )
                cex = CounterExample(window.inputs, tuple(pattern))
            outcomes[pair_idx] = PairOutcome(
                batch.pairs[pair_idx], PairStatus.MISMATCH, cex, window=window
            )
        # Pairs whose window finished all its rounds without mismatch are
        # proved equal; resolve them so later rounds skip the comparison.
        finished = candidates[
            batch.window_rounds[batch.pair_window[candidates]]
            == round_index + 1
        ]
        for pair_idx in finished:
            if unresolved[pair_idx]:
                unresolved[pair_idx] = False
                outcomes[pair_idx] = PairOutcome(
                    batch.pairs[pair_idx],
                    PairStatus.EQUAL,
                    window=batch.windows[batch.pair_window[pair_idx]],
                )


@dataclass
class _Plan:
    """Vectorised evaluation plan for a prefix of the window batch."""

    input_groups: Dict[int, np.ndarray]
    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    num_and_slots: int


class _FlatBatch:
    """Slot layout and pair indexing for a batch of windows.

    Slot 0 is a shared constant-zero entry (never written).  Windows are
    laid out contiguously in decreasing ``tt_words`` order so that the
    active set of any round is a prefix, and evaluation plans can be
    cached per prefix length.

    The layout is built with NumPy over the concatenated windows: a
    member's slot is found by ``searchsorted`` on the sorted keys
    ``window * num_nodes + node``, the window-local levels of all
    windows come from one relaxation over their fanin slots, and a
    plan's per-level and per-input-position groups are stable
    ``argsort`` splits.
    """

    def __init__(self, aig: Aig, windows: Sequence[Window]) -> None:
        self.aig = aig
        self.windows = list(windows)
        self.pairs: List[Pair] = [p for w in self.windows for p in w.pairs]
        self.num_pairs = len(self.pairs)
        self._plan_cache: Dict[int, _Plan] = {}

        count = len(self.windows)
        n_in = np.fromiter(
            (len(w.inputs) for w in self.windows), np.int64, count
        )
        n_nd = np.fromiter(
            (len(w.nodes) for w in self.windows), np.int64, count
        )
        sizes = n_in + n_nd
        first_slot = np.cumsum(sizes) - sizes + 1
        self.num_slots = 1 + int(sizes.sum())
        self._inputs_end = np.cumsum(n_in)
        self._nodes_end = np.cumsum(n_nd)
        window_ids = np.arange(count, dtype=np.int64)

        inputs = np.fromiter(
            (node for w in self.windows for node in w.inputs),
            np.int64,
            int(self._inputs_end[-1]) if count else 0,
        )
        nodes = (
            np.concatenate([w.nodes for w in self.windows]).astype(np.int64)
            if count
            else np.zeros(0, dtype=np.int64)
        )
        input_window = np.repeat(window_ids, n_in)
        node_window = np.repeat(window_ids, n_nd)
        #: Position of each input entry within its window's inputs.
        self.input_position = np.arange(inputs.size) - np.repeat(
            self._inputs_end - n_in, n_in
        )
        self.input_slot = first_slot[input_window] + self.input_position
        self.node_slot = (
            (first_slot + n_in)[node_window]
            + np.arange(nodes.size)
            - np.repeat(self._nodes_end - n_nd, n_nd)
        )

        # Inputs come first, so a stable sort finds a node's input slot
        # before any node slot it also has.
        num_nodes = aig.num_nodes
        keys = np.concatenate(
            [
                input_window * num_nodes + inputs,
                node_window * num_nodes + nodes,
            ]
        )
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._key_slots = np.concatenate([self.input_slot, self.node_slot])[
            order
        ]

        fanin0, fanin1 = aig.fanin_literals()
        f0 = fanin0[nodes - aig.first_and]
        f1 = fanin1[nodes - aig.first_and]
        self.fanin0_slot = self._slot_of(node_window, f0 >> 1)
        self.fanin1_slot = self._slot_of(node_window, f1 >> 1)
        self.fanin0_mask = (f0 & 1).astype(np.uint64) * FULL_WORD
        self.fanin1_mask = (f1 & 1).astype(np.uint64) * FULL_WORD
        #: Window-local level of each node entry (inputs at level 0).
        self.node_level = self._local_levels()

        self.pair_window = np.repeat(
            window_ids,
            np.fromiter((len(w.pairs) for w in self.windows), np.int64, count),
        )
        lit_a = np.fromiter(
            (p.lit_a for p in self.pairs), np.int64, self.num_pairs
        )
        lit_b = np.fromiter(
            (p.lit_b for p in self.pairs), np.int64, self.num_pairs
        )
        self.pair_slot_a = self._slot_of(self.pair_window, lit_a >> 1)
        self.pair_slot_b = self._slot_of(self.pair_window, lit_b >> 1)
        self.pair_flip = ((lit_a ^ lit_b) & 1).astype(bool)
        self.window_tt = np.fromiter(
            (w.tt_words for w in self.windows), np.int64, count
        )
        self.window_rounds = np.ones(count, dtype=np.int64)

    def active_window_count(self, round_index: int, entry: int) -> int:
        """Number of leading windows still needing simulation in a round."""
        if round_index == 0:
            self.window_rounds = np.maximum(1, self.window_tt // entry)
        return int(np.count_nonzero(self.window_tt > round_index * entry))

    def plan(self, active: int) -> _Plan:
        """Build (or fetch) the evaluation plan for the first ``active`` windows."""
        cached = self._plan_cache.get(active)
        if cached is not None:
            return cached
        num_inputs = int(self._inputs_end[active - 1])
        num_ands = int(self._nodes_end[active - 1])
        # Positions and window-local levels both run 0, 1, 2, … without
        # gaps, so the i-th run is position i (level i + 1).
        positions = self.input_position[:num_inputs]
        order = np.argsort(positions, kind="stable")
        input_groups = {
            position: slots
            for position, (slots,) in enumerate(
                _split_runs(positions[order], self.input_slot[order])
            )
        }
        level = self.node_level[:num_ands]
        order = np.argsort(level, kind="stable")
        groups = _split_runs(
            level[order],
            self.node_slot[order],
            self.fanin0_slot[order],
            self.fanin0_mask[order][:, None],
            self.fanin1_slot[order],
            self.fanin1_mask[order][:, None],
        )
        plan = _Plan(
            input_groups=input_groups,
            levels=groups,
            num_and_slots=num_ands,
        )
        self._plan_cache[active] = plan
        return plan

    def _slot_of(self, window: np.ndarray, var: np.ndarray) -> np.ndarray:
        """Slots of nodes ``var`` in windows ``window`` (0 for the
        constant node)."""
        num_nodes = self.aig.num_nodes
        query = window * num_nodes + var
        found = np.zeros(query.size, dtype=bool)
        slots = np.zeros(query.size, dtype=np.int64)
        if self._keys.size:
            index = np.minimum(
                np.searchsorted(self._keys, query), self._keys.size - 1
            )
            # An id past the network would alias the next window's keys.
            found = (
                (self._keys[index] == query) & (var > 0) & (var < num_nodes)
            )
            slots = np.where(found, self._key_slots[index], 0)
        missing = ~found & (var != 0)
        if missing.any():
            i = int(np.argmax(missing))
            raise ValueError(
                f"literal node {int(var[i])} is neither an input nor a "
                f"member of window {int(window[i])}"
            )
        return slots

    def _local_levels(self) -> np.ndarray:
        """Window-local levels by relaxation: every node one above its
        deeper fanin, repeated until no level changes (window depth
        rounds), with inputs and the constant pinned at zero."""
        level = np.zeros(self.num_slots, dtype=np.int64)
        node_level = level[self.node_slot]
        while node_level.size:
            new = (
                np.maximum(level[self.fanin0_slot], level[self.fanin1_slot])
                + 1
            )
            if np.array_equal(new, node_level):
                break
            node_level = new
            level[self.node_slot] = new
        return node_level


def _split_runs(sorted_keys: np.ndarray, *arrays: np.ndarray) -> list:
    """Split ``arrays`` (ordered like ``sorted_keys``) at every change of
    key: one tuple of array slices per run of equal keys."""
    if sorted_keys.size == 0:
        return []
    bounds = np.flatnonzero(np.diff(sorted_keys)) + 1
    return list(zip(*(np.split(array, bounds) for array in arrays)))
