"""Per-layer tracing from outside the program.

The traced run wraps the public entry points of each layer of ``repro``
in spans that carry parent links, computes each span's self time (its
duration minus the time its child spans cover) and sums self time per
layer.  The root span is the traced round itself, so the layer self
times plus the root's self time (``obs.unattributed_s``) add up to the
traced wall exactly.  Counters come from what the program already
exports through ``repro.obs``.

Nothing here is imported by the timed runs: tracing is only installed
for the separate traced round.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List

#: Layers whose self times partition the traced wall of a one-shot run.
LAYERS = ("aig", "simulation", "cuts", "sweep", "sat", "bdd", "sched")


class SpanRecorder:
    """Spans as ``[key, layer, parent, start, end]`` rows in call order."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, key: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([key, layer, parent, time.perf_counter(), 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, span_id: int) -> None:
        # Unwind to the span being closed: an exception may have skipped
        # the close of a generator step below it.
        while self._stack and self._stack[-1] != span_id:
            self.spans[self._stack.pop()][4] = time.perf_counter()
        if self._stack:
            self._stack.pop()
        self.spans[span_id][4] = time.perf_counter()

    def split(self) -> Dict[str, Dict[str, float]]:
        """Self time per layer and per key, inclusive time and call count
        per key.

        A key's inclusive time counts only its outermost spans, so a
        function that re-enters itself is not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for key, layer, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layer_self: Dict[str, float] = {}
        key_self: Dict[str, float] = {}
        inclusive: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for index, (key, layer, parent, start, end) in enumerate(self.spans):
            duration = end - start
            own = duration - child_time[index]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            key_self[key] = key_self.get(key, 0.0) + own
            calls[key] = calls.get(key, 0) + 1
            if not self._has_ancestor_key(index, key):
                inclusive[key] = inclusive.get(key, 0.0) + duration
        return {
            "self": layer_self,
            "key_self": key_self,
            "inclusive": inclusive,
            "calls": calls,
        }

    def _has_ancestor_key(self, index: int, key: str) -> bool:
        parent = self.spans[index][2]
        while parent >= 0:
            if self.spans[parent][0] == key:
                return True
            parent = self.spans[parent][2]
        return False


class Instrumentation:
    """Installs span wrappers on ``repro`` entry points and removes them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.counts: Dict[str, float] = {}
        self._undo: List[Callable[[], None]] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, key, layer, before=None, after=None):
        """``fn`` inside a span; ``key`` may be a function of the call's
        arguments, ``before(args)``'s result is passed to
        ``after(args, result, state)``."""
        recorder = self.recorder
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    span = recorder.open(key, layer)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        recorder.close(span)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_key = key(args) if callable(key) else key
            state = before(args) if before is not None else None
            span = recorder.open(span_key, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(args, result, state)
            return result
        return wrapper

    def function(self, module: str, name: str, key, layer) -> None:
        """Wrap a module-level function everywhere it was imported."""
        original = getattr(importlib.import_module(module), name)
        self.replace(original, self._wrap(original, key, layer))

    def replace(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every ``repro`` module."""
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(
                "repro"
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append(
                        functools.partial(setattr, mod, attr, original)
                    )

    def method(self, module: str, cls: str, name: str, key, layer,
               before=None, after=None) -> None:
        """Wrap a method on its class."""
        klass = getattr(importlib.import_module(module), cls)
        original = klass.__dict__[name]
        setattr(klass, name, self._wrap(original, key, layer, before, after))
        self._undo.append(functools.partial(setattr, klass, name, original))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every layer's public entry points; returns the undo handle."""
    inst = Instrumentation(recorder)
    lanes = set()  # ids of the dispatchers' public lanes

    # Importing the scheduler and BDD modules first makes sure every
    # importer of a wrapped function is present when it is patched.
    for module in ("repro.portfolio.checker", "repro.sched.dispatcher",
                   "repro.sched.lanes", "repro.cubes.lane",
                   "repro.bdd.sweeping", "repro.cache.knowledge",
                   "repro.cache.fingerprint", "repro.sweep.classes"):
        importlib.import_module(module)

    inst.function("repro.aig.miter", "build_miter", "aig.miter", "aig")
    inst.function("repro.aig.rebuild", "rebuild_network",
                  "aig.rebuild", "aig")
    inst.function("repro.simulation.partial", "simulate_words",
                  "simulation.partial", "simulation")
    inst.method("repro.simulation.exhaustive", "ExhaustiveSimulator", "run",
                "simulation.exhaustive", "simulation")
    inst.method("repro.cuts.enumeration", "CutEnumerator", "run",
                "cuts.enumerate", "cuts")
    inst.method("repro.sweep.engine", "SimSweepEngine", "check_miter",
                "sweep.engine", "sweep")
    inst.method("repro.sat.sweeping", "SatSweepChecker", "check_miter",
                "sat.residue", "sat")
    inst.method(
        "repro.sat.solver", "SatSolver", "solve", "sat.solve", "sat",
        before=lambda args: args[0].conflicts,
        after=lambda args, result, before: inst.count(
            "sat.conflicts", args[0].conflicts - before
        ),
    )
    inst.method("repro.sat.cnf", "CnfBuilder", "var_of", "sat.encode", "sat")

    def register_lanes(args, result, state):
        lanes.update(id(lane) for lane in args[0].lanes.values())

    inst.method("repro.sched.dispatcher", "AdaptiveSweeper", "__init__",
                "sched.init", "sched", after=register_lanes)
    inst.method("repro.sched.dispatcher", "AdaptiveSweeper", "check_miter",
                "sched.route", "sched")

    def settled(args, outcome, state):
        pairs = args[2]
        inst.count("sched.lane_pairs", len(pairs))
        inst.count("sched.lane_settled", len(pairs) - len(outcome.unresolved))

    inst.method("repro.sched.lanes", "SimLane", "run", "sched.lane_sim",
                "sched", after=settled)
    inst.method("repro.sched.lanes", "CutLane", "run", "sched.lane_cut",
                "sched", after=settled)
    inst.method("repro.sched.lanes", "BddLane", "run", "sched.lane_bdd",
                "bdd", after=settled)
    # The dispatcher's full-budget drain is a second SatBatchLane that is
    # not among its public ``lanes``.
    inst.method(
        "repro.sched.lanes", "SatBatchLane", "run",
        lambda args: (
            "sched.lane_sat" if id(args[0]) in lanes
            else "sched.lane_sat_drain"
        ),
        "sched", after=settled,
    )
    _count_blowouts(inst)
    return inst


def _count_blowouts(inst: Instrumentation) -> None:
    """Count BDD node-budget blowouts where ``node_bdd`` raises them."""
    from repro.bdd import sweeping
    from repro.bdd.manager import BddLimitExceeded

    original = sweeping.node_bdd

    @functools.wraps(original)
    def node_bdd(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        except BddLimitExceeded:
            inst.count("bdd.blowouts")
            raise

    inst.replace(original, node_bdd)


def phase_totals(reports) -> Dict[str, float]:
    """P/G/L seconds and the L proof ratio from ``EngineReport.phases``."""
    seconds = {"P": 0.0, "G": 0.0, "L": 0.0}
    l_candidates = l_proved = 0
    for report in reports:
        for phase in getattr(report, "phases", []):
            if phase.kind in seconds:
                seconds[phase.kind] += phase.seconds
            if phase.kind == "L":
                l_candidates += phase.candidates
                l_proved += phase.proved
    return {
        "sweep.P_s": seconds["P"],
        "sweep.G_s": seconds["G"],
        "sweep.L_s": seconds["L"],
        "sweep.L_proved_ratio": (
            l_proved / l_candidates if l_candidates else 0.0
        ),
    }


def layer_metrics(
    split: Dict[str, Dict[str, float]],
    counts: Dict[str, float],
    counters: Dict[str, float],
    phases: Dict[str, float],
    traced_wall: float,
    untraced_wall: float,
) -> Dict[str, float]:
    """Name every one-shot per-layer metric from one traced round."""
    inc = split["inclusive"]
    calls = split["calls"]
    own = split["self"]
    metrics = {f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS}
    lane_pairs = counts.get("sched.lane_pairs", 0)
    metrics.update({
        "aig.miter_s": inc.get("aig.miter", 0.0),
        "aig.rebuild_s": inc.get("aig.rebuild", 0.0),
        "simulation.exhaustive_s": inc.get("simulation.exhaustive", 0.0),
        "simulation.exhaustive_calls": calls.get("simulation.exhaustive", 0),
        "simulation.partial_s": inc.get("simulation.partial", 0.0),
        "simulation.words": counters.get("sim.words_simulated", 0),
        "cuts.enumerate_s": inc.get("cuts.enumerate", 0.0),
        "cuts.expansions": counters.get("cuts.expansions", 0),
        "sat.solve_s": inc.get("sat.solve", 0.0),
        "sat.encode_s": inc.get("sat.encode", 0.0),
        "sat.solves": calls.get("sat.solve", 0),
        "sat.conflicts": counts.get("sat.conflicts", 0),
        "sat.residue_s": inc.get("sat.residue", 0.0),
        "bdd.s": inc.get("sched.lane_bdd", 0.0),
        "bdd.blowouts": counts.get("bdd.blowouts", 0),
        "sched.route_s": split["key_self"].get("sched.route", 0.0),
        "sched.lane_sim_s": inc.get("sched.lane_sim", 0.0),
        "sched.lane_cut_s": inc.get("sched.lane_cut", 0.0),
        "sched.lane_bdd_s": inc.get("sched.lane_bdd", 0.0),
        "sched.lane_sat_s": inc.get("sched.lane_sat", 0.0),
        "sched.lane_sat_drain_s": inc.get("sched.lane_sat_drain", 0.0),
        "sched.mispredicts": counters.get("sched.mispredict", 0),
        "sched.settled_ratio": (
            counts.get("sched.lane_settled", 0) / lane_pairs
            if lane_pairs else 0.0
        ),
        "obs.unattributed_s": own.get("root", 0.0),
        "obs.traced_wall_s": traced_wall,
        "obs.trace_overhead_s": traced_wall - untraced_wall,
    })
    for lane in ("sim", "cut", "bdd", "sat"):
        metrics[f"sched.dispatch_{lane}"] = counters.get(
            f"sched.dispatch.{lane}", 0
        )
    metrics.update(phases)
    return metrics
