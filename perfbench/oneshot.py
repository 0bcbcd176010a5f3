"""One-shot check process: the program as a library user calls it.

Started by ``run.py`` for the ``paper-flow`` workload.  It imports
``repro``, reads the workload's pairs with ``repro.read_aiger`` and
reports ``{"event": "ready"}`` on stdout.  On ``go`` (one line on stdin)
it runs whole rounds of checks through the paper's P→G→L→SAT flow,
``CombinedChecker(sched="fixed")``, one check at a time with a fresh
checker per check, until ``--seconds`` have passed; any other line makes
it exit without checking.  Results go to stdout as JSON lines after the
timed rounds, so writing them costs no timed work.

With ``--trace 1`` the same pairs then go once through each flow, the
fixed one and the default path ``repro.check_equivalence``
(``sched="auto"``), untraced, and once more with the per-layer spans of
:mod:`layers` installed.  The default path is traced here because its
timed workload could not be held steady (see README.md).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path


#: The pairs: PO supports above k_P = 20, so every check goes past the
#: one-shot P phase.  Two are mutants.
PAIRS = [
    "voter21", "voter21_mut", "voter23", "voter23_mut", "adder11", "max11",
]


def emit(event: str, **fields) -> None:
    sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import repro
    from repro import CombinedChecker, read_aiger

    manifest = json.loads((args.inputs / "manifest.json").read_text())
    circuits = {
        name: (
            read_aiger(args.inputs / manifest["pairs"][name]["a"]),
            read_aiger(args.inputs / manifest["pairs"][name]["b"]),
        )
        for name in PAIRS
    }

    def check(a, b):
        return CombinedChecker(sched="fixed").check(a, b)

    emit("ready")
    if sys.stdin.readline().strip() != "go":
        return 0

    rng = random.Random(args.seed)
    records = []
    round_walls = []
    start = time.perf_counter()
    while not round_walls or time.perf_counter() - start < args.seconds:
        round_records, wall = run_round(PAIRS, circuits, check, rng)
        records.extend(round_records)
        round_walls.append(wall)

    for name, status, cex, seconds in records:
        emit("check", pair=name, status=status, cex=cex, seconds=seconds)
    emit("rounds", walls=round_walls)

    if args.trace:
        flows = (check, repro.check_equivalence)
        untraced = 0.0
        for flow in flows:
            flow_records, wall = run_round(PAIRS, circuits, flow, rng)
            untraced += wall
            for name, status, cex, seconds in flow_records:
                emit("check", pair=name, status=status, cex=cex,
                     seconds=seconds, traced=True)
        emit("trace", metrics=traced_round(
            PAIRS, circuits, flows, rng, untraced
        ))
    emit("done", peak_rss_mb=resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


def run_round(names, circuits, check, rng):
    """Check every pair once in a seeded order; returns (records, wall)."""
    order = list(names)
    rng.shuffle(order)
    records = []
    round_start = time.perf_counter()
    for name in order:
        a, b = circuits[name]
        t0 = time.perf_counter()
        result = check(a, b)
        seconds = time.perf_counter() - t0
        records.append((name, result.status.value, result.cex, seconds))
    return records, time.perf_counter() - round_start


def traced_round(names, circuits, flows, rng, untraced_wall):
    """One round per flow under the layer spans and the program's own
    counters; ``untraced_wall`` is the same rounds' wall without them."""
    from repro.obs import Tracer, use_tracer

    import layers

    recorder = layers.SpanRecorder()
    tracer = Tracer()
    reports = []
    checked = []
    order = list(names)
    rng.shuffle(order)
    inst = layers.install(recorder)
    try:
        with use_tracer(tracer):
            root = recorder.open("root", "root")
            for check in flows:
                for name in order:
                    a, b = circuits[name]
                    result = check(a, b)
                    reports.append(result.report)
                    checked.append((name, result.status.value, result.cex))
            recorder.close(root)
    finally:
        inst.remove()
    for name, status, cex in checked:
        emit("check", pair=name, status=status, cex=cex, seconds=0.0,
             traced=True)
    traced_wall = recorder.spans[root][4] - recorder.spans[root][3]
    split = recorder.split()
    counters = {
        name: tracer.metrics.counter_value(name)
        for name in ("sim.words_simulated", "cuts.expansions",
                     "sched.mispredict", "sched.dispatch.sim",
                     "sched.dispatch.cut", "sched.dispatch.bdd",
                     "sched.dispatch.sat")
    }
    return layers.layer_metrics(
        split, inst.counts, counters, layers.phase_totals(reports),
        traced_wall, untraced_wall,
    )


if __name__ == "__main__":
    sys.exit(main())
