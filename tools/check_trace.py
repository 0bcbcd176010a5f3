#!/usr/bin/env python
"""Validate a Chrome ``trace_event`` JSON file produced by ``repro.obs``.

CI runs this against the trace artifact of the traced smoke job::

    python tools/check_trace.py trace.json \
        --require-phases phase.P phase.G phase.L --require-workers 2

The checker enforces the subset of the Chrome trace format the
``repro.obs`` tracer emits (no external jsonschema dependency needed —
the rules below *are* the schema):

- top level: an object with a non-empty ``traceEvents`` list;
- every event: an object with string ``name``, ``ph`` in
  ``{"X", "M", "i", "I", "C"}``, integer ``pid`` and ``tid``;
- complete events (``ph == "X"``): numeric ``ts >= 0``, ``dur >= 0``
  and a string ``cat``;
- metadata events (``ph == "M"``): an ``args.name`` string;
- ``--require-phases``: each named span must appear as an ``X`` event;
- ``--require-workers N``: at least ``N`` distinct pids must both carry
  a ``process_name`` metadata record starting with ``worker`` and have
  at least one ``X`` event — i.e. the merged timeline really contains
  span data from that many worker processes;
- ``--require-rebuild``: at least one incremental ``rebuild`` span
  (category ``state``) must appear, and every rebuild span must carry
  the ``merges``/``ands_before``/``ands_after``/``carried_words``
  bookkeeping in its ``args`` — i.e. the run really went through the
  carry-across-phases :class:`SweepState` path instead of a silent
  rebuild-from-scratch fallback;
- ``--require-sched``: the run must have gone through the adaptive
  per-pair scheduler: every ``sched.dispatch.<lane>`` counter is
  present (pre-registered at zero, so absence means the dispatcher
  never ran), ``sched.mispredict`` is recorded, and the batched SAT
  lane actually batched — ``sat.batch.pairs > sat.batch.solves`` with
  at least one solve, i.e. many pairs shared each solver instance;
- ``--require-cubes``: the run (``cec --engine cube``) must have raced
  cofactor cubes for at least one miter PO: the ``cubes.split``/``cubes.races``/
  ``cubes.cancelled`` counters are present, a ``cubes.race`` span
  appears, and at least one losing sibling was cancelled after the
  first winner (``cubes.cancelled >= 1``) — i.e. first-winner
  cancellation really fired instead of every cube running to the end.

Exit status: 0 when the trace validates, 1 otherwise (errors listed on
stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Sequence

ALLOWED_PHASES = {"X", "M", "i", "I", "C"}


REBUILD_ARGS = ("merges", "ands_before", "ands_after", "carried_words")

#: The adaptive scheduler's dispatch lanes (``--require-sched``).
SCHED_LANES = ("sim", "cut", "bdd", "sat")

#: Counters that must be present under ``--require-cubes``.
CUBE_REQUIRED_COUNTERS = ("cubes.split", "cubes.races", "cubes.cancelled")


def validate_trace(
    payload: object,
    require_phases: Sequence[str] = (),
    require_workers: int = 0,
    require_rebuild: bool = False,
    require_sched: bool = False,
    require_cubes: bool = False,
) -> List[str]:
    """Check one parsed trace payload; returns a list of error strings."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["top level is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents is missing, not a list, or empty"]

    process_names: Dict[int, str] = {}
    span_names = set()
    pids_with_spans = set()
    counters: Dict[str, float] = {}
    rebuild_spans = 0
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing or non-string name")
            continue
        ph = event.get("ph")
        if ph not in ALLOWED_PHASES:
            errors.append(f"{where} ({name}): bad ph {ph!r}")
            continue
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                errors.append(f"{where} ({name}): missing integer {field}")
        if ph == "X":
            ts = event.get("ts")
            dur = event.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where} ({name}): X event needs ts >= 0")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where} ({name}): X event needs dur >= 0")
            if not isinstance(event.get("cat"), str):
                errors.append(f"{where} ({name}): X event needs a cat string")
            span_names.add(name)
            if isinstance(event.get("pid"), int):
                pids_with_spans.add(event["pid"])
            if name == "rebuild":
                rebuild_spans += 1
                args = event.get("args")
                if not isinstance(args, dict):
                    errors.append(
                        f"{where} (rebuild): span carries no args"
                    )
                else:
                    for key in REBUILD_ARGS:
                        if not isinstance(args.get(key), int):
                            errors.append(
                                f"{where} (rebuild): args.{key} missing "
                                "or not an integer"
                            )
        elif ph == "M":
            args = event.get("args")
            if not isinstance(args, dict) or not isinstance(
                args.get("name"), str
            ):
                errors.append(
                    f"{where} ({name}): M event needs an args.name string"
                )
            elif name == "process_name" and isinstance(event.get("pid"), int):
                process_names[event["pid"]] = args["name"]
        elif ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not isinstance(
                args.get("value"), (int, float)
            ):
                errors.append(
                    f"{where} ({name}): C event needs a numeric args.value"
                )
            else:
                counters[name] = args["value"]

    for phase in require_phases:
        if phase not in span_names:
            errors.append(f"required span {phase!r} not found in the trace")

    if require_rebuild and rebuild_spans == 0:
        errors.append(
            "no 'rebuild' span found: the run never went through the "
            "incremental SweepState rebuild path"
        )

    if require_workers > 0:
        worker_pids = {
            pid
            for pid, name in process_names.items()
            if name.startswith("worker") and pid in pids_with_spans
        }
        if len(worker_pids) < require_workers:
            errors.append(
                f"trace has spans from {len(worker_pids)} worker "
                f"process(es), need {require_workers}"
            )

    if require_sched:
        for lane in SCHED_LANES:
            counter = f"sched.dispatch.{lane}"
            if counter not in counters:
                errors.append(
                    f"counter {counter!r} missing: the adaptive scheduler "
                    "never exported its dispatch counters (counters are "
                    "pre-registered at zero, so absence means the "
                    "dispatcher never ran)"
                )
        if "sched.mispredict" not in counters:
            errors.append(
                "counter 'sched.mispredict' missing: the cost model's "
                "feedback loop never reported"
            )
        pairs = counters.get("sat.batch.pairs", 0)
        solves = counters.get("sat.batch.solves", 0)
        if solves < 1:
            errors.append(
                "sat.batch.solves < 1: the batched SAT lane never solved "
                "(the final PO proof alone should produce one batch)"
            )
        elif pairs <= solves:
            errors.append(
                f"sat.batch.pairs ({pairs:.0f}) <= sat.batch.solves "
                f"({solves:.0f}): SAT queries were not batched — each "
                "solver instance should serve many pairs"
            )

    if require_cubes:
        for counter in CUBE_REQUIRED_COUNTERS:
            if counter not in counters:
                errors.append(
                    f"counter {counter!r} missing: the run never entered "
                    "the cube-and-conquer path (run `cec --engine cube` "
                    "to race every miter PO)"
                )
        if counters.get("cubes.split", 0) < 1:
            errors.append(
                "cubes.split < 1: no PO query was ever cofactor-split"
            )
        if counters.get("cubes.races", 0) < 1:
            errors.append(
                "cubes.races < 1: no cube race reached a verdict"
            )
        if counters.get("cubes.cancelled", 0) < 1:
            errors.append(
                "cubes.cancelled < 1: no losing sibling was cancelled "
                "after the first winner — first-winner cancellation was "
                "never observed"
            )
        if "cubes.race" not in span_names:
            errors.append(
                "no 'cubes.race' span found: the distributed cube race "
                "never ran"
            )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="validate a repro.obs Chrome trace file"
    )
    parser.add_argument("trace", help="path to the trace JSON file")
    parser.add_argument(
        "--require-phases", nargs="*", default=[], metavar="SPAN",
        help="span names that must appear as X events",
    )
    parser.add_argument(
        "--require-workers", type=int, default=0, metavar="N",
        help="minimum number of worker processes with spans",
    )
    parser.add_argument(
        "--require-rebuild", action="store_true",
        help="require at least one incremental 'rebuild' span",
    )
    parser.add_argument(
        "--require-sched", action="store_true",
        help="require adaptive-scheduler counters (all sched.dispatch.* "
        "lanes present, sched.mispredict recorded, sat.batch.pairs > "
        "sat.batch.solves)",
    )
    parser.add_argument(
        "--require-cubes", action="store_true",
        help="require cube-and-conquer evidence (cubes.split/races/"
        "cancelled counters, a 'cubes.race' span, and at least one "
        "loser cancelled after the first winner)",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {args.trace}: {error}", file=sys.stderr)
        return 1

    errors = validate_trace(
        payload,
        require_phases=args.require_phases,
        require_workers=args.require_workers,
        require_rebuild=args.require_rebuild,
        require_sched=args.require_sched,
        require_cubes=args.require_cubes,
    )
    if errors:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 1
    events = payload["traceEvents"]
    spans = sum(1 for e in events if e.get("ph") == "X")
    pids = {e.get("pid") for e in events}
    print(
        f"ok: {args.trace} validates "
        f"({spans} spans across {len(pids)} process(es))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
