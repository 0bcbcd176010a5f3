#!/usr/bin/env python
"""Gate a fresh ``BENCH_*.json`` payload against a checked-in baseline.

CI regenerates a benchmark payload on every run and this checker diffs
it against ``benchmarks/baselines/``::

    python tools/check_bench.py BENCH_table2.json \
        --baseline benchmarks/baselines --max-ratio 25

Three families of regressions are caught:

- **verdict drift** — every baseline row must reappear in the fresh
  payload (matched by name, plus round for serve rows) and agree on
  every verdict column (``abc_status``/``cfm_status``/``ours_status``
  for table2, ``status`` for serve).  ``skipped``/``failed`` entries are
  wildcards: a row whose portfolio was skipped in one run and ran in the
  other is a configuration difference, not a correctness regression;
- **wall-clock regression** — the geometric mean of the per-row
  fresh/baseline time ratios must stay under ``--max-ratio``.  The gated
  column is the one the experiment is *about*: ``total_seconds`` for
  table2, client-observed ``latency`` for serve, the summed phase
  seconds for fig6, ``standalone_seconds`` for fig7.  CI machines are
  noisy and the absolute times are tiny, so the shipped threshold is
  deliberately generous — the gate exists to catch order-of-magnitude
  cliffs (an accidentally-disabled cache, a serialisation path gone
  quadratic), not 10% jitter;
- **hygiene counters** — a fresh serve payload carrying a ``daemon``
  stats snapshot must report at most ``--max-respawns`` worker respawns
  (default 0: a healthy bench run never crashes or deadline-kills a
  worker).

Fresh rows with no baseline counterpart pass with a named ``note:``
line — new coverage is not a regression — and ``--write-baseline``
regenerates the baseline file from the fresh payload (the hygiene gate
still applies, so a crashing run can never become the new reference).

Exit status: 0 when the payload passes, 1 otherwise (errors listed on
stderr, one per line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, Sequence, Tuple

#: Statuses that never fail the verdict comparison: a side that skipped
#: or failed an engine has no verdict to disagree with.
WILDCARD_STATUSES = {"skipped", "failed"}

#: Verdict columns compared per experiment.
VERDICT_FIELDS = {
    "table2": ("abc_status", "cfm_status", "ours_status"),
    "serve": ("status",),
    "fig6": (),
    "fig7": (),
}


def row_key(experiment: str, row: Dict) -> Tuple:
    """Identity of one row for baseline↔fresh matching."""
    if experiment == "serve":
        return (str(row.get("name")), str(row.get("round")))
    return (str(row.get("name")),)


def row_seconds(experiment: str, row: Dict) -> float:
    """The wall-clock column the ratio gate compares for one row."""
    if experiment == "table2":
        return float(row.get("total_seconds", 0.0))
    if experiment == "serve":
        return float(row.get("latency", 0.0))
    if experiment == "fig6":
        seconds = row.get("seconds", {})
        return float(sum(seconds.values())) if seconds else 0.0
    if experiment == "fig7":
        return float(row.get("standalone_seconds", 0.0))
    return 0.0


def _geomean(values: Sequence[float]) -> float:
    positives = [v for v in values if v > 0 and math.isfinite(v)]
    if not positives:
        return 0.0
    return math.exp(sum(math.log(v) for v in positives) / len(positives))


def _daemon_respawns(payload: Dict) -> int:
    """Worker respawn count from a serve payload's daemon snapshot."""
    daemon = payload.get("daemon") or {}
    pool = daemon.get("pool") or {}
    return int(pool.get("respawns", 0))


def check_bench(
    fresh: Dict,
    baseline: Dict,
    max_ratio: float = 25.0,
    max_respawns: int = 0,
) -> Tuple[List[str], Dict]:
    """Diff a fresh payload against its baseline.

    Returns ``(errors, summary)``; the run passes iff ``errors`` is
    empty.  ``summary`` carries the compared-row count and the geomean
    ratio for the caller to print.
    """
    errors: List[str] = []
    experiment = fresh.get("experiment")
    if not isinstance(experiment, str) or "rows" not in fresh:
        return (["fresh payload is not a BENCH_*.json object"], {})
    if baseline.get("experiment") != experiment:
        errors.append(
            f"experiment mismatch: fresh is {experiment!r}, baseline is "
            f"{baseline.get('experiment')!r}"
        )
        return (errors, {})

    fresh_rows = {
        row_key(experiment, row): row for row in fresh.get("rows", [])
    }
    verdict_fields = VERDICT_FIELDS.get(experiment, ())
    ratios: List[float] = []
    compared = 0
    for base_row in baseline.get("rows", []):
        key = row_key(experiment, base_row)
        label = ":".join(key)
        fresh_row = fresh_rows.get(key)
        if fresh_row is None:
            errors.append(f"row {label!r} present in baseline, missing fresh")
            continue
        compared += 1
        for field in verdict_fields:
            base_verdict = str(base_row.get(field, ""))
            fresh_verdict = str(fresh_row.get(field, ""))
            if (
                base_verdict in WILDCARD_STATUSES
                or fresh_verdict in WILDCARD_STATUSES
            ):
                continue
            if base_verdict != fresh_verdict:
                errors.append(
                    f"row {label!r}: {field} changed "
                    f"{base_verdict!r} -> {fresh_verdict!r}"
                )
        base_seconds = row_seconds(experiment, base_row)
        fresh_seconds = row_seconds(experiment, fresh_row)
        if (
            base_seconds > 0
            and fresh_seconds > 0
            and math.isfinite(base_seconds)
            and math.isfinite(fresh_seconds)
        ):
            ratios.append(fresh_seconds / base_seconds)

    if compared == 0:
        errors.append("no baseline row matched the fresh payload")

    # Fresh rows the baseline has never seen are *new coverage* (a bench
    # suite gaining a circuit, a row gaining a round), not a regression:
    # they pass with a named note so the log says exactly what appeared,
    # and `--write-baseline` is the intended follow-up to adopt them.
    baseline_keys = {
        row_key(experiment, row) for row in baseline.get("rows", [])
    }
    new_rows = [
        ":".join(key) for key in fresh_rows if key not in baseline_keys
    ]

    ratio = _geomean(ratios)
    if ratio and ratio > max_ratio:
        errors.append(
            f"geomean wall-clock ratio {ratio:.2f} exceeds "
            f"--max-ratio {max_ratio:g} "
            f"({len(ratios)} row(s) compared)"
        )

    respawns = _daemon_respawns(fresh)
    if respawns > max_respawns:
        errors.append(
            f"daemon respawned {respawns} worker(s), allowed "
            f"{max_respawns}: the bench run crashed or deadline-killed "
            "workers"
        )

    return (
        errors,
        {
            "experiment": experiment,
            "rows_compared": compared,
            "ratio": ratio,
            "respawns": respawns,
            "new_rows": sorted(new_rows),
        },
    )


def resolve_baseline(path: str, experiment: str) -> str:
    """A directory baseline resolves to ``BENCH_<experiment>.json``."""
    if os.path.isdir(path):
        return os.path.join(path, f"BENCH_{experiment}.json")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="gate a fresh BENCH_*.json against a checked-in baseline"
    )
    parser.add_argument("fresh", help="freshly generated BENCH_*.json")
    parser.add_argument(
        "--baseline", default="benchmarks/baselines", metavar="PATH",
        help="baseline payload, or a directory holding "
        "BENCH_<experiment>.json (default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--max-ratio", type=float, default=25.0, metavar="R",
        help="fail when the geomean fresh/baseline wall-clock ratio "
        "exceeds R (default 25: catch cliffs, tolerate CI jitter)",
    )
    parser.add_argument(
        "--max-respawns", type=int, default=0, metavar="N",
        help="allowed daemon worker respawns in a serve payload "
        "(default 0)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate the baseline from the fresh payload instead of "
        "diffing: the respawn gate still applies so a broken run "
        "cannot become the new reference",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.fresh, "r", encoding="utf-8") as handle:
            fresh = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {args.fresh}: {error}", file=sys.stderr)
        return 1
    experiment = fresh.get("experiment", "")
    baseline_path = resolve_baseline(args.baseline, str(experiment))

    if args.write_baseline:
        if not isinstance(experiment, str) or not experiment:
            print(
                f"error: {args.fresh} is not a BENCH_*.json object",
                file=sys.stderr,
            )
            return 1
        respawns = _daemon_respawns(fresh)
        if respawns > args.max_respawns:
            print(
                f"error: daemon respawned {respawns} worker(s), allowed "
                f"{args.max_respawns}; refusing to adopt it as the baseline",
                file=sys.stderr,
            )
            return 1
        os.makedirs(os.path.dirname(baseline_path) or ".", exist_ok=True)
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(fresh, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"ok: wrote baseline {baseline_path} from {args.fresh} "
            f"({len(fresh.get('rows', []))} row(s))"
        )
        return 0

    try:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as error:
        print(
            f"error: cannot read baseline {baseline_path}: {error}",
            file=sys.stderr,
        )
        return 1

    errors, summary = check_bench(
        fresh,
        baseline,
        max_ratio=args.max_ratio,
        max_respawns=args.max_respawns,
    )
    if errors:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 1
    for label in summary.get("new_rows", []):
        print(
            f"note: new row {label!r} absent from baseline — not gated "
            "(run --write-baseline to adopt it)"
        )
    print(
        f"ok: {args.fresh} vs {baseline_path} — "
        f"{summary['rows_compared']} row(s), "
        f"geomean ratio {summary['ratio']:.2f} "
        f"(limit {args.max_ratio:g}), "
        f"{summary['respawns']} respawn(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
