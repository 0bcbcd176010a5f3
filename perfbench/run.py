"""Benchmark of the ``repro`` CEC engine through its user entry points.

    python3 perfbench/run.py --workload paper-flow --seed 1 --seconds 30 --trace 0

Workloads (see README.md for their make-up):

- ``paper-flow``: ``CombinedChecker(sched="fixed")``, the paper's
  P→G→L→SAT flow, on pairs whose PO supports exceed k_P, plus mutants;
  its traced round also puts the pairs through the default path;
- ``serve-stream``: a seeded closed-loop stream of checks from two
  tenants against ``python -m repro serve --workers 2``.

This process imports nothing from ``repro``.  It starts the program's
processes (:mod:`hygiene` owns them), reads their results and checks
every verdict against the expected verdicts of the frozen inputs,
replaying every counter-example on the two original circuits with the
independent :mod:`oracle`.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``; end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hygiene  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("paper-flow", "serve-stream")

#: Set-ups per run; ``setup_s`` is their median.  One more set-up runs
#: first and is not counted: it fills the run's own bytecode cache (see
#: :func:`child_env`), so every counted set-up starts from the same state.
#: A paper-flow set-up takes about 0.25 s and a serve-stream one about
#: 5 s (daemon start and four warm-up rounds), so serve-stream repeats
#: fewer of them to leave the run time to its timed stream.
SETUP_REPEATS = {"paper-flow": 7, "serve-stream": 3}

END_TO_END_UNITS = {
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_qps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and units; a layer the workload does not run reads 0.
LAYER_UNITS = {
    "aig.self_s": "s", "aig.miter_s": "s", "aig.rebuild_s": "s",
    "simulation.self_s": "s", "simulation.exhaustive_s": "s",
    "simulation.exhaustive_calls": "count", "simulation.partial_s": "s",
    "simulation.words": "count",
    "cuts.self_s": "s", "cuts.enumerate_s": "s", "cuts.expansions": "count",
    "sweep.self_s": "s", "sweep.P_s": "s", "sweep.G_s": "s",
    "sweep.L_s": "s", "sweep.L_proved_ratio": "ratio",
    "sat.self_s": "s", "sat.solve_s": "s", "sat.encode_s": "s",
    "sat.solves": "count", "sat.conflicts": "count", "sat.residue_s": "s",
    "bdd.self_s": "s", "bdd.s": "s", "bdd.blowouts": "count",
    "sched.self_s": "s", "sched.route_s": "s", "sched.lane_sim_s": "s",
    "sched.lane_cut_s": "s", "sched.lane_bdd_s": "s",
    "sched.lane_sat_s": "s", "sched.lane_sat_drain_s": "s",
    "sched.dispatch_sim": "count", "sched.dispatch_cut": "count",
    "sched.dispatch_bdd": "count", "sched.dispatch_sat": "count",
    "sched.mispredicts": "count", "sched.settled_ratio": "ratio",
    "serve.self_s": "s", "serve.worker_s": "s",
    "serve.engine_s_p50": "s", "serve.overhead_s_p50": "s",
    "serve.respawns": "count", "cache.hit_ratio": "ratio",
    "obs.unattributed_s": "s", "obs.traced_wall_s": "s",
    "obs.trace_overhead_s": "s",
}


class RunError(Exception):
    """The run could not produce a result."""


def child_env(run_dir: Path):
    """The children's environment: ``src/`` first on the import path, and
    temporary files inside the run directory, so nothing is left outside
    the checkout.

    The bytecode cache is the run's own, in the run directory, and is
    always written.  How long an import takes depends on it by about 5x
    (no cached bytecode at all against a warm cache), and a checkout may
    or may not hold ``__pycache__`` directories, or forbid writing them
    (``PYTHONDONTWRITEBYTECODE``).  With a cache of its own, every run
    starts cold and measures its set-ups warm.

    OpenBLAS gets one thread.  The program makes no BLAS call, but
    importing NumPy otherwise starts an OpenBLAS worker that spins for
    tens of milliseconds, and on two vCPUs that made set-up time depend
    on what the other vCPU had been doing (see README.md)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else src
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["PYTHONPYCACHEPREFIX"] = str(run_dir / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def read_event(process, want):
    """Read JSON lines from a child until event ``want``; returns all."""
    events = []
    for line in process.stdout:
        event = json.loads(line)
        events.append(event)
        if event["event"] == want:
            return events
    raise RunError(
        f"child exited (code {process.wait()}) before sending {want!r}"
    )


def send(process, line):
    process.stdin.write(line + "\n")
    process.stdin.flush()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def run_oneshot(sup, args):
    cmd = [
        sys.executable, str(HERE / "oneshot.py"),
        "--inputs", str(args.inputs),
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    repeats = SETUP_REPEATS["paper-flow"]
    setups = []
    for attempt in range(repeats + 1):
        start = time.perf_counter()
        child = sup.spawn(cmd, cwd=ROOT, env=child_env(sup.run_dir), text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        read_event(child, "ready")
        if attempt:
            setups.append(time.perf_counter() - start)
        if attempt < repeats:
            send(child, "quit")
            sup.stop(child)
    send(child, "go")
    events = read_event(child, "done")
    if child.wait() != 0:
        raise RunError(f"check process exited with {child.returncode}")
    return setups, events


def run_serve(sup, args):
    repeats = SETUP_REPEATS["serve-stream"]
    setups = []
    for attempt in range(repeats + 1):
        socket = os.path.relpath(sup.run_dir / f"cec{attempt}.sock", ROOT)
        cache_root = os.path.relpath(sup.run_dir / f"cache{attempt}", ROOT)
        start = time.perf_counter()
        with open(sup.run_dir / f"daemon{attempt}.log", "w") as log:
            daemon = sup.spawn(
                [sys.executable, "-m", "repro", "serve", "--socket", socket,
                 "--workers", "2", "--cache-root", cache_root],
                cwd=ROOT, env=child_env(sup.run_dir), stdout=log, stderr=log,
            )
        client = sup.spawn(
            [sys.executable, str(HERE / "serve_client.py"),
             "--socket", socket, "--inputs", str(args.inputs),
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, env=child_env(sup.run_dir), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        read_event(client, "ready")
        if attempt:
            setups.append(time.perf_counter() - start)
        if attempt < repeats:
            send(client, "quit")
            client.wait(60)
            daemon.wait(60)
    send(client, "go")
    events = read_event(client, "done")
    if client.wait(60) != 0:
        raise RunError(f"serve client exited with {client.returncode}")
    if daemon.wait(60) != 0:
        raise RunError(f"serve daemon exited with {daemon.returncode}")
    return setups, events


# ----------------------------------------------------------------------
# Verification and metrics
# ----------------------------------------------------------------------


class Verifier:
    """Checks verdicts against the manifest and replays counter-examples."""

    def __init__(self, inputs: Path) -> None:
        self.inputs = inputs
        self.pairs = json.loads((inputs / "manifest.json").read_text())["pairs"]
        self._circuits = {}
        self.wrong = []

    def circuits(self, name):
        if name not in self._circuits:
            entry = self.pairs[name]
            self._circuits[name] = (
                oracle.read_aiger(self.inputs / entry["a"]),
                oracle.read_aiger(self.inputs / entry["b"]),
            )
        return self._circuits[name]

    def check(self, event) -> bool:
        """True when the check did not fail; records wrong answers."""
        status = event["status"]
        if status not in ("equivalent", "nonequivalent"):
            return False
        expected = self.pairs[event["pair"]]["verdict"]
        if status != expected:
            self.wrong.append(f"{event['pair']}: {status}, expected {expected}")
        elif status == "nonequivalent":
            a, b = self.circuits(event["pair"])
            if not oracle.replay(a, b, event.get("cex") or []):
                self.wrong.append(f"{event['pair']}: cex does not replay")
        return True


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def end_to_end(setups, events):
    checks = [e for e in events if e["event"] == "check" and not e.get("traced")]
    walls = next(e for e in events if e["event"] == "rounds")["walls"]
    done = events[-1]
    latencies = [e["seconds"] for e in checks]
    # Every round holds the same checks; throughput is that of the median
    # round, so a slow spell in part of the run moves it no more than it
    # moves wall_s.
    per_round = len(checks) / len(walls)
    return {
        "wall_s": statistics.median(walls),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": quantile(latencies, 0.9),
        "throughput_qps": per_round / statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": done["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", type=Path, default=HERE / "inputs",
                        help="frozen inputs (default: perfbench/inputs)")
    args = parser.parse_args(argv)
    args.inputs = args.inputs.resolve()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    verifier = Verifier(args.inputs)
    run_dir = ROOT / ".perfbench-runs" / str(os.getpid())

    # Set-ups, the last round and the traced rounds take well under the
    # margin; a run that has not finished by then is stopped and fails.
    limit = int(args.seconds) + 140

    def watchdog(signum, frame):
        raise RunError(f"run exceeded {limit} s")

    signal.signal(signal.SIGALRM, watchdog)
    signal.alarm(limit)
    sup = hygiene.Supervisor(run_dir)
    keep_logs = False
    try:
        with sup:
            if args.workload == "paper-flow":
                setups, events = run_oneshot(sup, args)
            else:
                setups, events = run_serve(sup, args)
        signal.alarm(0)
    except hygiene.Interrupted as stop:
        print(f"error: {stop}", file=sys.stderr)
        return 128 + stop.signum
    except (RunError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        keep_logs = True
        print(f"error: {error} (logs in {run_dir})", file=sys.stderr)
        return 1
    finally:
        if not keep_logs:
            shutil.rmtree(run_dir, ignore_errors=True)
            try:
                run_dir.parent.rmdir()
            except OSError:
                pass

    checks = [e for e in events if e["event"] == "check"]
    failed = sum(not verifier.check(e) for e in checks)
    failed += len(sup.survivors) + len(sup.leaked_segments)
    for pid in sup.survivors:
        print(f"error: process {pid} outlived the run", file=sys.stderr)
    for name in sup.leaked_segments:
        print(f"error: /dev/shm/{name} outlived the run", file=sys.stderr)
    for line in verifier.wrong:
        print(f"wrong: {line}", file=sys.stderr)

    if args.trace:
        trace = next(e for e in events if e["event"] == "trace")["metrics"]
        names = {n: trace.get(n, 0.0) for n in LAYER_UNITS}
        metrics = {n: {"value": v, "unit": LAYER_UNITS[n]}
                   for n, v in names.items()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]}
                   for n, v in end_to_end(setups, events).items()}
    print(json.dumps({
        "correct": not verifier.wrong,
        "attempted": len(checks) + len(sup.survivors)
        + len(sup.leaked_segments),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
