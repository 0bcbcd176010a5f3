"""Closed-loop client of the serve daemon for the ``serve-stream`` workload.

Started by ``run.py`` once the daemon (``python -m repro serve --workers
2``) has been launched.  It builds every pair's miter, connects with
``repro.serve.client.ServeClient``, and warms the daemon up with
:data:`WARMUP_ROUNDS` untimed rounds of the stream, so workers are
started and the per-tenant caches filled before timing begins.  Then it
reports ``{"event": "ready"}`` and waits for ``go`` on stdin (any other
line: shut the daemon down and exit).

A round is a seeded order of :data:`STREAM` for both tenants.  Two
threads, each with its own connection, take the round's checks in turn
and send the next only when their previous check has answered (a closed
loop with two clients).  Whole rounds run until ``--seconds`` pass.
With ``--trace 1`` one round is replayed on one connection twice, once
bare and once with per-request timestamps kept, to split the wall into
worker time, client-observed serving overhead and client-side time.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

TENANTS = ("tenant-a", "tenant-b")

#: Checks of one tenant in one round: pair name -> repetitions.  Mostly
#: small pairs the one-shot P phase settles, plus wide residue pairs and
#: mutants.  Every design recurs, so the per-tenant caches matter.
#: sin8 (100-160 ms, three times the next slowest) comes once, so the
#: 90th percentile falls inside the 30-60 ms group of square8, voter21
#: and voter21_mut rather than on the edge between that group and sin8.
STREAM = {
    "mult6": 3, "mult7": 3, "square8": 3, "log2_12": 3,
    "sqrt12": 3, "voter15": 3, "hyp6": 3, "sin8": 1,
    "mult7_mut": 2, "log2_12_mut": 2,
    "adder11": 1, "voter21": 1, "voter21_mut": 1,
}


#: Untimed rounds before timing.  Each worker keeps its own resident
#: cache per tenant and learns only from the checks it runs itself, and
#: the daemon sends each check to whichever worker is free.  After one
#: warm-up round the first timed rounds still missed the cache on 2-14 %
#: of lookups and took 1.1-3x the run's median round; after four or five
#: the first timed round read like the rest.
WARMUP_ROUNDS = 4


def emit(event: str, **fields) -> None:
    sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def round_items(rng):
    items = [
        (tenant, name)
        for tenant in TENANTS
        for name, times in STREAM.items()
        for _ in range(times)
    ]
    rng.shuffle(items)
    return items


def run_round(clients, miters, items):
    """Run one round on all connections; returns (records, wall)."""
    records = [None] * len(items)
    cursor = iter(range(len(items)))
    lock = threading.Lock()
    errors = []

    def loop(client):
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                tenant, name = items[index]
                t0 = time.perf_counter()
                record = client.submit_batch(
                    [miters[name]], tenant=tenant, names=[name]
                )[0]
                records[index] = (name, tenant, record,
                                  time.perf_counter() - t0)
        except Exception as error:  # reported by the main thread
            errors.append(error)

    start = time.perf_counter()
    threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return records, wall


def peak_rss_mb(pids):
    """Largest VmHWM (peak resident set) among ``pids`` and this process."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak_kb = max(peak_kb, int(line.split()[1]))
    return peak_kb / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro import build_miter, read_aiger
    from repro.serve.client import ServeClient

    manifest = json.loads((args.inputs / "manifest.json").read_text())
    miters = {}
    for name in STREAM:
        entry = manifest["pairs"][name]
        miters[name] = build_miter(
            read_aiger(args.inputs / entry["a"]),
            read_aiger(args.inputs / entry["b"]),
        )
    clients = [
        ServeClient(args.socket, timeout=120.0, connect_retries=400,
                    connect_interval=0.05)
        for _ in range(2)
    ]
    try:
        for client in clients:
            client.ping()
        rng = random.Random(args.seed)
        for warmup in range(WARMUP_ROUNDS):
            run_round(clients, miters, round_items(random.Random(-1 - warmup)))
        emit("ready")
        if sys.stdin.readline().strip() != "go":
            return 0

        records, walls = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            round_records, wall = run_round(clients, miters, round_items(rng))
            records.extend(round_records)
            walls.append(wall)
        for name, tenant, record, latency in records:
            emit("check", pair=name, tenant=tenant, status=record["status"],
                 cex=record.get("cex"), seconds=latency,
                 worker_seconds=record.get("seconds", 0.0),
                 cache_hits=record.get("cache_hits", 0),
                 cache_lookups=record.get("cache_lookups", 0))
        emit("rounds", walls=walls)

        stats = clients[0].stats()
        if args.trace:
            emit("trace", metrics=traced_round(
                clients[0], miters, round_items(rng), records, stats
            ))
        pids = [stats["pid"]] + [w["pid"] for w in stats["pool"]["per_worker"]]
        emit("done", peak_rss_mb=peak_rss_mb(pids),
             respawns=stats["pool"]["respawns"])
    finally:
        try:
            clients[0].shutdown()
        except (OSError, RuntimeError):
            pass
        for client in clients:
            client.close()
    return 0


def traced_round(client, miters, items, timed_records, stats):
    """The serve split: worker seconds, serving overhead, client time."""
    _, untraced_wall = run_round([client], miters, items)
    spans = []
    start = time.perf_counter()
    for tenant, name in items:
        t0 = time.perf_counter()
        record = client.submit_batch([miters[name]], tenant=tenant,
                                     names=[name])[0]
        spans.append((time.perf_counter() - t0, record))
    traced_wall = time.perf_counter() - start
    for (tenant, name), (latency, record) in zip(items, spans):
        emit("check", pair=name, tenant=tenant, status=record["status"],
             cex=record.get("cex"), seconds=latency, traced=True)
    worker = sum(record["seconds"] for _, record in spans)
    latency = sum(seconds for seconds, _ in spans)
    hits = sum(r.get("cache_hits", 0) for _, _, r, _ in timed_records)
    lookups = sum(r.get("cache_lookups", 0) for _, _, r, _ in timed_records)
    return {
        "serve.worker_s": worker,
        "serve.self_s": latency - worker,
        "obs.unattributed_s": traced_wall - latency,
        "obs.traced_wall_s": traced_wall,
        "obs.trace_overhead_s": traced_wall - untraced_wall,
        "serve.engine_s_p50": statistics.median(
            r["seconds"] for _, _, r, _ in timed_records
        ),
        "serve.overhead_s_p50": statistics.median(
            latency - r["seconds"] for _, _, r, latency in timed_records
        ),
        "serve.respawns": stats["pool"]["respawns"],
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
