"""Command-line interface.

Subcommands
-----------
``cec A.aig B.aig``
    Check two AIGER files for equivalence.  ``--engine`` selects the
    checker: ``combined`` (default, the paper's flow), ``sim`` (the
    simulation engine alone), ``sat``, ``bdd``, ``cube`` (distributed
    cube-and-conquer racing every miter PO; the one entry point to the
    cube race), ``portfolio`` (staged engines) or ``parallel``
    (process-per-engine portfolio racing).
``stats X.aig``
    Print size/depth/interface statistics of a network.
``opt IN.aig OUT.aig``
    Optimise with a synthesis script (``--script resyn2|compress2|balance``).
``gen FAMILY WIDTH OUT.aig``
    Generate a benchmark circuit (``multiplier``, ``square``, ``sqrt``,
    ``log2``, ``sin``, ``hyp``, ``voter``, ``adder``).
``miter A.aig B.aig OUT.aig``
    Write the miter of two networks.
``serve --socket PATH``
    Run the CEC-as-a-service daemon: a persistent warm worker pool
    behind a Unix socket (see ``docs/serving.md``).
``submit A.aig B.aig --socket PATH``
    Check a pair against a running daemon.  Repeatable pairs: pass
    ``--pair C.aig D.aig`` for each extra job in the batch.
``top --socket PATH``
    Live terminal view of a running daemon: worker health, per-tenant
    SLO burn rates, admission totals.  ``--once`` for a single frame.

Exit status for ``cec``: 0 equivalent, 1 nonequivalent, 2 undecided,
3 when every portfolio engine failed.  ``submit`` uses the same codes
(a batch exits with the worst verdict across its jobs).

Stream contract: the machine-readable payload (``verdict:``, ``cex:``,
``residue:``, ``time:``, ``cache:``, ``metrics``) goes to *stdout*;
diagnostics — phase progress, portfolio summaries, failures — go
through the :mod:`repro.obs.logging` structured logger on *stderr*, so
``cec … > out.txt`` captures exactly the payload.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

from repro.aig.aiger import read_aiger, write_aiger
from repro.aig.miter import build_miter
from repro.aig.network import Aig
from repro.bdd.cec import BddChecker
from repro.bench import generators as gen
from repro.cache.config import CacheConfig
from repro.cache.knowledge import SweepCache
from repro.obs import (
    Tracer,
    configure_logging,
    get_logger,
    get_tracer,
    set_tracer,
)
from repro.obs.logging import LEVELS
from repro.portfolio.checker import CombinedChecker, PortfolioChecker
from repro.portfolio.parallel import (
    SERVED_ENGINES,
    ParallelPortfolioChecker,
    PortfolioError,
)
from repro.sat.sweeping import SatSweepChecker
from repro.sweep.config import EngineConfig
from repro.sweep.engine import CecStatus, SimSweepEngine
from repro.sweep.report import PortfolioReport
from repro.synth.balance import balance
from repro.synth.resyn import compress2, resyn2

_GENERATORS: Dict[str, Callable[[int], Aig]] = {
    "adder": gen.adder,
    "bar": gen.barrel_shifter,
    "csel_adder": gen.carry_select_adder,
    "dec": gen.decoder,
    "div": gen.divider,
    "hyp": gen.hyp,
    "int2float": gen.int2float,
    "ks_adder": gen.kogge_stone_adder,
    "log2": gen.log2,
    "max": gen.max_circuit,
    "multiplier": gen.multiplier,
    "priority": gen.priority_encoder,
    "sin": gen.sin_cordic,
    "sqrt": gen.sqrt,
    "square": gen.square,
    "voter": gen.voter,
    "wallace": gen.wallace_multiplier,
}

_SCRIPTS: Dict[str, Callable[[Aig], Aig]] = {
    "resyn2": resyn2,
    "compress2": compress2,
    "balance": balance,
}


def _phase_printer(record) -> None:
    get_logger("cli").info(
        f"phase {record.kind}: {record.seconds:.2f}s, "
        f"{record.proved}/{record.candidates} proved, "
        f"miter -> {record.miter_ands_after} ANDs"
    )


def _make_checker(
    engine: str,
    time_limit: Optional[float],
    verbose: bool = False,
    cache_dir: Optional[str] = None,
    sched: str = "auto",
):
    on_phase = _phase_printer if verbose else None

    def knowledge_cache() -> Optional[SweepCache]:
        if cache_dir is None:
            return None
        return SweepCache(CacheConfig(directory=cache_dir))

    if engine == "combined":
        checker = CombinedChecker(
            sat_checker=SatSweepChecker(time_limit=time_limit),
            cache=knowledge_cache(),
            sched=sched,
        )
        checker.engine.on_phase = on_phase
        return checker
    if engine == "sim":
        return SimSweepEngine(
            EngineConfig(), on_phase=on_phase, cache=knowledge_cache()
        )
    if engine == "sat":
        return SatSweepChecker(time_limit=time_limit, cache=knowledge_cache())
    if engine == "bdd":
        return BddChecker(time_limit=time_limit)
    if engine == "cube":
        from repro.cubes.checker import CubeChecker

        return CubeChecker(time_limit=time_limit, cache=knowledge_cache())
    if engine == "portfolio":
        cache = knowledge_cache()
        return PortfolioChecker(
            sat_checker=SatSweepChecker(time_limit=time_limit, cache=cache),
            cache=cache,
        )
    if engine == "parallel":
        return ParallelPortfolioChecker(
            time_limit=time_limit, cache_dir=cache_dir
        )
    raise ValueError(f"unknown engine {engine!r}")


def cmd_cec(args: argparse.Namespace) -> int:
    log = get_logger("cli")
    aig_a = read_aiger(args.a)
    aig_b = read_aiger(args.b)
    checker = _make_checker(
        args.engine,
        args.time_limit,
        args.verbose,
        cache_dir=args.cache,
        sched=args.sched,
    )
    tracer: Optional[Tracer] = None
    if args.trace or args.metrics or args.prom:
        tracer = Tracer(process_name="cec")
        set_tracer(tracer)
    try:
        try:
            with get_tracer().span("cec", category="cli", engine=args.engine):
                result = checker.check_miter(build_miter(aig_a, aig_b))
        except PortfolioError as error:
            log.error(str(error))
            for line in error.report.summary_lines():
                log.info(line)
            return 3
        print(f"verdict: {result.status.value}")
        if result.status is CecStatus.NONEQUIVALENT and result.cex is not None:
            print("cex:", "".join(str(b) for b in result.cex))
        if result.status is CecStatus.UNDECIDED and result.reduced_miter:
            print(f"residue: {result.reduced_miter.num_ands} AND gates")
        report = result.report
        if isinstance(report, PortfolioReport):
            if args.verbose:
                for line in report.summary_lines():
                    log.info(line.strip())
        elif report.phases:
            print(
                f"time: {report.total_seconds:.2f}s, "
                f"reduction: {report.reduction_percent:.1f}%"
            )
        if args.cache is not None and getattr(report, "cache", None) is not None:
            print(f"cache: {report.cache.summary()}")
        if args.metrics and tracer is not None:
            print("metrics:")
            for line in tracer.metrics.summary_lines():
                print(line)
        return {
            CecStatus.EQUIVALENT: 0,
            CecStatus.NONEQUIVALENT: 1,
            CecStatus.UNDECIDED: 2,
        }[result.status]
    finally:
        if tracer is not None:
            if args.trace:
                tracer.write(args.trace)
                log.info(f"trace written to {args.trace}")
            if args.prom:
                from repro.obs import encode_prometheus

                with open(args.prom, "w", encoding="utf-8") as handle:
                    handle.write(encode_prometheus(tracer.metrics))
                log.info(f"prometheus metrics written to {args.prom}")
            set_tracer(None)


def cmd_stats(args: argparse.Namespace) -> int:
    aig = read_aiger(args.input)
    print(f"pis:    {aig.num_pis}")
    print(f"pos:    {aig.num_pos}")
    print(f"ands:   {aig.num_ands}")
    print(f"levels: {aig.depth()}")
    return 0


def cmd_opt(args: argparse.Namespace) -> int:
    aig = read_aiger(args.input)
    optimized = _SCRIPTS[args.script](aig)
    write_aiger(optimized, args.output)
    print(
        f"{args.script}: {aig.num_ands} -> {optimized.num_ands} ANDs, "
        f"depth {aig.depth()} -> {optimized.depth()}"
    )
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    factory = _GENERATORS[args.family]
    aig = factory(args.width)
    write_aiger(aig, args.output)
    print(f"{aig.name}: {aig.num_pis} PIs, {aig.num_pos} POs, {aig.num_ands} ANDs")
    return 0


def cmd_miter(args: argparse.Namespace) -> int:
    miter = build_miter(read_aiger(args.a), read_aiger(args.b))
    write_aiger(miter, args.output)
    print(f"miter: {miter.num_ands} ANDs, {miter.num_pos} POs")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve.server import CecServer

    log = get_logger("serve")
    server = CecServer(
        args.socket,
        workers=args.workers,
        cache_root=args.cache_root,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        tenant_quota=args.tenant_quota,
        job_deadline=args.job_deadline,
        trace=args.trace is not None,
        metrics_port=args.metrics_port,
        slo=args.slo,
        postmortem_dir=args.postmortem_dir,
    )

    async def run() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.stop)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        log.info(
            f"serving on {args.socket} with {args.workers} warm workers "
            f"(cache root: {args.cache_root or 'none'})"
        )
        if server.metrics_port is not None:
            log.info(
                "prometheus scrape endpoint on "
                f"http://127.0.0.1:{server.metrics_port}/metrics"
            )
        await server.serve_forever()

    asyncio.run(run())
    if args.trace is not None:
        server.write_trace(args.trace)
        log.info(f"trace written to {args.trace}")
    log.info("daemon stopped")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeError

    log = get_logger("submit")
    pairs = [(args.a, args.b)] + [tuple(extra) for extra in args.pair or []]
    miters = []
    names = []
    for path_a, path_b in pairs:
        miters.append(build_miter(read_aiger(path_a), read_aiger(path_b)))
        names.append(f"{path_a}:{path_b}")
    try:
        with ServeClient(
            args.socket, timeout=args.timeout, connect_retries=args.connect_retries
        ) as client:
            if args.stats_only:
                import json

                print(json.dumps(client.stats(), indent=2, sort_keys=True))
                return 0
            results = client.submit_batch(
                miters,
                tenant=args.tenant,
                engine=args.engine,
                deadline=args.job_deadline,
                names=names,
            )
            if args.do_shutdown:
                client.shutdown()
    except (ConnectionError, ServeError) as error:
        log.error(str(error))
        return 3
    worst = 0
    ranks = {"equivalent": 0, "nonequivalent": 1, "undecided": 2, "error": 3}
    for record in results:
        print(
            f"{record['name']}: {record['status']} "
            f"({record['seconds']:.3f}s engine, "
            f"{record['latency']:.3f}s latency, "
            f"{record['cache_hits']} cache hits)"
        )
        if record["status"] == "nonequivalent" and record.get("cex"):
            print("cex:", "".join(str(b) for b in record["cex"]))
        if record.get("error"):
            log.error(f"{record['name']}: {record['error']}")
        worst = max(worst, ranks.get(record["status"], 3))
    return worst


def cmd_top(args: argparse.Namespace) -> int:
    import time as time_module

    from repro.serve.client import ServeClient, ServeError
    from repro.serve.telemetry import format_top

    log = get_logger("top")
    iterations = 1 if args.once else args.iterations
    count = 0
    try:
        with ServeClient(
            args.socket,
            timeout=args.timeout,
            connect_retries=args.connect_retries,
        ) as client:
            while iterations is None or count < iterations:
                frame = format_top(client.stats())
                if not args.raw:
                    # ANSI clear + home — a plain repaint loop, no curses.
                    sys.stdout.write("\x1b[2J\x1b[H")
                sys.stdout.write(frame)
                sys.stdout.flush()
                count += 1
                if iterations is not None and count >= iterations:
                    break
                time_module.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except (ConnectionError, ServeError) as error:
        log.error(str(error))
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="simulation-based parallel sweeping CEC"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cec = sub.add_parser("cec", help="check two AIGER files for equivalence")
    cec.add_argument("a")
    cec.add_argument("b")
    cec.add_argument(
        "--engine",
        default="combined",
        choices=[
            "combined", "sim", "sat", "bdd", "cube", "portfolio", "parallel",
        ],
    )
    cec.add_argument("--time-limit", type=float, default=None)
    cec.add_argument(
        "--sched", default="auto", choices=["auto", "fixed"],
        help="combined-engine residue scheduling: 'auto' dispatches each "
        "candidate pair to the predicted-cheapest engine lane "
        "(sim/cuts/BDD/batched SAT); 'fixed' is the kill switch for the "
        "original P-G-L-SAT pipeline",
    )
    cec.add_argument(
        "--cache", metavar="DIR", default=None,
        help="functional-knowledge cache directory (warm-starts reruns)",
    )
    cec.add_argument(
        "--verbose", action="store_true",
        help="log engine phases as they complete (stderr)",
    )
    cec.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a Chrome trace_event timeline of the run to FILE "
        "(open in chrome://tracing or ui.perfetto.dev); covers all "
        "worker processes of a parallel run",
    )
    cec.add_argument(
        "--metrics", action="store_true",
        help="print counters and histograms of the run to stdout",
    )
    cec.add_argument(
        "--prom", metavar="FILE", default=None,
        help="write the run's counters and histograms as Prometheus "
        "text exposition to FILE (for textfile collectors / CI "
        "artifacts)",
    )
    cec.add_argument(
        "--log-level", default=None, choices=list(LEVELS),
        help="stderr diagnostic verbosity (default: info with "
        "--verbose, warning otherwise)",
    )
    cec.add_argument(
        "--log-json", action="store_true",
        help="emit stderr diagnostics as one JSON object per line",
    )
    cec.set_defaults(func=cmd_cec)

    stats = sub.add_parser("stats", help="print network statistics")
    stats.add_argument("input")
    stats.set_defaults(func=cmd_stats)

    opt = sub.add_parser("opt", help="optimise a network")
    opt.add_argument("input")
    opt.add_argument("output")
    opt.add_argument("--script", default="resyn2", choices=sorted(_SCRIPTS))
    opt.set_defaults(func=cmd_opt)

    genp = sub.add_parser("gen", help="generate a benchmark circuit")
    genp.add_argument("family", choices=sorted(_GENERATORS))
    genp.add_argument("width", type=int)
    genp.add_argument("output")
    genp.set_defaults(func=cmd_gen)

    miter = sub.add_parser("miter", help="build a miter of two networks")
    miter.add_argument("a")
    miter.add_argument("b")
    miter.add_argument("output")
    miter.set_defaults(func=cmd_miter)

    serve = sub.add_parser(
        "serve", help="run the CEC-as-a-service daemon (warm worker pool)"
    )
    serve.add_argument(
        "--socket", required=True, metavar="PATH",
        help="Unix socket to listen on",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="persistent worker processes (default: 2)",
    )
    serve.add_argument(
        "--cache-root", metavar="DIR", default=None,
        help="root directory for per-tenant knowledge caches "
        "(omit to run workers with no knowledge cache at all)",
    )
    serve.add_argument("--max-pending", type=int, default=64)
    serve.add_argument("--max-batch", type=int, default=16)
    serve.add_argument(
        "--tenant-quota", type=int, default=None, metavar="N",
        help="cap one tenant's in-flight jobs at N; excess submissions "
        "are rejected with a structured 'quota' error while other "
        "tenants keep flowing (default: no per-tenant cap)",
    )
    serve.add_argument(
        "--job-deadline", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock deadline; over-deadline workers are "
        "killed and respawned warm",
    )
    serve.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a merged daemon+worker Chrome trace on shutdown",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus text on http://127.0.0.1:PORT/metrics "
        "(0 binds an ephemeral port; omit to disable HTTP — the socket "
        "'metrics' op is always available)",
    )
    serve.add_argument(
        "--slo", action="append", default=None, metavar="SPEC",
        help="per-tenant latency objective, e.g. 'p99=5s' or "
        "'p95=500ms' (repeatable); enables SLO burn-rate accounting "
        "in stats, the scrape output, and 'top'",
    )
    serve.add_argument(
        "--postmortem-dir", metavar="DIR", default=None,
        help="dump a flight-recorder postmortem JSON here whenever a "
        "worker is killed for a crash or deadline",
    )
    serve.add_argument("--log-level", default=None, choices=list(LEVELS))
    serve.add_argument(
        "--log-json", action="store_true",
        help="emit stderr diagnostics as one JSON object per line",
    )
    serve.set_defaults(func=cmd_serve, verbose=True)

    submit = sub.add_parser(
        "submit", help="check AIG pairs against a running serve daemon"
    )
    submit.add_argument("a")
    submit.add_argument("b")
    submit.add_argument(
        "--pair", nargs=2, action="append", metavar=("A", "B"),
        help="additional pair for the same batch (repeatable)",
    )
    submit.add_argument("--socket", required=True, metavar="PATH")
    submit.add_argument("--tenant", default="default")
    submit.add_argument(
        "--engine", default="combined", choices=SERVED_ENGINES,
    )
    submit.add_argument("--job-deadline", type=float, default=None)
    submit.add_argument(
        "--timeout", type=float, default=300.0,
        help="socket timeout per response (default: 300s)",
    )
    submit.add_argument(
        "--connect-retries", type=int, default=25,
        help="connection attempts while the daemon starts up",
    )
    submit.add_argument(
        "--stats-only", action="store_true",
        help="print the daemon's stats snapshot as JSON and exit",
    )
    submit.add_argument(
        "--shutdown", dest="do_shutdown", action="store_true",
        help="ask the daemon to drain and exit after this batch",
    )
    submit.add_argument("--log-level", default=None, choices=list(LEVELS))
    submit.add_argument(
        "--log-json", action="store_true",
        help="emit stderr diagnostics as one JSON object per line",
    )
    submit.set_defaults(func=cmd_submit)

    top = sub.add_parser(
        "top", help="live terminal view of a running serve daemon"
    )
    top.add_argument("--socket", required=True, metavar="PATH")
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until interrupted)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (implies --raw-friendly use)",
    )
    top.add_argument(
        "--raw", action="store_true",
        help="no ANSI screen clearing — frames append (for pipes/logs)",
    )
    top.add_argument(
        "--timeout", type=float, default=10.0,
        help="socket timeout per stats poll (default: 10s)",
    )
    top.add_argument(
        "--connect-retries", type=int, default=5,
        help="connection attempts while the daemon starts up",
    )
    top.add_argument("--log-level", default=None, choices=list(LEVELS))
    top.add_argument(
        "--log-json", action="store_true",
        help="emit stderr diagnostics as one JSON object per line",
    )
    top.set_defaults(func=cmd_top)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = getattr(args, "log_level", None)
    if level is None:
        level = "info" if getattr(args, "verbose", False) else "warning"
    configure_logging(level, json_format=getattr(args, "log_json", False))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
