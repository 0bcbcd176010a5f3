"""Tests for the observability layer (``repro.obs``).

Covers span recording and nesting, cross-process re-basing, the
disabled-mode no-op guarantees, the metrics registry round-trip, the
structured logger, and an end-to-end traced parallel portfolio run
validated by ``tools/check_trace.py``.
"""

import importlib.util
import json
import os
import time

import pytest

from repro.aig.miter import build_miter
from repro.bench import generators as gen
from repro.obs import (
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    Tracer,
    get_logger,
    get_tracer,
    set_tracer,
    use_tracer,
)
from repro.obs.logging import (
    JsonFormatter,
    KeyValueFormatter,
    configure_logging,
)
from repro.synth.resyn import compress2


def _load_check_trace():
    path = os.path.join(
        os.path.dirname(__file__), os.pardir, "tools", "check_trace.py"
    )
    spec = importlib.util.spec_from_file_location("check_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _restore_ambient_tracer():
    yield
    set_tracer(None)


# ----------------------------------------------------------------------
# Tracer basics
# ----------------------------------------------------------------------


def test_span_recording_and_attrs():
    tracer = Tracer(process_name="test")
    with tracer.span("outer", category="phase", round=1) as span:
        span.set("extra", 7)
        with tracer.span("inner", category="sim"):
            pass
    spans = tracer.spans()
    assert [s[0] for s in spans] == ["inner", "outer"]  # exit order
    outer = spans[1]
    assert outer[1] == "phase"
    assert outer[4] == {"round": 1, "extra": 7}
    assert outer[3] >= 0  # duration_ns


def test_span_nesting_by_time_containment():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans()
    assert outer[2] <= inner[2]
    assert inner[2] + inner[3] <= outer[2] + outer[3]


def test_span_durations_feed_metrics_histograms():
    tracer = Tracer()
    with tracer.span("work"):
        pass
    hist = tracer.metrics.histograms["span.work.seconds"]
    assert hist.count == 1


def test_instant_events_exported():
    tracer = Tracer()
    tracer.instant("marker", category="engine", detail=3)
    doc = tracer.to_chrome_trace()
    markers = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert len(markers) == 1
    assert markers[0]["name"] == "marker"
    assert markers[0]["args"] == {"detail": 3}


def test_chrome_trace_structure():
    tracer = Tracer(process_name="myproc")
    with tracer.span("s", category="engine", k=1):
        pass
    doc = tracer.to_chrome_trace()
    assert doc["displayTimeUnit"] == "ms"
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert meta[0]["args"]["name"] == "myproc"
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert xs[0]["name"] == "s"
    assert xs[0]["cat"] == "engine"
    assert xs[0]["ts"] >= 0 and xs[0]["dur"] >= 0
    assert xs[0]["pid"] == tracer.pid
    assert xs[0]["args"] == {"k": 1}


def test_tracer_write_is_valid_json(tmp_path):
    tracer = Tracer()
    with tracer.span("s"):
        pass
    path = tracer.write(str(tmp_path / "trace.json"))
    payload = json.loads(open(path).read())
    assert payload["traceEvents"]
    assert not os.path.exists(path + ".tmp")


# ----------------------------------------------------------------------
# Cross-process re-basing
# ----------------------------------------------------------------------


def test_merge_child_rebases_by_epoch_offset():
    parent = Tracer(process_name="parent")
    child = Tracer(process_name="child")
    # Synthesise a child whose wall clock anchor is 5 ms after the
    # parent's, with one span starting 1 ms into the child's timeline.
    child.epoch_origin_ns = parent.epoch_origin_ns + 5_000_000
    child._spans = [("w", "engine", 1_000_000, 2_000_000, None)]
    child.pid = parent.pid + 1
    merged = parent.merge_child(child.export_payload())
    assert merged == 1
    doc = parent.to_chrome_trace()
    event = [e for e in doc["traceEvents"] if e["name"] == "w"][0]
    assert event["ts"] == pytest.approx(6_000.0)  # 6 ms in microseconds
    assert event["dur"] == pytest.approx(2_000.0)
    assert event["pid"] == child.pid


def test_merge_child_clamps_negative_timestamps():
    parent = Tracer()
    payload = {
        "pid": 99999,
        "process_name": "worker:x",
        "epoch_origin_ns": parent.epoch_origin_ns - 10_000_000,
        "spans": [("early", "engine", 1_000_000, 500, None)],
        "instants": [],
        "metrics": {},
    }
    parent.merge_child(payload)
    doc = parent.to_chrome_trace()
    event = [e for e in doc["traceEvents"] if e["name"] == "early"][0]
    assert event["ts"] == 0.0


def test_merge_child_merges_metrics_and_process_names():
    parent = Tracer()
    child = Tracer(process_name="worker:sat")
    child.pid = parent.pid + 1
    child.metrics.counter_add("sat.pair_calls", 3)
    child.metrics.observe("sat.pair_seconds", 0.25)
    parent.metrics.counter_add("sat.pair_calls", 2)
    parent.merge_child(child.export_payload())
    assert parent.metrics.counters["sat.pair_calls"] == 5
    assert parent.metrics.histograms["sat.pair_seconds"].count == 1
    doc = parent.to_chrome_trace()
    names = {
        e["pid"]: e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M"
    }
    assert names[child.pid] == "worker:sat"


def test_summary_covers_merged_spans():
    parent = Tracer()
    with parent.span("own", category="engine"):
        pass
    child = Tracer(process_name="worker:c")
    child.pid = parent.pid + 1
    with child.span("theirs", category="sat"):
        pass
    parent.merge_child(child.export_payload())
    summary = parent.summary()
    assert summary["spans"] == 2
    assert summary["processes"] == 2
    assert set(summary["seconds_by_name"]) == {"own", "theirs"}
    assert set(summary["seconds_by_category"]) == {"engine", "sat"}


# ----------------------------------------------------------------------
# Disabled mode
# ----------------------------------------------------------------------


def test_ambient_tracer_defaults_to_null():
    assert get_tracer() is NULL_TRACER
    assert not get_tracer().enabled


def test_use_tracer_restores_previous():
    tracer = Tracer()
    with use_tracer(tracer):
        assert get_tracer() is tracer
        with use_tracer(None):
            assert get_tracer() is NULL_TRACER
        assert get_tracer() is tracer
    assert get_tracer() is NULL_TRACER


def test_null_tracer_records_nothing_and_shares_one_span():
    null = NULL_TRACER
    a = null.span("x", category="y", attr=1)
    b = null.span("z")
    assert a is b  # one cached no-op span, no per-call allocation
    with a as span:
        span.set("k", "v")
    null.instant("i")
    null.metrics.counter_add("c")
    null.metrics.observe("h", 1.0)
    assert null.metrics.as_dict() == {"counters": {}, "histograms": {}}


def test_null_tracer_microloop_overhead():
    """10⁵ disabled span entries must be cheap (no-op guarantee)."""
    null = NULL_TRACER
    start = time.perf_counter()
    for _ in range(100_000):
        with null.span("hot", category="sim"):
            pass
    elapsed = time.perf_counter() - start
    # Generous bound: ~1 µs/iteration budget even on loaded CI machines.
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


def test_counter_accumulates():
    reg = MetricsRegistry()
    reg.counter_add("a")
    reg.counter_add("a", 4)
    assert reg.counters["a"] == 5


def test_histogram_summary_statistics():
    hist = Histogram()
    for v in (0.5, 1.5, 4.0, 0.0):
        hist.observe(v)
    assert hist.count == 4
    assert hist.total == pytest.approx(6.0)
    assert hist.vmin == 0.0
    assert hist.vmax == 4.0
    assert hist.mean() == pytest.approx(1.5)
    assert sum(hist.buckets.values()) == 4


def test_histogram_quantile_bounds_and_order():
    hist = Histogram()
    assert hist.quantile(0.5) == 0.0  # empty histogram
    for v in (0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8):
        hist.observe(v)
    assert hist.quantile(0.0) == pytest.approx(0.1)
    assert hist.quantile(1.0) == pytest.approx(12.8, rel=0.5)
    p50 = hist.quantile(0.5)
    p90 = hist.quantile(0.9)
    assert hist.vmin <= p50 <= p90 <= hist.vmax
    # Each estimate must land within a factor of two of the exact value
    # (the bucket width bounds the error).
    assert 0.4 / 2 <= p50 <= 0.8 * 2
    assert 6.4 / 2 <= p90 <= 12.8 * 2
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_quantile_single_value_is_exact():
    hist = Histogram()
    for _ in range(10):
        hist.observe(3.0)
    # min/max clamping collapses the bucket estimate onto the true value.
    assert hist.quantile(0.5) == pytest.approx(3.0)
    assert hist.mean() == pytest.approx(3.0)


def test_histogram_quantile_zero_sentinel_bucket():
    hist = Histogram()
    for _ in range(8):
        hist.observe(0.0)
    hist.observe(4.0)
    assert hist.quantile(0.5) == 0.0
    assert hist.quantile(1.0) == 4.0


def test_histogram_quantile_and_mean_after_merge():
    a = Histogram()
    b = Histogram()
    values_a = [0.25, 0.5, 1.0, 2.0]
    values_b = [4.0, 8.0, 16.0, 32.0]
    for v in values_a:
        a.observe(v)
    for v in values_b:
        b.observe(v)
    a.merge_dict(b.as_dict())
    everything = sorted(values_a + values_b)
    assert a.count == len(everything)
    assert a.mean() == pytest.approx(sum(everything) / len(everything))
    # The merged quantiles must match a histogram built from the union
    # stream exactly — bucket counts and min/max merge losslessly.
    union = Histogram()
    for v in everything:
        union.observe(v)
    for q in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert a.quantile(q) == pytest.approx(union.quantile(q))
    assert a.vmin == 0.25 and a.vmax == 32.0


def test_registry_round_trip_and_merge():
    a = MetricsRegistry()
    a.counter_add("c", 2)
    a.observe("h", 0.5)
    a.observe("h", 8.0)
    b = MetricsRegistry()
    b.counter_add("c", 3)
    b.observe("h", 1.0)
    b.merge_dict(a.as_dict())
    assert b.counters["c"] == 5
    merged = b.histograms["h"]
    assert merged.count == 3
    assert merged.total == pytest.approx(9.5)
    assert merged.vmin == 0.5
    assert merged.vmax == 8.0
    # Serialisation is JSON-safe (string bucket keys).
    json.dumps(b.as_dict())


def test_registry_summary_lines():
    reg = MetricsRegistry()
    reg.counter_add("z.counter", 7)
    reg.observe("a.hist", 2.0)
    lines = reg.summary_lines()
    assert any("counter z.counter: 7" in line for line in lines)
    assert any("histogram a.hist" in line for line in lines)


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------


def test_configure_logging_writes_key_value_to_stderr(capsys):
    configure_logging("info")
    get_logger("test").info("hello world")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert 'msg="hello world"' in captured.err
    assert "level=info" in captured.err
    assert "logger=repro.test" in captured.err


def test_configure_logging_level_filters(capsys):
    configure_logging("error")
    get_logger("test").info("quiet")
    get_logger("test").error("loud")
    captured = capsys.readouterr()
    assert "quiet" not in captured.err
    assert "loud" in captured.err


def test_configure_logging_rejects_unknown_level():
    with pytest.raises(ValueError):
        configure_logging("chatty")


def test_configure_logging_is_idempotent(capsys):
    configure_logging("info")
    configure_logging("info")
    get_logger("test").info("once")
    captured = capsys.readouterr()
    assert captured.err.count("once") == 1


def test_formatter_appends_kv_pairs():
    import logging

    record = logging.LogRecord(
        "repro.x", logging.INFO, __file__, 1, "m", (), None
    )
    record.kv = {"engine": "sat"}
    line = KeyValueFormatter().format(record)
    assert "engine=sat" in line
    assert line.endswith('msg="m"')


def test_configure_logging_json_mode_emits_one_object_per_line(capsys):
    configure_logging("info", json_format=True)
    get_logger("test").info(
        "warm hit", extra={"kv": {"engine": "sim", "hits": 3}}
    )
    get_logger("test").warning("slow")
    captured = capsys.readouterr()
    lines = [l for l in captured.err.splitlines() if l]
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["level"] == "info"
    assert first["logger"] == "repro.test"
    assert first["msg"] == "warm hit"
    assert first["engine"] == "sim"
    assert first["hits"] == 3
    assert isinstance(first["ts"], float)
    assert json.loads(lines[1])["level"] == "warning"
    # Reconfiguring back to key=value replaces the handler in place.
    configure_logging("info")
    get_logger("test").info("plain")
    assert 'msg="plain"' in capsys.readouterr().err


def test_json_formatter_protects_reserved_keys_and_exceptions():
    import logging

    record = logging.LogRecord(
        "repro.x", logging.ERROR, __file__, 1, "boom", (), None
    )
    record.kv = {"msg": "spoofed", "worker": 2, "obj": object()}
    try:
        raise RuntimeError("die")
    except RuntimeError:
        import sys as _sys

        record.exc_info = _sys.exc_info()
    payload = json.loads(JsonFormatter().format(record))
    assert payload["msg"] == "boom"  # kv cannot shadow the record's msg
    assert payload["worker"] == 2
    assert payload["exc"] == "RuntimeError"
    assert isinstance(payload["obj"], str)  # default=str keeps it JSON


# ----------------------------------------------------------------------
# End-to-end: traced parallel portfolio
# ----------------------------------------------------------------------


def test_parallel_portfolio_trace_merges_worker_timelines(
    tmp_path, monkeypatch
):
    from repro.portfolio.checker import CombinedChecker
    from repro.portfolio.faults import SleepingChecker
    from repro.portfolio.parallel import ParallelPortfolioChecker

    # multiplier(4) settles in milliseconds, so the winner must wait for
    # the sleeper to start sleeping (inside its engine span) before it
    # answers; otherwise the sleeper may be cancelled mid-set-up.  The
    # patches reach the workers because they are forked from this
    # process.
    ready = tmp_path / "sleeper.started"
    sleep_check = SleepingChecker.check_miter
    combined_check = CombinedChecker.check_miter

    def sleeper_started(self, miter):
        ready.touch()
        return sleep_check(self, miter)

    def after_sleeper(self, miter, state=None):
        deadline = time.monotonic() + 30.0
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        return combined_check(self, miter, state)

    monkeypatch.setattr(SleepingChecker, "check_miter", sleeper_started)
    monkeypatch.setattr(CombinedChecker, "check_miter", after_sleeper)
    original = gen.multiplier(4)
    miter = build_miter(original, compress2(original))
    tracer = Tracer(process_name="cec")
    with use_tracer(tracer):
        checker = ParallelPortfolioChecker(
            engines=[("combined", {}), ("sleep", {"seconds": 60.0})],
            start_method="fork",
        )
        result = checker.check_miter(miter)
    assert result.status.value == "equivalent"
    assert ready.exists()

    doc = tracer.to_chrome_trace()
    events = doc["traceEvents"]
    procs = {
        e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"
    }
    worker_pids = {
        e["pid"]
        for e in events
        if e["ph"] == "X" and procs.get(e["pid"], "").startswith("worker")
    }
    # Both workers contributed spans — including the cancelled sleeper,
    # whose SIGTERM handler shipped its partial trace.
    assert len(worker_pids) >= 2
    names = {e["name"] for e in events}
    assert "engine:sleep" in names
    assert "portfolio.run" in names
    assert "portfolio.terminate" in names
    assert "phase.P" in names
    assert any(n.startswith("engine:") for n in names)
    # Worker metrics merged into the parent registry.
    assert result.report.metrics["counters"]

    # The written file validates against the CI schema checker.
    path = tracer.write(str(tmp_path / "portfolio_trace.json"))
    check_trace = _load_check_trace()
    errors = check_trace.validate_trace(
        json.load(open(path)),
        require_phases=("phase.P",),
        require_workers=2,
    )
    assert errors == []


def test_check_trace_rejects_malformed_payloads():
    check_trace = _load_check_trace()
    assert check_trace.validate_trace([]) != []
    assert check_trace.validate_trace({"traceEvents": []}) != []
    bad_event = {"traceEvents": [{"name": "x", "ph": "Q", "pid": 1, "tid": 0}]}
    assert check_trace.validate_trace(bad_event) != []
    missing_dur = {
        "traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "tid": 0, "ts": 1.0,
             "cat": "c"}
        ]
    }
    assert check_trace.validate_trace(missing_dur) != []
    ok = {
        "traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "tid": 0, "ts": 1.0,
             "dur": 2.0, "cat": "c"}
        ]
    }
    assert check_trace.validate_trace(ok) == []
    assert check_trace.validate_trace(ok, require_phases=("y",)) != []
    assert check_trace.validate_trace(ok, require_workers=1) != []


def test_check_trace_require_rebuild(tmp_path):
    check_trace = _load_check_trace()
    no_rebuild = {
        "traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "tid": 0, "ts": 1.0,
             "dur": 2.0, "cat": "c"}
        ]
    }
    assert check_trace.validate_trace(no_rebuild) == []
    assert check_trace.validate_trace(no_rebuild, require_rebuild=True) != []
    # A rebuild span without its bookkeeping args must be rejected too.
    bare = {
        "traceEvents": [
            {"name": "rebuild", "ph": "X", "pid": 1, "tid": 0, "ts": 1.0,
             "dur": 2.0, "cat": "state"}
        ]
    }
    assert check_trace.validate_trace(bare, require_rebuild=True) != []

    # A real traced engine run on a reducible miter validates.  Small
    # PO budgets keep the P phase from one-shotting the miter, so the
    # global phase provably merges pairs and carries signatures.
    from repro.sweep.config import EngineConfig
    from repro.sweep.engine import SimSweepEngine

    a = gen.multiplier(4)
    b = compress2(a)
    tracer = Tracer()
    with use_tracer(tracer):
        result = SimSweepEngine(EngineConfig(k_P=4, k_p=4)).check(a, b)
    assert result.is_equivalent
    path = tracer.write(str(tmp_path / "rebuild_trace.json"))
    errors = check_trace.validate_trace(
        json.load(open(path)), require_rebuild=True
    )
    assert errors == []
    counters = tracer.metrics.counters
    assert counters.get("state.carried_words", 0) > counters.get(
        "state.recomputed_words", 0
    )


def test_check_trace_require_sched(tmp_path):
    check_trace = _load_check_trace()

    def counter(name, value):
        return {"name": name, "ph": "C", "pid": 1, "tid": 0, "ts": 1.0,
                "args": {"value": value}}

    span = {"name": "x", "ph": "X", "pid": 1, "tid": 0, "ts": 1.0,
            "dur": 2.0, "cat": "c"}
    # No sched counters at all: rejected.
    assert check_trace.validate_trace(
        {"traceEvents": [span]}, require_sched=True
    ) != []
    # All lanes present but SAT queries were not batched: rejected.
    unbatched = {
        "traceEvents": [span]
        + [counter(f"sched.dispatch.{lane}", 1)
           for lane in ("sim", "cut", "bdd", "sat")]
        + [counter("sched.mispredict", 0),
           counter("sat.batch.pairs", 3), counter("sat.batch.solves", 3)]
    }
    assert check_trace.validate_trace(unbatched, require_sched=True) != []
    batched = {
        "traceEvents": [span]
        + [counter(f"sched.dispatch.{lane}", 1)
           for lane in ("sim", "cut", "bdd", "sat")]
        + [counter("sched.mispredict", 2),
           counter("sat.batch.pairs", 9), counter("sat.batch.solves", 2)]
    }
    assert check_trace.validate_trace(batched, require_sched=True) == []

    # A real traced adaptive run validates end to end.  On the frozen
    # adder11 benchmark pair (read only) the cut and BDD lanes leave
    # pairs to the batched SAT lane, which serves many pairs per
    # solver; small multipliers are proved by the sim lane alone.
    from pathlib import Path

    from repro import read_aiger
    from repro.sched import AdaptiveSweeper

    inputs = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
    a = read_aiger(inputs / "adder11.aag")
    b = read_aiger(inputs / "adder11_compress2.aag")
    tracer = Tracer()
    with use_tracer(tracer):
        result = AdaptiveSweeper().check(a, b)
    assert result.is_equivalent
    path = tracer.write(str(tmp_path / "sched_trace.json"))
    errors = check_trace.validate_trace(
        json.load(open(path)), require_sched=True
    )
    assert errors == []
