"""Tests for the live telemetry plane.

Covers the Prometheus text-exposition encoder, the flight recorder and
its logging handler, the /proc resource sampler, per-tenant SLO
accounting with burn-rate windows, the HTTP scrape endpoint, the
``cec top`` renderer, and the ``tools/check_bench.py`` regression gate.
"""

import copy
import importlib.util
import json
import logging
import os
import urllib.request

import pytest

from repro.obs import (
    FlightRecorder,
    FlightRecorderHandler,
    MetricsRegistry,
    ResourceSampler,
    encode_prometheus,
    get_logger,
    read_cpu_seconds,
    read_rss_bytes,
)
from repro.obs.telemetry import proc_available, prometheus_name
from repro.serve import (
    MetricsHttpServer,
    SloObjective,
    SloRegistry,
    format_top,
    parse_slo_spec,
)


def _load_check_bench():
    path = os.path.join(
        os.path.dirname(__file__), os.pardir, "tools", "check_bench.py"
    )
    spec = importlib.util.spec_from_file_location("check_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------


def test_prometheus_name_sanitizes_dotted_names():
    assert prometheus_name("serve.jobs_submitted") == (
        "repro_serve_jobs_submitted"
    )
    assert prometheus_name("a-b c/d", prefix="x") == "x_a_b_c_d"
    assert prometheus_name("plain", prefix="") == "plain"


def test_encode_counters_with_type_and_total_suffix():
    reg = MetricsRegistry()
    reg.counter_add("serve.jobs_submitted", 3)
    text = encode_prometheus(reg)
    assert "# TYPE repro_serve_jobs_submitted_total counter" in text
    assert "repro_serve_jobs_submitted_total 3" in text
    assert text.endswith("\n")


def test_encode_histogram_cumulative_le_buckets():
    reg = MetricsRegistry()
    for value in (0.4, 0.9, 1.5, 3.0):
        reg.observe("job.latency_seconds", value)
    text = encode_prometheus(reg)
    lines = text.splitlines()
    assert "# TYPE repro_job_latency_seconds histogram" in lines
    metric = "repro_job_latency_seconds"
    # 0.4 and 0.9 share the 2^0 bucket; 1.5 lands in 2^1; 3.0 in 2^2.
    assert f'{metric}_bucket{{le="1"}} 2' in lines
    assert f'{metric}_bucket{{le="2"}} 3' in lines
    assert f'{metric}_bucket{{le="4"}} 4' in lines
    assert f'{metric}_bucket{{le="+Inf"}} 4' in lines
    assert f"{metric}_count 4" in lines
    sum_line = next(l for l in lines if l.startswith(f"{metric}_sum "))
    assert float(sum_line.split()[1]) == pytest.approx(5.8)
    # Cumulative counts never decrease along the bucket sequence.
    cumulative = [
        int(l.rsplit(" ", 1)[1])
        for l in lines
        if l.startswith(f"{metric}_bucket")
    ]
    assert cumulative == sorted(cumulative)


def test_encode_accepts_serialized_registry_snapshot():
    reg = MetricsRegistry()
    reg.counter_add("c", 2)
    reg.observe("h", 1.0)
    assert encode_prometheus(reg.as_dict()) == encode_prometheus(reg)
    with pytest.raises(TypeError):
        encode_prometheus(42)


def test_encode_gauges_with_sorted_escaped_labels():
    text = encode_prometheus(
        MetricsRegistry(),
        gauges=[
            ("slo.burn_rate", {"tenant": "b", "a": 'x"y\n'}, 1.5),
            ("slo.burn_rate", {"tenant": "a"}, float("inf")),
            ("uptime", {}, 12.0),
        ],
    )
    lines = text.splitlines()
    assert "# TYPE repro_slo_burn_rate gauge" in lines
    # One TYPE header per family even with many samples.
    assert lines.count("# TYPE repro_slo_burn_rate gauge") == 1
    assert 'repro_slo_burn_rate{a="x\\"y\\n",tenant="b"} 1.5' in lines
    assert 'repro_slo_burn_rate{tenant="a"} +Inf' in lines
    assert "repro_uptime 12" in lines


def test_encode_empty_registry_is_valid_and_stable():
    assert encode_prometheus(MetricsRegistry()) == "\n"


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


def test_flight_recorder_bounded_ring_and_seq():
    ring = FlightRecorder(capacity=4)
    for i in range(10):
        ring.record("job", "done", index=i)
    events = ring.events()
    assert len(ring) == 4
    assert [e["index"] for e in events] == [6, 7, 8, 9]
    assert [e["seq"] for e in events] == [7, 8, 9, 10]
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_flight_recorder_take_new_ships_each_event_once():
    ring = FlightRecorder(capacity=8)
    ring.record("job", "start")
    ring.record("job", "done")
    first = ring.take_new()
    assert [e["name"] for e in first] == ["start", "done"]
    assert ring.take_new() == []
    ring.record("job", "error")
    assert [e["name"] for e in ring.take_new()] == ["error"]


def test_flight_recorder_extend_preserves_worker_seq_and_ts():
    worker = FlightRecorder(capacity=8)
    worker.record("job", "start", miter="m1")
    shipped = worker.take_new()
    parent = FlightRecorder(capacity=8)
    parent.record("job", "submitted")
    assert parent.extend(shipped) == 1
    parent.record("kill", "deadline")
    events = parent.events()
    assert [e["name"] for e in events] == ["submitted", "start", "deadline"]
    folded = events[1]
    assert folded["worker_seq"] == shipped[0]["seq"]
    assert folded["ts"] == shipped[0]["ts"]  # worker's clock, not fold time
    assert folded["seq"] == 2  # parent ring keeps its own total order
    # record() drops None fields; extend skips non-dict junk.
    assert "cex" not in parent.record("job", "done", cex=None)
    assert parent.extend(["junk", None]) == 0


def test_flight_recorder_to_json_drops_unserializable_fields():
    ring = FlightRecorder(capacity=4)
    ring.record("job", "weird", payload=object(), ok=1)
    safe = ring.to_json()
    json.dumps(safe)
    assert safe[0]["ok"] == 1
    assert "payload" not in safe[0]


def test_flight_recorder_handler_captures_log_records():
    ring = FlightRecorder(capacity=8)
    handler = FlightRecorderHandler(ring)
    logger = get_logger("telemetry-test")
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        logger.warning(
            "worker stuck", extra={"kv": {"engine": "sat", "level": "bogus"}}
        )
    finally:
        logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
    (event,) = ring.events()
    assert event["kind"] == "log"
    assert event["name"] == "repro.telemetry-test"
    assert event["level"] == "warning"  # record's own level wins over kv
    assert event["msg"] == "worker stuck"
    assert event["engine"] == "sat"


# ----------------------------------------------------------------------
# Resource sampling
# ----------------------------------------------------------------------


@pytest.mark.skipif(not proc_available(), reason="needs /proc")
def test_proc_readers_report_this_process():
    rss = read_rss_bytes()
    assert rss is not None and rss > 1024 * 1024
    cpu = read_cpu_seconds()
    assert cpu is not None and cpu >= 0.0
    assert read_rss_bytes(2**30) is None  # no such pid


@pytest.mark.skipif(not proc_available(), reason="needs /proc")
def test_resource_sampler_feeds_histograms_and_last_rss():
    reg = MetricsRegistry()
    sampler = ResourceSampler(
        lambda: [os.getpid(), None, 2**30], reg, prefix="t", interval=0.05
    )
    assert sampler.sample_once() == 1
    assert sampler.sample_once() == 1  # second tick yields a CPU delta
    assert reg.histograms["t.rss_bytes"].count == 2
    assert reg.counter_value("t.samples") == 2
    assert sampler.last_rss[os.getpid()] > 0
    with pytest.raises(ValueError):
        ResourceSampler(lambda: [], reg, interval=0.0)


# ----------------------------------------------------------------------
# SLO accounting
# ----------------------------------------------------------------------


def test_parse_slo_spec_units_and_validation():
    p99 = parse_slo_spec("p99=5s")
    assert p99.quantile == pytest.approx(0.99)
    assert p99.target_seconds == pytest.approx(5.0)
    assert p99.name == "p99"
    assert p99.spec() == "p99=5s"
    assert parse_slo_spec("p95=500ms").target_seconds == pytest.approx(0.5)
    assert parse_slo_spec("p50 = 2m").target_seconds == pytest.approx(120.0)
    assert parse_slo_spec("p90=3").target_seconds == pytest.approx(3.0)
    assert parse_slo_spec("p99.9=1s").quantile == pytest.approx(0.999)
    for bad in ("p0=1s", "99=5s", "p99=", "p99=5h", "p100=1s"):
        with pytest.raises(ValueError):
            parse_slo_spec(bad)
    with pytest.raises(ValueError):
        SloObjective(1.5, 1.0)
    with pytest.raises(ValueError):
        SloObjective(0.99, 0.0)


def test_slo_registry_budgets_and_burn_rates():
    clock = {"now": 1000.0}
    slo = SloRegistry(
        [parse_slo_spec("p90=1s")],
        windows=(60.0, 600.0),
        clock=lambda: clock["now"],
    )
    assert slo.enabled
    # 8 good + 2 bad out of 10: bad fraction 0.2, budget fraction 0.1.
    for _ in range(8):
        slo.record_job("acme", 0.5)
    slo.record_job("acme", 3.0)
    slo.record_deadline_miss("acme")
    slo.record_respawn()
    snap = slo.snapshot()
    assert snap["objectives"] == ["p90=1s"]
    assert snap["respawns"] == 1
    state = snap["tenants"]["acme"]
    assert state["jobs"] == 10
    assert state["failures"] == 1
    assert state["deadline_misses"] == 1
    objective = state["objectives"]["p90"]
    assert objective["bad_events"] == 2
    # Budget: 10% of 10 jobs = 1 tolerated bad event; 2 seen → -1 left.
    assert objective["budget_remaining"] == pytest.approx(-1.0)
    assert objective["burn_rates"]["60s"] == pytest.approx(2.0)
    # Advance past the short window: its burn decays, the long one holds.
    clock["now"] += 120.0
    burn = slo.snapshot()["tenants"]["acme"]["objectives"]["p90"]
    assert burn["burn_rates"]["60s"] == 0.0
    assert burn["burn_rates"]["600s"] == pytest.approx(2.0)


def test_slo_gauges_are_prometheus_encodable():
    slo = SloRegistry([parse_slo_spec("p99=5s")], windows=(300.0,))
    slo.record_job("acme", 0.1)
    slo.record_job("acme", 9.0)
    gauges = slo.gauges()
    names = {name for name, _, _ in gauges}
    assert names == {
        "slo.worker_respawns",
        "slo.jobs",
        "slo.failures",
        "slo.deadline_misses",
        "slo.bad_events",
        "slo.error_budget_remaining",
        "slo.burn_rate",
    }
    text = encode_prometheus(MetricsRegistry(), gauges=gauges)
    assert (
        'repro_slo_burn_rate{objective="p99",tenant="acme",window="300s"}'
        in text
    )
    assert 'repro_slo_jobs{tenant="acme"} 2' in text


# ----------------------------------------------------------------------
# HTTP scrape endpoint
# ----------------------------------------------------------------------


def test_metrics_http_server_serves_scrapes_on_ephemeral_port():
    reg = MetricsRegistry()
    reg.counter_add("hits", 7)
    server = MetricsHttpServer(lambda: encode_prometheus(reg), port=0)
    assert server.port is None
    server.start()
    try:
        url = f"http://127.0.0.1:{server.port}/metrics"
        with urllib.request.urlopen(url, timeout=5) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            body = response.read().decode("utf-8")
        assert "repro_hits_total 7" in body
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/nope", timeout=5
            )
        assert error.value.code == 404
    finally:
        server.stop()
    assert server.port is None
    server.stop()  # idempotent


# ----------------------------------------------------------------------
# `cec top` rendering
# ----------------------------------------------------------------------


def test_format_top_renders_full_stats_payload():
    stats = {
        "pid": 4242,
        "uptime_seconds": 3725.0,
        "rss_bytes": 48.5 * 1024 * 1024,
        "admission": {
            "state": "serving",
            "pending": 1,
            "max_pending": 64,
            "per_tenant": {"acme": {"admitted": 9, "rejected": 2}},
        },
        "pool": {
            "jobs_submitted": 10,
            "jobs_completed": 9,
            "inflight": 1,
            "respawns": 1,
            "deadline_kills": 1,
            "per_worker": [
                {
                    "index": 0,
                    "pid": 777,
                    "assigned": 1,
                    "jobs_done": 9,
                    "respawns": 1,
                    "rss_bytes": 10 * 1024 * 1024,
                }
            ],
        },
        "slo": {
            "windows_seconds": [300.0],
            "tenants": {
                "acme": {
                    "jobs": 10,
                    "failures": 1,
                    "deadline_misses": 1,
                    "objectives": {
                        "p99": {
                            "target_seconds": 5.0,
                            "bad_events": 2,
                            "budget_remaining": -1.9,
                            "burn_rates": {"300s": 20.0},
                        }
                    },
                }
            },
        },
    }
    screen = format_top(stats)
    assert "pid=4242" in screen
    assert "uptime=1h02m" in screen
    assert "rss=48.5MiB" in screen
    assert "submitted=10" in screen and "deadline_kills=1" in screen
    assert "WORKER" in screen and "777" in screen
    assert "p99<5s" in screen and "20.00" in screen
    assert "ADMITTED" in screen and "acme" in screen


def test_format_top_degrades_without_optional_blocks():
    screen = format_top({})
    assert "cec daemon" in screen
    assert "WORKER" not in screen
    assert "OBJECTIVE" not in screen


# ----------------------------------------------------------------------
# tools/check_bench.py — the perf-regression gate
# ----------------------------------------------------------------------


def _serve_payload():
    return {
        "experiment": "serve",
        "rows": [
            {
                "name": "voter",
                "round": "cold",
                "status": "equivalent",
                "latency": 0.10,
            },
            {
                "name": "voter",
                "round": "warm",
                "status": "equivalent",
                "latency": 0.02,
            },
        ],
        "daemon": {"pool": {"respawns": 0}},
    }


def test_check_bench_passes_on_identical_payload():
    cb = _load_check_bench()
    errors, summary = cb.check_bench(_serve_payload(), _serve_payload())
    assert errors == []
    assert summary["rows_compared"] == 2
    assert summary["ratio"] == pytest.approx(1.0)


def test_check_bench_fails_on_synthetic_slowdown():
    cb = _load_check_bench()
    slow = _serve_payload()
    for row in slow["rows"]:
        row["latency"] *= 2.0
    errors, _ = cb.check_bench(slow, _serve_payload(), max_ratio=1.5)
    assert any("geomean wall-clock ratio 2.00" in e for e in errors)
    # The same slowdown passes under the generous CI threshold.
    errors, _ = cb.check_bench(slow, _serve_payload(), max_ratio=25.0)
    assert errors == []


def test_check_bench_flags_verdict_drift_but_not_wildcards():
    cb = _load_check_bench()
    fresh = _serve_payload()
    fresh["rows"][0]["status"] = "nonequivalent"
    errors, _ = cb.check_bench(fresh, _serve_payload())
    assert any("status changed" in e for e in errors)
    # skipped/failed on either side is a config difference, not drift.
    wild = _serve_payload()
    wild["rows"][0]["status"] = "failed"
    errors, _ = cb.check_bench(wild, _serve_payload())
    assert errors == []


def test_check_bench_flags_missing_rows_leaks_and_respawns():
    cb = _load_check_bench()
    fresh = _serve_payload()
    del fresh["rows"][1]
    errors, _ = cb.check_bench(fresh, _serve_payload())
    assert any("missing fresh" in e for e in errors)

    crashed = _serve_payload()
    crashed["daemon"]["pool"]["respawns"] = 1
    errors, _ = cb.check_bench(crashed, _serve_payload())
    assert any("respawned 1 worker" in e for e in errors)
    errors, _ = cb.check_bench(
        crashed, _serve_payload(), max_respawns=1
    )
    assert errors == []


def test_check_bench_rejects_mismatched_experiments():
    cb = _load_check_bench()
    baseline = copy.deepcopy(_serve_payload())
    baseline["experiment"] = "table2"
    errors, _ = cb.check_bench(_serve_payload(), baseline)
    assert any("experiment mismatch" in e for e in errors)
    errors, _ = cb.check_bench({}, _serve_payload())
    assert errors == ["fresh payload is not a BENCH_*.json object"]


def test_check_bench_table2_seconds_and_fig_columns():
    cb = _load_check_bench()
    t2 = {"name": "log2", "total_seconds": 2.0}
    assert cb.row_seconds("table2", t2) == 2.0
    assert cb.row_seconds("fig6", {"seconds": {"P": 1.0, "G": 0.5}}) == 1.5
    assert cb.row_seconds("fig7", {"standalone_seconds": 4.0}) == 4.0
    assert cb.row_key("table2", t2) == ("log2",)


def test_check_bench_cli_round_trip(tmp_path):
    cb = _load_check_bench()
    baseline_dir = tmp_path / "baselines"
    baseline_dir.mkdir()
    (baseline_dir / "BENCH_serve.json").write_text(
        json.dumps(_serve_payload())
    )
    fresh = tmp_path / "BENCH_serve.json"
    fresh.write_text(json.dumps(_serve_payload()))
    assert cb.main([str(fresh), "--baseline", str(baseline_dir)]) == 0
    slow_payload = _serve_payload()
    for row in slow_payload["rows"]:
        row["latency"] *= 3.0
    fresh.write_text(json.dumps(slow_payload))
    assert (
        cb.main(
            [
                str(fresh),
                "--baseline",
                str(baseline_dir),
                "--max-ratio",
                "1.5",
            ]
        )
        == 1
    )
    assert cb.main([str(tmp_path / "missing.json")]) == 1
