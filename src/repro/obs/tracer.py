"""Hierarchical span tracing with Chrome ``trace_event`` export.

A :class:`Tracer` records **spans** — named, nestable intervals measured
on the monotonic clock (``time.perf_counter_ns``) — plus instant events
and per-process metadata, and serialises the lot as Chrome
``trace_event`` JSON (the format ``chrome://tracing`` and Perfetto
read).  Nesting is implicit: the trace viewers stack spans of one
``(pid, tid)`` lane by time containment, so the tracer only needs start
and duration, not explicit parent links.

Two clocks are involved:

- span timestamps are *relative* nanoseconds from the tracer's
  ``perf_counter_ns`` origin — monotonic, immune to wall-clock steps;
- each tracer also pins a ``time_ns`` **epoch anchor** at creation, so
  spans recorded by a *child* tracer in another process can be re-based
  onto the parent timeline: ``parent_rel = child_rel + (child_epoch -
  parent_epoch)``.  That is what :meth:`Tracer.merge_child` does with
  the payload a portfolio worker ships back over its result queue.

Disabled tracing must cost nothing.  The module-level
:data:`NULL_TRACER` singleton answers every ``span()`` call with one
shared no-op context manager and swallows all metric updates; hot paths
never allocate when tracing is off.  Span durations are additionally
aggregated into the tracer's :class:`~repro.obs.metrics.MetricsRegistry`
as per-name histograms, so a trace run always yields summary statistics
even without opening the timeline.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import NULL_METRICS, MetricsRegistry

#: One recorded span: (name, category, start_ns, duration_ns, attrs).
SpanTuple = Tuple[str, str, int, int, Optional[Dict[str, Any]]]


class Span:
    """An open span; close it by exiting the ``with`` block.

    Attributes set via :meth:`set` (or the ``span()`` keyword arguments)
    become the ``args`` of the exported Chrome event — keep the values
    JSON-serialisable scalars.
    """

    __slots__ = ("_tracer", "name", "category", "attrs", "start_ns")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        attrs: Optional[Dict[str, Any]],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.attrs = attrs
        self.start_ns = 0

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span (late, e.g. a result count)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self.start_ns = self._tracer.now_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        duration = tracer.now_ns() - self.start_ns
        tracer._spans.append(
            (self.name, self.category, self.start_ns, duration, self.attrs)
        )
        tracer.metrics.observe(
            f"span.{self.name}.seconds", duration / 1_000_000_000
        )


class _NullSpan:
    """The shared no-op span of :class:`NullTracer` (never records)."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracing: every operation is a cached no-op.

    ``enabled`` is ``False`` so instrumentation that must do real work
    to produce an attribute (byte counts, timing a cache probe) can
    skip it entirely; the plain ``span()``/``counter`` calls are cheap
    enough to leave unguarded on batch-level paths.
    """

    enabled = False
    metrics = NULL_METRICS

    def span(self, name: str, category: str = "engine", **attrs) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, category: str = "engine", **attrs) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Span recorder for one process.

    Parameters
    ----------
    process_name:
        Human-readable lane title shown by the trace viewers for this
        process (``process_name`` metadata event).
    """

    enabled = True

    def __init__(self, process_name: str = "repro") -> None:
        self.epoch_origin_ns = time.time_ns()
        self._perf_origin_ns = time.perf_counter_ns()
        self.pid = os.getpid()
        self.process_name = process_name
        self.metrics = MetricsRegistry()
        self._spans: List[SpanTuple] = []
        #: Spans merged from child processes: (pid, span tuple).
        self._foreign_spans: List[Tuple[int, SpanTuple]] = []
        self._process_names: Dict[int, str] = {self.pid: process_name}
        self._instants: List[Tuple[str, str, int, Optional[Dict]]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def now_ns(self) -> int:
        """Monotonic nanoseconds since the tracer was created."""
        return time.perf_counter_ns() - self._perf_origin_ns

    def span(self, name: str, category: str = "engine", **attrs) -> Span:
        """Open a span; use as ``with tracer.span("phase.P"): ...``."""
        return Span(self, name, category, attrs or None)

    def instant(self, name: str, category: str = "engine", **attrs) -> None:
        """Record a zero-duration marker event."""
        self._instants.append((name, category, self.now_ns(), attrs or None))

    @property
    def num_spans(self) -> int:
        """Spans recorded so far (own and merged)."""
        return len(self._spans) + len(self._foreign_spans)

    def spans(self) -> List[SpanTuple]:
        """The spans recorded by *this* process (no merged children)."""
        return list(self._spans)

    # ------------------------------------------------------------------
    # Cross-process shipping
    # ------------------------------------------------------------------

    def export_payload(self) -> Dict[str, Any]:
        """Picklable snapshot for shipping to a parent tracer.

        The payload carries the epoch anchor needed for re-basing, the
        recorded spans (timestamps still relative to *this* tracer),
        and the metrics registry.
        """
        return {
            "pid": self.pid,
            "process_name": self.process_name,
            "epoch_origin_ns": self.epoch_origin_ns,
            "spans": list(self._spans),
            "instants": list(self._instants),
            "metrics": self.metrics.as_dict(),
        }

    def merge_child(self, payload: Dict[str, Any]) -> int:
        """Re-base a child tracer's payload onto this timeline.

        Returns the number of spans merged.  Child timestamps are
        shifted by the difference of the two epoch anchors; a child
        whose anchor precedes ours (impossible for processes we forked,
        but defensively handled) is clamped to zero.
        """
        offset = payload["epoch_origin_ns"] - self.epoch_origin_ns
        pid = payload["pid"]
        self._process_names[pid] = payload.get("process_name", f"pid {pid}")
        merged = 0
        for name, category, start_ns, duration_ns, attrs in payload["spans"]:
            rebased = max(0, start_ns + offset)
            self._foreign_spans.append(
                (pid, (name, category, rebased, duration_ns, attrs))
            )
            merged += 1
        for name, category, ts_ns, attrs in payload.get("instants", ()):
            self._foreign_spans.append(
                (pid, (name, category, max(0, ts_ns + offset), 0, attrs))
            )
            merged += 1
        self.metrics.merge_dict(payload.get("metrics", {}))
        return merged

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` JSON object (dict form)."""
        events: List[Dict[str, Any]] = []
        for pid, name in sorted(self._process_names.items()):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
            )
        all_spans = [(self.pid, s) for s in self._spans]
        all_spans.extend(self._foreign_spans)
        for pid, (name, category, start_ns, duration_ns, attrs) in all_spans:
            event: Dict[str, Any] = {
                "name": name,
                "cat": category,
                "ph": "X",
                "ts": start_ns / 1000.0,
                "dur": max(duration_ns, 0) / 1000.0,
                "pid": pid,
                "tid": 0,
            }
            if attrs:
                event["args"] = attrs
            events.append(event)
        for name, category, ts_ns, attrs in self._instants:
            event = {
                "name": name,
                "cat": category,
                "ph": "i",
                "ts": ts_ns / 1000.0,
                "pid": self.pid,
                "tid": 0,
                "s": "p",
            }
            if attrs:
                event["args"] = attrs
            events.append(event)
        # Final counter values as Chrome counter ("C") events, stamped at
        # the end of the timeline so trace viewers plot the run totals and
        # tools/check_trace.py can assert over them (e.g. --require-cubes).
        counters = getattr(self.metrics, "counters", None)
        if counters:
            end_ts = 0.0
            if all_spans:
                end_ts = max(
                    (span[2] + max(span[3], 0)) / 1000.0
                    for _, span in all_spans
                )
            for name in sorted(counters):
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": end_ts,
                        "pid": self.pid,
                        "tid": 0,
                        "args": {"value": counters[name]},
                    }
                )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs",
                "epoch_origin_ns": self.epoch_origin_ns,
            },
        }

    def write(self, path: str) -> str:
        """Write the Chrome trace JSON to ``path``; returns the path.

        Goes through a temporary file and an atomic rename so a crash
        mid-write never leaves a truncated trace behind.
        """
        payload = self.to_chrome_trace()
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
        os.replace(tmp_path, path)
        return path

    def summary(self) -> Dict[str, Any]:
        """Aggregate span statistics (for bench payloads and ``--metrics``).

        ``seconds_by_category`` and ``seconds_by_name`` sum durations of
        own *and* merged spans, so a portfolio run's summary covers the
        whole fleet.
        """
        by_category: Dict[str, float] = {}
        by_name: Dict[str, Dict[str, float]] = {}
        all_spans = [s for s in self._spans]
        all_spans.extend(s for _pid, s in self._foreign_spans)
        for name, category, _start, duration_ns, _attrs in all_spans:
            seconds = duration_ns / 1_000_000_000
            by_category[category] = by_category.get(category, 0.0) + seconds
            entry = by_name.setdefault(name, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += seconds
        return {
            "spans": len(all_spans),
            "processes": len(self._process_names),
            "seconds_by_category": by_category,
            "seconds_by_name": by_name,
        }
