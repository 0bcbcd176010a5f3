"""Per-phase statistics of an engine run.

The report is the data source for the paper's Fig. 6 (runtime breakdown
by phase) and feeds Table II (reduction percentage, engine runtime).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.counters import CacheCounters


@dataclass
class PhaseRecord:
    """Statistics of one engine phase (P, G, or one L phase)."""

    #: Phase kind: ``"P"``, ``"G"`` or ``"L"``.
    kind: str
    #: Wall-clock seconds spent in the phase.
    seconds: float = 0.0
    #: Candidate pairs (or POs, for P) examined.
    candidates: int = 0
    #: Pairs proved equivalent (POs proved constant for P).
    proved: int = 0
    #: Counter-examples collected.
    cex: int = 0
    #: Miter AND count when the phase finished.
    miter_ands_after: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for serialisation in benchmark output."""
        return {
            "kind": self.kind,
            "seconds": self.seconds,
            "candidates": self.candidates,
            "proved": self.proved,
            "cex": self.cex,
            "miter_ands_after": self.miter_ands_after,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PhaseRecord":
        """Inverse of :meth:`as_dict` (the serialisation round-trip).

        Unknown keys are ignored so payloads may grow fields without
        breaking older readers; missing keys take the field defaults.
        """
        return cls(
            kind=data["kind"],
            seconds=float(data.get("seconds", 0.0)),
            candidates=int(data.get("candidates", 0)),
            proved=int(data.get("proved", 0)),
            cex=int(data.get("cex", 0)),
            miter_ands_after=int(data.get("miter_ands_after", 0)),
        )


@dataclass
class EngineReport:
    """Full run record of the simulation-based engine."""

    initial_ands: int = 0
    final_ands: int = 0
    phases: List[PhaseRecord] = field(default_factory=list)
    total_seconds: float = 0.0
    #: Candidate pairs actually put through exhaustive simulation.  On a
    #: warm cached run of an already-proved miter this drops to zero —
    #: the acceptance metric of the functional-knowledge cache.
    exhaustive_pairs: int = 0
    #: Cache activity during this run (``None`` when no cache was
    #: configured); a per-run delta, not the process-wide totals.
    cache: Optional[CacheCounters] = None
    #: Snapshot of the ambient tracer's metrics registry, taken when the
    #: run finished with tracing enabled (empty otherwise).  Cumulative
    #: for the recording process, not a per-run delta.
    metrics: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        """Plain-dict view (benchmark payloads, worker result queues)."""
        return {
            "initial_ands": self.initial_ands,
            "final_ands": self.final_ands,
            "total_seconds": self.total_seconds,
            "exhaustive_pairs": self.exhaustive_pairs,
            "phases": [phase.as_dict() for phase in self.phases],
            "cache": self.cache.as_dict() if self.cache is not None else None,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "EngineReport":
        """Inverse of :meth:`as_dict` — the round-trip the portfolio
        workers use to ship their reports over the result queue."""
        cache = data.get("cache")
        return cls(
            initial_ands=int(data.get("initial_ands", 0)),
            final_ands=int(data.get("final_ands", 0)),
            phases=[
                PhaseRecord.from_dict(phase)
                for phase in data.get("phases", [])
            ],
            total_seconds=float(data.get("total_seconds", 0.0)),
            exhaustive_pairs=int(data.get("exhaustive_pairs", 0)),
            cache=CacheCounters.from_dict(cache) if cache else None,
            metrics=dict(data.get("metrics", {})),
        )

    @property
    def reduction_percent(self) -> float:
        """Miter size reduction achieved by the engine (Table II column).

        100 % means the engine fully proved the miter on its own.
        """
        if self.initial_ands == 0:
            return 100.0
        return 100.0 * (1.0 - self.final_ands / self.initial_ands)

    def phase_seconds(self) -> Dict[str, float]:
        """Aggregate wall-clock per phase kind (the Fig. 6 breakdown)."""
        totals: Dict[str, float] = {}
        for record in self.phases:
            totals[record.kind] = totals.get(record.kind, 0.0) + record.seconds
        return totals

    def phase_fractions(self) -> Dict[str, float]:
        """Phase runtime fractions normalised to the engine total."""
        totals = self.phase_seconds()
        denom = sum(totals.values())
        if denom <= 0.0:
            return {kind: 0.0 for kind in totals}
        return {kind: sec / denom for kind, sec in totals.items()}


@dataclass
class EngineFailure:
    """Structured record of one engine's crash inside a portfolio run.

    A worker that raises posts its traceback text; a worker that dies
    without reporting (killed, segfault, unpicklable result) is recorded
    with its exit code and an explanatory message.
    """

    #: Engine name (the spec kind, e.g. ``"sat"``).
    engine: str
    #: One-line description of the failure.
    message: str
    #: Full traceback text when the worker raised; empty otherwise.
    traceback: str = ""
    #: Process exit code for abnormal exits (``None`` when the worker
    #: reported its own exception).
    exit_code: Optional[int] = None
    #: Canonical kill reason when the orchestrator stopped this worker
    #: before (or while) it failed: ``"timeout"`` (budget/deadline) or
    #: ``"cancelled"`` (another engine won); empty for organic crashes.
    #: It is the worker's :attr:`~repro.exec.runtime.WorkerHandle.stop_reason`.
    reason: str = ""

    def __str__(self) -> str:
        suffix = f" (exit code {self.exit_code})" if self.exit_code is not None else ""
        if self.reason:
            suffix += f" [{self.reason}]"
        return f"{self.engine}: {self.message}{suffix}"


@dataclass
class EngineRunRecord:
    """Per-engine outcome of a portfolio run.

    ``status`` is one of:

    - ``"equivalent"`` / ``"nonequivalent"`` — the engine produced the
      winning conclusive verdict;
    - ``"undecided"`` — the engine finished without a verdict (its
      residue size, if any, is in ``residue_ands``);
    - ``"failed"`` — the engine crashed (details in ``failure``);
    - ``"timeout"`` — the engine was terminated on its per-engine budget
      or the global deadline;
    - ``"cancelled"`` — another engine won first and this one was
      stopped early.
    """

    name: str
    status: str
    seconds: float = 0.0
    #: AND count of the residue the engine returned (UNDECIDED only).
    residue_ands: Optional[int] = None
    failure: Optional[EngineFailure] = None
    #: The engine's own :class:`EngineReport`, when it shipped one back
    #: (parallel workers reconstruct it via the as_dict/from_dict
    #: round-trip; inline stages attach it directly).
    report: Optional[EngineReport] = None

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for serialisation in benchmark output."""
        return {
            "name": self.name,
            "status": self.status,
            "seconds": self.seconds,
            "residue_ands": self.residue_ands,
            "failure": str(self.failure) if self.failure else None,
            "report": self.report.as_dict() if self.report else None,
        }


@dataclass
class PortfolioReport:
    """Full record of a multi-engine portfolio run.

    Attached to :attr:`repro.sweep.engine.CecResult.report` by the
    portfolio checkers and printed by the CLI's ``--verbose``.
    """

    engines: List[EngineRunRecord] = field(default_factory=list)
    #: Name of the engine that produced the verdict (``None`` when the
    #: run ended UNDECIDED).
    winner: Optional[str] = None
    total_seconds: float = 0.0
    #: Multiprocessing start method the run used (``"inline"`` for the
    #: staged, single-process portfolio).
    start_method: str = "inline"
    #: Record of the timeout finisher engine, when one ran.
    finisher: Optional[EngineRunRecord] = None
    #: Aggregated cache activity across all engines of the run (``None``
    #: when no cache was configured).
    cache: Optional[CacheCounters] = None
    #: Metrics registry snapshot of the run's tracer — includes every
    #: worker's merged registry when tracing was enabled (empty
    #: otherwise).
    metrics: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        """Plain-dict view for serialisation in benchmark output."""
        return {
            "engines": [record.as_dict() for record in self.engines],
            "winner": self.winner,
            "total_seconds": self.total_seconds,
            "start_method": self.start_method,
            "finisher": (
                self.finisher.as_dict() if self.finisher is not None else None
            ),
            "cache": self.cache.as_dict() if self.cache is not None else None,
            "metrics": self.metrics,
        }

    @property
    def failures(self) -> List[EngineFailure]:
        """All engine failures observed during the run."""
        found = [r.failure for r in self.engines if r.failure is not None]
        if self.finisher is not None and self.finisher.failure is not None:
            found.append(self.finisher.failure)
        return found

    def record(self, name: str) -> Optional[EngineRunRecord]:
        """The first record of engine ``name`` (``None`` if absent)."""
        for rec in self.engines:
            if rec.name == name:
                return rec
        return None

    def summary_lines(self) -> List[str]:
        """Human-readable per-engine summary (the ``--verbose`` output)."""
        lines = [
            f"portfolio: start_method={self.start_method}, "
            f"winner={self.winner or '-'}, "
            f"total {self.total_seconds:.2f}s"
        ]
        records = list(self.engines)
        if self.finisher is not None:
            records.append(self.finisher)
        for rec in records:
            parts = [f"  engine {rec.name}: {rec.status}, {rec.seconds:.2f}s"]
            if rec.residue_ands is not None:
                parts.append(f"residue {rec.residue_ands} ANDs")
            if rec.failure is not None:
                parts.append(str(rec.failure))
            lines.append(", ".join(parts))
        if self.cache is not None:
            lines.append(f"  cache: {self.cache.summary()}")
        return lines


class PhaseTimer:
    """Context manager that fills a :class:`PhaseRecord`'s duration."""

    def __init__(self, record: PhaseRecord) -> None:
        self.record = record
        self._start: Optional[float] = None

    def __enter__(self) -> PhaseRecord:
        self._start = time.perf_counter()
        return self.record

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._start is not None
        self.record.seconds += time.perf_counter() - self._start
