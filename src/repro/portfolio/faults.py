"""Fault-injection engines for exercising the orchestration layer.

A fault-tolerant portfolio is only as good as its tests: these checkers
deterministically reproduce the failure modes the orchestrator must
survive — a worker that hangs past its budget (optionally deaf to
SIGTERM, so only SIGKILL stops it) and a worker that crashes.  They are
registered as the ``"sleep"`` and ``"crash"`` spec kinds in
:func:`repro.portfolio.parallel.build_checker` so they stay importable
under every multiprocessing start method (a test-local registry would
not survive ``spawn``).
"""

from __future__ import annotations

import signal
import time

from repro.aig.miter import build_miter
from repro.aig.network import Aig
from repro.sweep.engine import CecResult, CecStatus


class SleepingChecker:
    """Never answers within ``seconds``: models a hung or slow engine.

    Returns UNDECIDED (with the unreduced miter) if the sleep ever
    completes, so an unbudgeted run still terminates.  With
    ``ignore_sigterm`` the staged termination is forced all the way to
    SIGKILL, so not even an exception path runs in the worker.
    """

    def __init__(
        self, seconds: float = 3600.0, ignore_sigterm: bool = False
    ) -> None:
        self.seconds = seconds
        self.ignore_sigterm = ignore_sigterm

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks for equivalence (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(self, miter: Aig) -> CecResult:
        """Sleep for the configured duration, then give up."""
        if self.ignore_sigterm:
            try:
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
            except (ValueError, OSError):
                pass
        time.sleep(self.seconds)
        return CecResult(CecStatus.UNDECIDED, reduced_miter=miter)


class CrashingChecker:
    """Raises on every check: models an engine crash in a worker."""

    def __init__(self, message: str = "injected engine fault") -> None:
        self.message = message

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks for equivalence (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(self, miter: Aig) -> CecResult:
        """Raise the configured fault."""
        raise RuntimeError(self.message)
