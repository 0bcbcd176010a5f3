"""Cancellation tokens with normalised reasons, and first-winner groups.

Every kill an orchestrator performs has a *why*: the worker blew a
budget ("timeout") or another sibling won the race ("cancelled").  The
old pools passed the why around as ad-hoc strings and not every path
spelled it the same way, so downstream records (``EngineRunRecord``,
``EngineFailure.reason``) saw "timed out" here and "deadline" there.
A :class:`CancelToken` makes the reason a first-class, normalised value
stamped once at cancellation time; :class:`CancelGroup` implements the
cube race's first-winner protocol — the first conclusive sibling
cancels every other token of the group.
"""

from __future__ import annotations

from typing import List, Optional

#: Canonical reason: a sibling produced the answer first.
REASON_CANCELLED = "cancelled"
#: Canonical reason: a wall-clock budget (per-engine or global) expired.
REASON_TIMEOUT = "timeout"


def normalize_reason(
    reason: Optional[str], default: str = REASON_CANCELLED
) -> str:
    """Map a free-form kill reason onto one of the canonical strings.

    Anything that smells like a clock ("timeout", "timed out",
    "deadline exceeded", "budget") normalises to
    :data:`REASON_TIMEOUT`; anything that smells like losing a race
    ("cancelled", "canceled", "winner", "lost") to
    :data:`REASON_CANCELLED`; unknown strings take ``default``.
    """
    if not reason:
        return default
    text = str(reason).strip().lower().replace("_", " ").replace("-", " ")
    if text in (REASON_TIMEOUT, REASON_CANCELLED):
        return text
    if (
        "timeout" in text
        or "timed out" in text
        or "deadline" in text
        or "budget" in text
        or "overtime" in text
    ):
        return REASON_TIMEOUT
    if "cancel" in text or "winner" in text or "lost" in text:
        return REASON_CANCELLED
    return default


class CancelToken:
    """One worker's (or job's) cancellation state.

    The first :meth:`cancel` wins: later calls with a different reason
    do not overwrite the recorded one, so a worker killed for a timeout
    that is then swept up in a winner-cancellation pass still reports
    "timeout".
    """

    __slots__ = ("name", "_reason")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._reason: Optional[str] = None

    @property
    def cancelled(self) -> bool:
        return self._reason is not None

    @property
    def reason(self) -> str:
        """The normalised cancellation reason ("" while not cancelled)."""
        return self._reason or ""

    def cancel(self, reason: Optional[str] = None) -> str:
        """Cancel (idempotent); returns the recorded canonical reason."""
        if self._reason is None:
            self._reason = normalize_reason(reason)
        return self._reason

    def __repr__(self) -> str:
        state = self._reason or "live"
        return f"CancelToken({self.name!r}, {state})"


class CancelGroup:
    """A set of sibling tokens with first-winner cancellation.

    The cube fan-out races sibling jobs (the cubes plus a monolithic
    solve of the undecomposed problem); whichever sibling first reaches
    a conclusive answer calls :meth:`cancel_rest` and every loser —
    queued or running — is marked cancelled.  Queued losers are revoked
    off the :class:`~repro.exec.board.JobBoard` for free; running ones
    go through the staged SIGTERM → SIGKILL stop path.
    """

    def __init__(self) -> None:
        self.tokens: List[CancelToken] = []
        self.winner: Optional[CancelToken] = None

    def new_token(self, name: str = "") -> CancelToken:
        token = CancelToken(name)
        self.tokens.append(token)
        return token

    def add(self, token: CancelToken) -> CancelToken:
        self.tokens.append(token)
        return token

    def cancel_rest(
        self,
        winner: Optional[CancelToken] = None,
        reason: str = REASON_CANCELLED,
    ) -> List[CancelToken]:
        """Cancel every token except ``winner``; returns the newly
        cancelled ones (already-cancelled tokens are not re-counted)."""
        if winner is not None:
            self.winner = winner
        losers: List[CancelToken] = []
        for token in self.tokens:
            if token is winner or token.cancelled:
                continue
            token.cancel(reason)
            losers.append(token)
        return losers

    @property
    def cancelled_count(self) -> int:
        return sum(1 for t in self.tokens if t.cancelled)
