"""Job/result transport shared by every process pool.

Messages between a pool parent and its workers are dicts pickled on
``multiprocessing`` queues: miters and cofactor cones travel in the job
payloads, and results carry their report, trace and cache delta inline.
An UNDECIDED residue rides back together with the engine's carried
:class:`~repro.sweep.state.SweepState` when the state still owns it, so
a finisher adopts its signatures without re-simulating
(:func:`pack_residue`).

A worker whose result queue is already torn down (parent killed
mid-grace) spills its message to a per-worker file instead of dropping
it; :func:`collect_spilled_messages` is the parent-side sweep.
"""

from __future__ import annotations

import os
import pickle
from typing import Dict, Iterator, Optional

from repro.sweep.engine import CecResult, CecStatus
from repro.sweep.state import SweepState


def pack_residue(message: Dict, result: CecResult) -> None:
    """Attach an UNDECIDED result's residue to the outbound message.

    When the engine's carried :class:`SweepState` still owns the residue
    it rides along as ``sim_state``, and the residue is the state's own
    network, so the queue pickles the miter once and the parent (and the
    SAT finisher after it) adopts signatures, pattern pool and origin
    map as they are.
    """
    residue = result.reduced_miter
    if residue is None or result.status is not CecStatus.UNDECIDED:
        return
    state = result.sim_state
    if isinstance(state, SweepState) and state.matches(residue):
        message["sim_state"] = state
        residue = state.network()
    message["residue"] = residue


def post_message(queue, message: Dict, spill_path: Optional[str]) -> None:
    """Post a worker message; spill it to disk when the queue is gone.

    A cancelled loser can reach this after the parent's queue is already
    torn down (e.g. the parent process itself was killed mid-grace).
    The message — span buffer and cache delta included — is then written
    to the per-worker spill file the parent collects in its late-message
    drain, instead of being silently dropped.
    """
    try:
        queue.put(message)
        return
    except BaseException:
        pass
    if spill_path is None:
        return
    try:
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        staging = spill_path + ".tmp"
        with open(staging, "wb") as handle:
            handle.write(payload)
        os.replace(staging, spill_path)
    except Exception:
        pass  # no queue and no spill target: the message is lost


def collect_spilled_messages(spill_dir: Optional[str]) -> Iterator[Dict]:
    """Yield the messages workers spilled to disk (see post_message)."""
    if spill_dir is None:
        return
    try:
        names = sorted(os.listdir(spill_dir))
    except OSError:
        return
    for name in names:
        if not name.endswith(".msg"):
            continue
        try:
            with open(os.path.join(spill_dir, name), "rb") as handle:
                message = pickle.load(handle)
        except Exception:
            continue  # truncated or foreign file: skip it
        if isinstance(message, dict):
            yield message
