"""Process and shared-memory hygiene for one benchmark run.

:class:`Supervisor` starts every child of a run in its own session, so
the child and whatever it starts (the serve daemon's workers) share a
session id that outlives any reparenting.  On leaving the ``with``
block, normally, on an error, or on SIGTERM/SIGINT (which the
supervisor turns into :class:`Interrupted`), it stops each session:
SIGTERM, a grace period, then SIGKILL.  It then looks for survivors,
processes still in one of those sessions or still below this process,
and for ``/dev/shm`` segments of the program (``rs*``) that appeared
during the run and belong to it.  It kills the survivors, unlinks the
segments and reports both, and the run counts each as a failed
operation.

A segment belongs to the run when the owner pid in its header is one of
the run's children.  The program stamps every segment's header with the
pid of the process that started its workers (here the serve daemon), in
bytes 24-31, little-endian (``repro.shm.segment``: magic, version,
state, refcount, size, owner pid).  Segments of other processes on the
machine are left alone, even if they appear during the run.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import struct
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "rs"
SHM_OWNER = struct.Struct("<q")
SHM_OWNER_OFFSET = 24
PR_SET_PDEATHSIG = 1

#: Seconds a stopped child has between SIGTERM and SIGKILL.
GRACE_SECONDS = 10.0


class Interrupted(Exception):
    """SIGTERM or SIGINT arrived; the run unwinds and stops its children."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


def shm_segments() -> Set[str]:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def segment_owner(name: str) -> Optional[int]:
    """The owner pid stamped in a segment's header, if it can be read."""
    try:
        with open(SHM_DIR / name, "rb") as handle:
            handle.seek(SHM_OWNER_OFFSET)
            raw = handle.read(SHM_OWNER.size)
    except OSError:
        return None
    if len(raw) < SHM_OWNER.size:
        return None
    return SHM_OWNER.unpack(raw)[0]


def process_table() -> Dict[int, Tuple[int, int]]:
    """pid -> (ppid, session id) for every live, non-zombie process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] == "Z":
            continue
        table[int(entry)] = (int(fields[1]), int(fields[3]))
    return table


def _die_with_parent() -> None:
    """In the child before exec: get SIGTERM if the benchmark dies."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    except (OSError, AttributeError):
        pass


class Supervisor:
    """Owns every process a run starts; see the module docstring."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.children: List[subprocess.Popen] = []
        self.sessions: Set[int] = set()
        self.survivors: List[int] = []
        self.leaked_segments: List[str] = []
        self._shm_before: Set[str] = set()
        self._handlers = {}

    def __enter__(self) -> "Supervisor":
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self._shm_before = shm_segments()
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._handlers[signum] = signal.signal(signum, self._interrupt)
        return self

    def _interrupt(self, signum, frame) -> None:
        raise Interrupted(signum)

    def spawn(self, cmd: List[str], **kwargs) -> subprocess.Popen:
        process = subprocess.Popen(
            cmd, start_new_session=True, preexec_fn=_die_with_parent,
            **kwargs,
        )
        self.children.append(process)
        self.sessions.add(process.pid)
        (self.run_dir / "pids.json").write_text(
            json.dumps(sorted(self.sessions))
        )
        return process

    def stop(self, process: subprocess.Popen) -> None:
        """Stop one child and its session: SIGTERM to the child (it stops
        its own children), a grace period, then SIGKILL to the session."""
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                pass
        self._signal_session(process.pid, signal.SIGKILL)
        process.wait()

    def _signal_session(self, sid: int, signum: int) -> None:
        for pid, (_, session) in process_table().items():
            if session == sid:
                try:
                    os.kill(pid, signum)
                except ProcessLookupError:
                    pass

    def __exit__(self, *exc_info) -> None:
        # A second signal must not cut the clean-up short.
        for signum in self._handlers:
            signal.signal(signum, signal.SIG_IGN)
        try:
            for process in self.children:
                if process.stdin is not None:
                    try:
                        process.stdin.close()
                    except OSError:
                        pass
                self.stop(process)
                if process.stdout is not None:
                    process.stdout.close()
            self._collect_leftovers()
        finally:
            for signum, handler in self._handlers.items():
                signal.signal(signum, handler)

    def _collect_leftovers(self) -> None:
        deadline = time.monotonic() + 2.0
        while True:
            table = process_table()
            me = os.getpid()
            found = [
                pid for pid, (_, session) in table.items()
                if pid != me and (
                    session in self.sessions or _below(table, pid, me)
                )
            ]
            if not found or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        for pid in found:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.survivors = found
        self.leaked_segments = sorted(
            name for name in shm_segments() - self._shm_before
            if segment_owner(name) in self.sessions
        )
        for name in self.leaked_segments:
            try:
                (SHM_DIR / name).unlink()
            except OSError:
                pass


def _below(table: Dict[int, Tuple[int, int]], pid: int, ancestor: int) -> bool:
    seen = set()
    while pid in table and pid not in seen:
        seen.add(pid)
        pid = table[pid][0]
        if pid == ancestor:
            return True
    return False
