"""Process and /dev/shm hygiene of benchmark runs.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

A serve-stream run is interrupted midway; afterwards no process of the
run may be alive and no ``/dev/shm`` segment of the run may be left.
Segments of other processes are not the run's to reap.  A run in a
directory without the program must fail fast and print no result.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hygiene  # noqa: E402
import run  # noqa: E402


def run_dirs():
    base = ROOT / ".perfbench-runs"
    return set(base.iterdir()) if base.is_dir() else set()


@pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
)
def test_interrupted_serve_run_leaves_no_survivor(signum):
    shm_before = hygiene.shm_segments()
    before = run_dirs()
    bench = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "serve-stream",
         "--seed", "5", "--seconds", "60", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # Wait until the last set-up has started its daemon and client,
        # then let it finish its warm-up rounds (about 5 s) and the timed
        # stream run for a while.
        last = 2 * (run.SETUP_REPEATS["serve-stream"] + 1)
        sessions = []
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and len(sessions) < last:
            time.sleep(0.2)
            for directory in run_dirs() - before:
                try:
                    sessions = json.loads((directory / "pids.json").read_text())
                except (OSError, ValueError):
                    pass
        assert len(sessions) == last, "the run never reached its timed stream"
        time.sleep(15)
        assert bench.poll() is None, "the run ended before the interrupt"
        bench.send_signal(signum)
        stdout, stderr = bench.communicate(timeout=60)
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
    assert bench.returncode == 128 + signum, stderr
    assert stdout.strip() == "", "an interrupted run must print no result"
    alive = [
        pid for pid, (_, session) in hygiene.process_table().items()
        if session in sessions
    ]
    assert alive == []
    left = [
        name for name in hygiene.shm_segments() - shm_before
        if hygiene.segment_owner(name) in sessions
    ]
    assert left == []


def test_only_segments_of_the_run_are_reaped(tmp_path):
    def stamp(name, owner):
        header = bytearray(64)
        hygiene.SHM_OWNER.pack_into(header, hygiene.SHM_OWNER_OFFSET, owner)
        path = hygiene.SHM_DIR / name
        path.write_bytes(bytes(header))
        return path

    prefix = f"{hygiene.SHM_PREFIX}perfbenchtest{os.getpid()}"
    with hygiene.Supervisor(tmp_path) as sup:
        child = sup.spawn([sys.executable, "-c", "import time; time.sleep(60)"])
        ours = stamp(prefix + "a", child.pid)
        # A live process outside the run owns this one, as another run's
        # daemon would.
        foreign = stamp(prefix + "b", os.getpid())
    try:
        assert sup.leaked_segments == [ours.name]
        assert not ours.exists()
        assert foreign.exists()
        assert sup.survivors == []
    finally:
        for path in (ours, foreign):
            path.unlink(missing_ok=True)


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "paper-flow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""
