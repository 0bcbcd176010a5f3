"""The traced split: self times add up to the root span's wall."""

from __future__ import annotations

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402


def test_self_times_partition_the_root_and_inclusive_counts_outermost():
    recorder = layers.SpanRecorder()
    root = recorder.open("root", "root")
    outer = recorder.open("sat.solve", "sat")
    inner = recorder.open("sat.solve", "sat")  # re-entry of the same key
    leaf = recorder.open("aig.miter", "aig")
    time.sleep(0.002)
    recorder.close(leaf)
    recorder.close(inner)
    time.sleep(0.001)
    recorder.close(outer)
    recorder.close(root)
    split = recorder.split()
    wall = recorder.spans[root][4] - recorder.spans[root][3]
    assert abs(sum(split["self"].values()) - wall) < 1e-9
    outer_span = recorder.spans[outer]
    assert split["inclusive"]["sat.solve"] == outer_span[4] - outer_span[3]
    assert split["calls"]["sat.solve"] == 2
    assert split["self"]["aig"] >= 0.002


def test_closing_an_outer_span_closes_what_an_exception_left_open():
    recorder = layers.SpanRecorder()
    root = recorder.open("root", "root")
    recorder.open("cuts.enumerate", "cuts")  # never closed explicitly
    recorder.close(root)
    assert all(span[4] >= span[3] for span in recorder.spans)
    split = recorder.split()
    wall = recorder.spans[root][4] - recorder.spans[root][3]
    assert abs(sum(split["self"].values()) - wall) < 1e-9
