"""The paper's fixed P→G→L→SAT flow does the same work on frozen inputs.

The benchmark's frozen pairs (``perfbench/inputs/``, read here only)
go through ``CombinedChecker(sched="fixed")`` under a tracer, and the
deterministic work counters must read exactly as pinned: the verdict,
the cut expansions, the simulated words and every phase record's
``(kind, candidates, proved, cex)``.  A refactor of the provers the
flow calls (window prover, cut pass, SAT residue) that changes any of
these changes what the flow does, not just how the code is laid out.
"""

from pathlib import Path

import pytest

from repro import CombinedChecker, read_aiger
from repro.obs import Tracer, use_tracer

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"

PINNED = {
    "voter21": (
        "voter21.aag", "voter21_compress2.aag", "equivalent", 20314, 64676,
        [("P", 0, 0, 0), ("G", 143, 143, 0), ("L", 24, 15, 0)],
    ),
    "voter21_mut": (
        "voter21.aag", "voter21_compress2_mut.aag", "nonequivalent",
        38303, 70472,
        [("P", 0, 0, 0), ("G", 143, 143, 0), ("L", 23, 14, 0),
         ("L", 8, 0, 0)],
    ),
    "adder11": (
        "adder11.aag", "adder11_compress2.aag", "equivalent", 4134, 68518,
        [("P", 5, 5, 0), ("G", 11, 11, 0), ("L", 30, 26, 0),
         ("L", 4, 4, 0)],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fixed_flow_work_is_pinned(name):
    file_a, file_b, verdict, expansions, words, phases = PINNED[name]
    a = read_aiger(INPUTS / file_a)
    b = read_aiger(INPUTS / file_b)
    tracer = Tracer()
    with use_tracer(tracer):
        result = CombinedChecker(sched="fixed").check(a, b)
    assert result.status.value == verdict
    if verdict == "nonequivalent":
        assert a.evaluate(result.cex) != b.evaluate(result.cex)
    assert tracer.metrics.counter_value("cuts.expansions") == expansions
    assert tracer.metrics.counter_value("sim.words_simulated") == words
    assert [
        (p.kind, p.candidates, p.proved, p.cex) for p in result.report.phases
    ] == phases
