"""Tests of the independent oracle against Python integer arithmetic.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The circuits below are built here, as AIGER text, without the program
under test, so the oracle is checked against integers alone.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402


class AagWriter:
    """A tiny AIG maker that writes canonical ASCII AIGER."""

    def __init__(self, num_pis: int) -> None:
        self.num_pis = num_pis
        self.ands = []

    def pi(self, index: int) -> int:
        return 2 * (index + 1)

    def and_(self, a: int, b: int) -> int:
        var = self.num_pis + 1 + len(self.ands)
        self.ands.append((var, a, b))
        return 2 * var

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def full_adder(self, a: int, b: int, c: int):
        s = self.xor(self.xor(a, b), c)
        carry = self.or_(self.and_(a, b), self.and_(c, self.xor(a, b)))
        return s, carry

    def text(self, pos) -> str:
        m = self.num_pis + len(self.ands)
        lines = [f"aag {m} {self.num_pis} 0 {len(pos)} {len(self.ands)}"]
        lines += [str(self.pi(k)) for k in range(self.num_pis)]
        lines += [str(p) for p in pos]
        lines += [f"{2 * v} {a} {b}" for v, a, b in self.ands]
        return "\n".join(lines) + "\n"


def ripple_adder(width: int) -> str:
    w = AagWriter(2 * width)
    carry = 0
    outs = []
    for k in range(width):
        s, carry = w.full_adder(w.pi(k), w.pi(width + k), carry)
        outs.append(s)
    return w.text(outs + [carry])


def array_multiplier(width: int, flip=None) -> str:
    """Shift-and-add multiplier; ``flip`` negates one AND fanin."""
    w = AagWriter(2 * width)
    acc = [0] * (2 * width)
    for j in range(width):
        carry = 0
        for i in range(width):
            partial = w.and_(w.pi(i), w.pi(width + j))
            acc[i + j], carry = w.full_adder(acc[i + j], partial, carry)
        for k in range(j + width, 2 * width):
            acc[k], carry = w.full_adder(acc[k], 0, carry)
    if flip is not None:
        var, a, b = w.ands[flip]
        w.ands[flip] = (var, a ^ 1, b)
    return w.text(acc)


def load(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return oracle.read_aiger(path)


def outputs_as_ints(circuit, num_patterns):
    """Evaluate every pattern; return (pattern -> output word as int)."""
    values = {}
    for first, words in oracle.exhaustive_blocks(circuit.num_pis, 64):
        out = oracle.evaluate(circuit, words)
        for p in range(min(words.shape[1] * 64, num_patterns - first)):
            word, bit = divmod(p, 64)
            bits = (out[:, word] >> np.uint64(bit)) & np.uint64(1)
            values[first + p] = sum(int(b) << k for k, b in enumerate(bits))
    return values


def test_adder_matches_integer_addition(tmp_path):
    width = 6
    circuit = load(tmp_path, "add.aag", ripple_adder(width))
    mask = (1 << width) - 1
    for pattern, value in outputs_as_ints(circuit, 1 << 2 * width).items():
        assert value == (pattern & mask) + (pattern >> width)


def test_multiplier_matches_integer_multiplication(tmp_path):
    width = 5
    circuit = load(tmp_path, "mul.aag", array_multiplier(width))
    mask = (1 << width) - 1
    for pattern, value in outputs_as_ints(circuit, 1 << 2 * width).items():
        assert value == (pattern & mask) * (pattern >> width)


def test_unordered_ascii_is_sorted_topologically(tmp_path):
    text = ripple_adder(3)
    lines = text.splitlines()
    header, body = lines[:1 + 6 + 4], lines[1 + 6 + 4:]
    shuffled = "\n".join(header + body[::-1]) + "\n"
    a = load(tmp_path, "a.aag", text)
    b = load(tmp_path, "b.aag", shuffled)
    assert oracle.settle(a, b).verdict == "equivalent"


def test_mutant_is_nonequivalent_and_its_witness_replays(tmp_path):
    width = 4
    good = load(tmp_path, "g.aag", array_multiplier(width))
    bad = load(tmp_path, "b.aag", array_multiplier(width, flip=7))
    mask = (1 << width) - 1
    wrong = [
        p for p, v in outputs_as_ints(bad, 1 << 2 * width).items()
        if v != (p & mask) * (p >> width)
    ]
    assert wrong, "the flip must change the function"
    result = oracle.settle(good, bad)
    assert result.verdict == "nonequivalent"
    assert result.method == "exhaustive"
    assert oracle.replay(good, bad, result.witness)
    pattern = sum(bit << k for k, bit in enumerate(result.witness))
    assert pattern in wrong
    assert oracle.count_differences(good, bad) == len(wrong)


def test_replay_rejects_a_pattern_on_which_the_pair_agrees(tmp_path):
    good = load(tmp_path, "g.aag", array_multiplier(3))
    bad = load(tmp_path, "b.aag", array_multiplier(3, flip=7))
    mask = 0b111
    values = outputs_as_ints(bad, 64)
    agree = next(p for p, v in values.items() if v == (p & mask) * (p >> 3))
    assert not oracle.replay(good, bad, [(agree >> k) & 1 for k in range(6)])
    assert not oracle.replay(good, bad, [2] * 6)
    assert not oracle.replay(good, bad, [0] * 5)


def test_equivalent_structures_settle_equivalent(tmp_path):
    a = load(tmp_path, "a.aag", array_multiplier(4))
    b = load(tmp_path, "b.aag", array_multiplier(4))
    b.ands = list(reversed(b.ands))
    b = oracle._topological(b)
    assert oracle.settle(a, b).verdict == "equivalent"


def test_random_search_above_the_exhaustive_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(oracle, "EXHAUSTIVE_MAX_PIS", 4)
    good = load(tmp_path, "g.aag", array_multiplier(4))
    bad = load(tmp_path, "b.aag", array_multiplier(4, flip=7))
    result = oracle.settle(good, bad, seed=3, random_words=64)
    assert (result.verdict, result.method) == ("nonequivalent", "random")
    assert oracle.replay(good, bad, result.witness)
    same = oracle.settle(good, good, seed=3, random_words=64)
    assert (same.verdict, same.method) == ("equivalent", "random")


def test_frozen_multiplier_is_integer_multiplication():
    manifest = json.loads((BENCH / "inputs" / "manifest.json").read_text())
    entry = manifest["pairs"]["mult6"]
    circuit = oracle.read_aiger(BENCH / "inputs" / entry["a"])
    rng = random.Random(0)
    for _ in range(200):
        x, y = rng.randrange(64), rng.randrange(64)
        words = np.array(
            [[oracle.ALL_ONES if (x | y << 6) >> k & 1 else np.uint64(0)]
             for k in range(12)], dtype=np.uint64,
        )
        bits = oracle.evaluate(circuit, words)[:, 0] & np.uint64(1)
        assert sum(int(b) << k for k, b in enumerate(bits)) == x * y


@pytest.mark.parametrize(
    "name",
    sorted(json.loads(
        (BENCH / "inputs" / "manifest.json").read_text()
    )["pairs"]),
)
def test_frozen_verdicts_hold(name):
    inputs = BENCH / "inputs"
    entry = json.loads((inputs / "manifest.json").read_text())["pairs"][name]
    a = oracle.read_aiger(inputs / entry["a"])
    b = oracle.read_aiger(inputs / entry["b"])
    result = oracle.settle(a, b)
    assert result.verdict == entry["verdict"]
    if entry["mutant"]:
        assert oracle.count_differences(a, b) == entry["mutant"][
            "diff_patterns"
        ]
