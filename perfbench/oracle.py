"""Independent verdict oracle: an AIGER reader and a bit-parallel evaluator.

This module deliberately imports nothing from the program under test
(``repro``), so a verdict the program returns is checked against code
that shares none of its parsing, simulation or proving logic.  Only
NumPy and the standard library are used.

- :func:`read_aiger` parses combinational ASCII AIGER (``aag``) files
  into a :class:`Circuit`.
- :func:`evaluate` simulates a circuit on 64 patterns per ``uint64``
  word, one row of words per primary input.
- :func:`settle` decides the expected verdict of a pair: exhaustively
  when the PI count allows, otherwise by a seeded random search for a
  distinguishing pattern.
- :func:`replay` re-runs one counter-example on the two circuits (not on
  a miter) and says whether some output really differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Largest PI count settled by enumerating every input pattern.
EXHAUSTIVE_MAX_PIS = 26

#: The six low PI columns of an exhaustive block repeat inside each word.
_LOW_PI_WORDS = [
    np.uint64(0xAAAAAAAAAAAAAAAA),
    np.uint64(0xCCCCCCCCCCCCCCCC),
    np.uint64(0xF0F0F0F0F0F0F0F0),
    np.uint64(0xFF00FF00FF00FF00),
    np.uint64(0xFFFF0000FFFF0000),
    np.uint64(0xFFFFFFFF00000000),
]


@dataclass
class Circuit:
    """A combinational AIG as the AIGER format describes it.

    ``ands`` holds ``(lhs_var, rhs0_lit, rhs1_lit)`` triples in an order
    where every fanin is defined before its use; PI ``i`` is variable
    ``i + 1`` and variable 0 is constant false.
    """

    num_pis: int
    ands: List[Tuple[int, int, int]]
    pos: List[int]
    max_var: int

    @property
    def num_pos(self) -> int:
        return len(self.pos)


# ----------------------------------------------------------------------
# AIGER reader
# ----------------------------------------------------------------------


def read_aiger(path) -> Circuit:
    """Read a combinational ASCII AIGER (``aag``) file."""
    text = Path(path).read_text(encoding="ascii")
    end = text.find("\n")
    if end < 0:
        raise ValueError(f"{path}: no AIGER header line")
    header = text[:end].split()
    if len(header) < 6 or header[0] != "aag":
        raise ValueError(f"{path}: not an ASCII AIGER file")
    m, i, latches, o, a = (int(x) for x in header[1:6])
    if latches:
        raise ValueError(f"{path}: sequential AIGER is not supported")
    return _topological(_parse_ascii(text[end + 1:], m, i, o, a))


def _parse_ascii(body: str, m: int, i: int, o: int, a: int) -> Circuit:
    lines = body.split("\n")
    if len(lines) < i + o + a:
        raise ValueError("truncated ASCII AIGER body")
    for index in range(i):
        if int(lines[index]) != 2 * (index + 1):
            raise ValueError("PI literals must be 2, 4, 6, ... in order")
    pos = [int(lines[i + k]) for k in range(o)]
    ands = []
    for k in range(a):
        lhs, rhs0, rhs1 = (int(x) for x in lines[i + o + k].split())
        if lhs & 1 or lhs // 2 <= i:
            raise ValueError(f"bad AND output literal {lhs}")
        ands.append((lhs // 2, rhs0, rhs1))
    return Circuit(i, ands, pos, m)


def _topological(circuit: Circuit) -> Circuit:
    """Order AND gates so fanins come first (ASCII files may not be)."""
    if all(r0 >> 1 < v and r1 >> 1 < v for v, r0, r1 in circuit.ands):
        return circuit
    by_var = {v: (v, r0, r1) for v, r0, r1 in circuit.ands}
    done = set(range(circuit.num_pis + 1))
    order = []
    for root in by_var:
        stack = [root]
        while stack:
            var = stack[-1]
            if var in done:
                stack.pop()
                continue
            if var not in by_var:
                raise ValueError(f"undefined AIGER variable {var}")
            _, r0, r1 = by_var[var]
            pending = [x >> 1 for x in (r0, r1) if x >> 1 not in done]
            if pending:
                if any(p in stack for p in pending):
                    raise ValueError("combinational cycle in AIGER file")
                stack.extend(pending)
                continue
            done.add(var)
            order.append(by_var[var])
            stack.pop()
    return Circuit(circuit.num_pis, order, circuit.pos, circuit.max_var)


# ----------------------------------------------------------------------
# Bit-parallel evaluation
# ----------------------------------------------------------------------


def evaluate(circuit: Circuit, pi_words: np.ndarray) -> np.ndarray:
    """Output words of ``circuit`` for PI words of shape ``(num_pis, W)``.

    Bit ``j`` of word ``w`` in row ``k`` is PI ``k``'s value in pattern
    ``64 * w + j``; the result has one row per primary output.
    """
    pi_words = np.asarray(pi_words, dtype=np.uint64)
    if pi_words.ndim != 2 or pi_words.shape[0] != circuit.num_pis:
        raise ValueError("pi_words must have one row per primary input")
    width = pi_words.shape[1]
    values = np.empty((circuit.max_var + 1, width), dtype=np.uint64)
    values[0] = 0
    values[1:circuit.num_pis + 1] = pi_words
    negated = np.empty(width, dtype=np.uint64)
    for var, rhs0, rhs1 in circuit.ands:
        out = values[var]
        np.copyto(out, values[rhs0 >> 1])
        if rhs0 & 1:
            np.bitwise_not(out, out=out)
        if rhs1 & 1:
            np.bitwise_not(values[rhs1 >> 1], out=negated)
            np.bitwise_and(out, negated, out=out)
        else:
            np.bitwise_and(out, values[rhs1 >> 1], out=out)
    outputs = np.empty((circuit.num_pos, width), dtype=np.uint64)
    for k, literal in enumerate(circuit.pos):
        outputs[k] = values[literal >> 1]
        if literal & 1:
            np.bitwise_not(outputs[k], out=outputs[k])
    return outputs


def exhaustive_blocks(
    num_pis: int, block_words: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(first_pattern, pi_words)`` blocks covering all 2^n patterns.

    Pattern ``p`` assigns PI ``k`` the bit ``(p >> k) & 1``; patterns
    past 2^n in the last (or only) word are copies and harmless.
    """
    total_words = max(1, (1 << num_pis) // 64)
    block_words = max(1, min(block_words, total_words))
    for first_word in range(0, total_words, block_words):
        width = min(block_words, total_words - first_word)
        words = np.empty((num_pis, width), dtype=np.uint64)
        word_index = np.arange(first_word, first_word + width, dtype=np.uint64)
        for k in range(num_pis):
            if k < 6:
                words[k] = _LOW_PI_WORDS[k]
            else:
                bit = (word_index >> np.uint64(k - 6)) & np.uint64(1)
                words[k] = np.where(bit == 1, ALL_ONES, np.uint64(0))
        yield first_word * 64, words


def pattern_bits(pi_words: np.ndarray, pattern: int) -> List[int]:
    """The PI values of pattern number ``pattern`` within a word block."""
    word, bit = divmod(pattern, 64)
    return [int((row[word] >> np.uint64(bit)) & np.uint64(1)) for row in pi_words]


def _first_difference(diff: np.ndarray) -> Optional[int]:
    """Index of the first set bit across the OR of the rows, if any."""
    merged = np.bitwise_or.reduce(diff, axis=0)
    nonzero = np.flatnonzero(merged)
    if nonzero.size == 0:
        return None
    word = int(nonzero[0])
    value = int(merged[word])
    return word * 64 + ((value & -value).bit_length() - 1)


def count_differences(
    a: Circuit, b: Circuit, block_words: int = 4096
) -> int:
    """Number of input patterns on which ``a`` and ``b`` differ (exhaustive)."""
    _check_interfaces(a, b)
    total = 0
    limit = 1 << a.num_pis
    for first, words in exhaustive_blocks(a.num_pis, block_words):
        diff = np.bitwise_or.reduce(
            evaluate(a, words) ^ evaluate(b, words), axis=0
        )
        if limit < 64:
            diff &= np.uint64((1 << limit) - 1)
        total += int(np.unpackbits(diff.view(np.uint8)).sum())
    return total


@dataclass
class Settlement:
    """An expected verdict and how it was reached."""

    verdict: str  # "equivalent" or "nonequivalent"
    method: str  # "exhaustive" or "random"
    witness: Optional[List[int]] = None


def settle(
    a: Circuit,
    b: Circuit,
    seed: int = 0,
    random_words: int = 1 << 16,
    block_words: int = 4096,
) -> Settlement:
    """Decide the expected verdict of the pair ``(a, b)``.

    Up to :data:`EXHAUSTIVE_MAX_PIS` inputs every pattern is enumerated,
    so the verdict is exact.  Above that, ``random_words`` seeded random
    words are searched for a distinguishing pattern; finding none makes
    the expected verdict ``equivalent`` by method ``random``.
    """
    _check_interfaces(a, b)
    if a.num_pis <= EXHAUSTIVE_MAX_PIS:
        for first, words in exhaustive_blocks(a.num_pis, block_words):
            index = _first_difference(evaluate(a, words) ^ evaluate(b, words))
            if index is not None and first + index < (1 << a.num_pis):
                return Settlement(
                    "nonequivalent", "exhaustive", pattern_bits(words, index)
                )
        return Settlement("equivalent", "exhaustive")
    rng = np.random.default_rng(seed)
    done = 0
    while done < random_words:
        width = min(block_words, random_words - done)
        words = rng.integers(
            0, 1 << 64, size=(a.num_pis, width), dtype=np.uint64,
            endpoint=False,
        )
        index = _first_difference(evaluate(a, words) ^ evaluate(b, words))
        if index is not None:
            return Settlement(
                "nonequivalent", "random", pattern_bits(words, index)
            )
        done += width
    return Settlement("equivalent", "random")


def replay(a: Circuit, b: Circuit, pattern: Sequence[int]) -> bool:
    """True when ``pattern`` makes some output of ``a`` differ from ``b``."""
    _check_interfaces(a, b)
    if len(pattern) != a.num_pis or any(v not in (0, 1) for v in pattern):
        return False
    words = np.array(
        [[ALL_ONES if v else np.uint64(0)] for v in pattern],
        dtype=np.uint64,
    ).reshape(a.num_pis, 1)
    diff = evaluate(a, words) ^ evaluate(b, words)
    return bool(np.any(diff & np.uint64(1)))


def _check_interfaces(a: Circuit, b: Circuit) -> None:
    if a.num_pis != b.num_pis or a.num_pos != b.num_pos:
        raise ValueError(
            f"interfaces differ: {a.num_pis}/{a.num_pos} vs "
            f"{b.num_pis}/{b.num_pos} PIs/POs"
        )
