"""Cut representation.

A cut of a node ``n`` is a set of nodes such that every path from a PI to
``n`` passes through the set (§II-A).  At the API boundary (priority cuts,
common cuts, windows) a cut is a sorted tuple of node ids: hashable,
ordered (truth-table variable order is increasing node id, §III-B1).

Inside enumeration and selection a cut is a *leaf-rank mask*: the
distinct leaves in play at one node are sorted by node id into a
ranking, leaf ``i`` of the ranking is bit ``i``, and a cut is the
integer with its leaves' bits set.  Union is ``|``, intersection ``&``
and size a popcount, and the masks are only as wide as the leaves in
play at that node, never as wide as the largest node id.  Because ranks
follow node ids, comparing two masks compares the cuts' leaves from the
largest id down, the order of ``cut[::-1]``.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, List, Tuple

#: A cut: sorted tuple of node ids.
Cut = Tuple[int, ...]

#: ``_BITS[i] == 1 << i``, enough for the leaves in play at one node
#: under the paper's parameters (at most ``2 * (C + 1) * k_l``); a
#: longer ranking builds its own.
_BITS: List[int] = [1 << i for i in range(256)]

#: Turns the ``0``/``1`` digits of ``bin(mask)`` into 0/1 bytes.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def rank_leaves(leaves: Iterable[int]) -> Tuple[List[int], Dict[int, int]]:
    """Rank distinct leaves by node id: ``(ranking, bit of each leaf)``."""
    ranking = sorted(leaves)
    bits = _BITS
    if len(ranking) > len(bits):
        bits = [1 << i for i in range(len(ranking))]
    return ranking, dict(zip(ranking, bits))


def cut_mask(cut: Cut, bit: Dict[int, int]) -> int:
    """Leaf-rank mask of a cut whose leaves are all ranked in ``bit``."""
    return sum(map(bit.__getitem__, cut))


def mask_leaves(mask: int, ranking: List[int]) -> Cut:
    """The sorted leaf tuple of a leaf-rank mask over ``ranking``."""
    digits = bin(mask)[:1:-1].encode().translate(_DIGITS)
    return tuple(compress(ranking, digits))
