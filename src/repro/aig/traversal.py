"""Topological utilities: cones, fanout sets and structural supports.

All functions here treat the AIG as read-only and return plain Python or
numpy containers.  The strict id ordering of :class:`~repro.aig.network.Aig`
(fanins smaller than the node) lets every bottom-up computation run as a
single forward sweep, and every top-down one as a single backward sweep.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.aig.network import Aig


def node_levels(aig: Aig) -> np.ndarray:
    """Return the per-node levels (alias of :meth:`Aig.levels`)."""
    return aig.levels()


def collect_cone(aig: Aig, roots: Iterable[int], stop: Iterable[int] = ()) -> List[int]:
    """Collect the transitive fanin cone of ``roots``.

    Returns the node ids of all AND nodes reachable from ``roots`` going
    backwards, stopping at (and excluding) the nodes in ``stop`` and at
    PIs/constant.  The result is sorted, i.e. in topological order.

    ``roots`` are node ids (not literals).  Root nodes themselves are
    included when they are AND nodes not in ``stop``.
    """
    stop_set = set(stop)
    f0l, f1l = aig.fanin_lists()
    first_and, num_nodes = aig.first_and, aig.num_nodes
    seen: Set[int] = set()
    stack = [r for r in roots if r not in stop_set]
    while stack:
        node = stack.pop()
        if (
            node in seen
            or node in stop_set
            or not first_and <= node < num_nodes
        ):
            continue
        seen.add(node)
        for fanin in (f0l[node] >> 1, f1l[node] >> 1):
            if fanin not in seen and fanin not in stop_set:
                stack.append(fanin)
    return sorted(seen)


def collect_tfo(aig: Aig, sources: Iterable[int]) -> Set[int]:
    """Return the set of nodes in the transitive fanout of ``sources``.

    The sources themselves are included.  Computed with one forward sweep
    using the topological id order.
    """
    in_tfo = np.zeros(aig.num_nodes, dtype=bool)
    for s in sources:
        in_tfo[s] = True
    f0s, f1s = aig.fanin_literals()
    base = aig.first_and
    for i in range(aig.num_ands):
        if in_tfo[f0s[i] >> 1] or in_tfo[f1s[i] >> 1]:
            in_tfo[base + i] = True
    return set(np.nonzero(in_tfo)[0].tolist())


def supports(aig: Aig) -> List[Tuple[int, ...]]:
    """Return the structural support of every node as a sorted PI-id tuple.

    Supports are computed bottom-up with interning, so shared cones share
    tuple objects.  The constant node has an empty support; a PI's support
    is itself.

    Note
    ----
    This is O(total support mass).  For very wide networks prefer
    :func:`support_sizes` when only cardinalities are needed, or
    :func:`support` for a single node.
    """
    interned: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    def intern(t: Tuple[int, ...]) -> Tuple[int, ...]:
        return interned.setdefault(t, t)

    result: List[Tuple[int, ...]] = [()]
    for pi in aig.pis():
        result.append(intern((pi,)))
    f0s, f1s = aig.fanin_literals()
    for i in range(aig.num_ands):
        s0 = result[f0s[i] >> 1]
        s1 = result[f1s[i] >> 1]
        if s0 is s1:
            result.append(s0)
        elif not s0:
            result.append(s1)
        elif not s1:
            result.append(s0)
        else:
            merged = tuple(sorted(set(s0) | set(s1)))
            result.append(intern(merged))
    return result


def support(aig: Aig, node: int) -> Tuple[int, ...]:
    """Return the structural support of a single node (sorted PI ids)."""
    seen: Set[int] = set()
    pis: Set[int] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        if aig.is_pi(n):
            pis.add(n)
        elif aig.is_and(n):
            f0, f1 = aig.fanins(n)
            stack.append(f0 >> 1)
            stack.append(f1 >> 1)
    return tuple(sorted(pis))


def support_sizes(aig: Aig, cap: int = 0) -> np.ndarray:
    """Return per-node structural support *sizes*.

    When ``cap`` is positive, supports are tracked exactly only up to
    ``cap`` elements; any node whose support exceeds the cap is reported
    as ``cap + 1``.  The sweeping engine only compares support sizes
    against thresholds (k_P, k_p, k_g), so capping keeps the computation
    cheap on wide networks without changing any decision.
    """
    sizes = np.zeros(aig.num_nodes, dtype=np.int64)
    sets: List[object] = [frozenset()]
    for pi in aig.pis():
        sets.append(frozenset((pi,)))
        sizes[pi] = 1
    overflow = object()
    f0s, f1s = aig.fanin_literals()
    base = aig.first_and
    for i in range(aig.num_ands):
        s0 = sets[f0s[i] >> 1]
        s1 = sets[f1s[i] >> 1]
        if s0 is overflow or s1 is overflow:
            merged: object = overflow
        elif s0 is s1:
            merged = s0
        else:
            union = s0 | s1  # type: ignore[operator]
            if cap and len(union) > cap:
                merged = overflow
            else:
                merged = union
        sets.append(merged)
        node = base + i
        if merged is overflow:
            sizes[node] = (cap + 1) if cap else -1
        else:
            sizes[node] = len(merged)  # type: ignore[arg-type]
    return sizes


def supports_capped(aig: Aig, cap: int):
    """Per-node structural supports, tracked only up to ``cap`` PIs.

    Returns a list indexed by node id whose entries are frozensets of PI
    ids, or ``None`` for nodes whose support exceeds ``cap``.  The global
    checking phase needs actual support *sets* (to take pair unions) but
    only for nodes under its threshold, which keeps this linear in the
    retained support mass.
    """
    sets: List[Optional[frozenset]] = [frozenset()]
    for pi in aig.pis():
        sets.append(frozenset((pi,)))
    f0s, f1s = aig.fanin_literals()
    for i in range(aig.num_ands):
        s0 = sets[f0s[i] >> 1]
        s1 = sets[f1s[i] >> 1]
        if s0 is None or s1 is None:
            sets.append(None)
            continue
        if s0 is s1 or s1 <= s0:
            sets.append(s0)
        elif s0 <= s1:
            sets.append(s1)
        else:
            union = s0 | s1
            sets.append(union if len(union) <= cap else None)
    return sets


def po_support_sizes(aig: Aig, cap: int = 0) -> List[int]:
    """Return the support size of every PO literal (capped like above)."""
    sizes = support_sizes(aig, cap=cap)
    return [int(sizes[p >> 1]) for p in aig.pos]


def level_batches(aig: Aig, nodes: Sequence[int]) -> List[np.ndarray]:
    """Group ``nodes`` (AND ids) into per-level batches, increasing level.

    This is the host-side scheduling step of level-wise parallel
    simulation: each returned array can be processed with one vectorised
    operation because no node depends on another node of the same level.
    """
    if len(nodes) == 0:
        return []
    arr = np.asarray(nodes, dtype=np.int64)
    levels = aig.levels()[arr]
    order = np.argsort(levels, kind="stable")
    arr = arr[order]
    levels = levels[order]
    boundaries = np.nonzero(np.diff(levels))[0] + 1
    return np.split(arr, boundaries)
