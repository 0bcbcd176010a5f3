"""Sequential-builder references for the vectorised rebuild transforms.

:func:`relabel_compact_reference` and
:func:`rebuild_with_replacements_reference` rebuild a network node by
node through :class:`~repro.aig.builder.AigBuilder`, the way
:mod:`repro.aig.transform` did before the vectorised
:mod:`repro.aig.rebuild` path.  ``tests/test_sweep_state.py`` uses them
as independent oracles: the library's ``relabel_compact`` and
``rebuild_with_replacements`` must produce bit-identical networks and
maps.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.aig.builder import AigBuilder
from repro.aig.literals import CONST0, lit, lit_var
from repro.aig.network import Aig
from repro.aig.rebuild import reachable_and_mask


def relabel_compact_reference(
    aig: Aig, name: Optional[str] = None
) -> Tuple[Aig, Dict[int, int]]:
    """Sequential-builder implementation of
    :func:`~repro.aig.transform.relabel_compact`.

    The independent oracle of the randomized cross-checks.
    """
    builder = AigBuilder(aig.num_pis, name=name or aig.name)
    reachable = _reachable_from_pos(aig)
    new_lit: Dict[int, int] = {0: CONST0}
    for pi in aig.pis():
        new_lit[pi] = lit(pi)
    f0s, f1s = aig.fanin_literals()
    base = aig.first_and
    for i in range(aig.num_ands):
        node = base + i
        if not reachable[node]:
            continue
        a = new_lit[int(f0s[i]) >> 1] ^ (int(f0s[i]) & 1)
        b = new_lit[int(f1s[i]) >> 1] ^ (int(f1s[i]) & 1)
        new_lit[node] = builder.add_and(a, b)
    for p in aig.pos:
        builder.add_po(new_lit[lit_var(p)] ^ (p & 1))
    return builder.build(), new_lit


def rebuild_with_replacements_reference(
    aig: Aig,
    replacements: Dict[int, int],
    name: Optional[str] = None,
) -> Tuple[Aig, Dict[int, int]]:
    """Sequential-builder implementation of
    :func:`~repro.aig.transform.rebuild_with_replacements`.

    The independent oracle of the randomized cross-checks.
    """
    for node, target in replacements.items():
        if lit_var(target) >= node:
            raise ValueError(
                f"replacement target {target} of node {node} must have a smaller id"
            )
    builder = AigBuilder(aig.num_pis, name=name or aig.name)
    new_lit: Dict[int, int] = {0: CONST0}
    for pi in aig.pis():
        if pi in replacements:
            # A PI can only be replaced by the constant or an earlier PI.
            target = replacements[pi]
            new_lit[pi] = new_lit[lit_var(target)] ^ (target & 1)
        else:
            new_lit[pi] = lit(pi)
    f0s, f1s = aig.fanin_literals()
    base = aig.first_and
    for i in range(aig.num_ands):
        node = base + i
        target = replacements.get(node)
        if target is not None:
            new_lit[node] = new_lit[lit_var(target)] ^ (target & 1)
        else:
            a = new_lit[int(f0s[i]) >> 1] ^ (int(f0s[i]) & 1)
            b = new_lit[int(f1s[i]) >> 1] ^ (int(f1s[i]) & 1)
            new_lit[node] = builder.add_and(a, b)
    for p in aig.pos:
        builder.add_po(new_lit[lit_var(p)] ^ (p & 1))
    reduced = builder.build()
    cleaned, compact_map = relabel_compact_reference(
        reduced, name=name or aig.name
    )
    final_map = {
        node: compact_map[lit_var(l)] ^ (l & 1)
        for node, l in new_lit.items()
        if lit_var(l) in compact_map
    }
    return cleaned, final_map


def _reachable_from_pos(aig: Aig) -> np.ndarray:
    """Bool mask over node ids; only POs-reachable AND nodes are True."""
    f0, f1 = aig.fanin_literals()
    roots = np.asarray(aig.pos, dtype=np.int64) >> 1
    return reachable_and_mask(aig.num_nodes, aig.first_and, f0 >> 1, f1 >> 1, roots)
