"""Whole-network transforms: cleanup, node merging, ``double``, cones.

These are the structural operations the sweeping engine and the
experimental protocol need:

- :func:`cleanup` removes logic not reachable from the POs and re-hashes
  the rest (ABC ``cleanup`` + implicit strash);
- :func:`rebuild_with_replacements` applies a batch of "node → equivalent
  literal" merges, which is how proved equivalences reduce the miter;
- :func:`double` duplicates a network with fresh PIs/POs, reproducing the
  ABC ``double`` command the paper uses to enlarge benchmarks;
- :func:`cone_aig` extracts the fanin cone of selected POs as a standalone
  network.

The rebuild hot path is vectorised (:mod:`repro.aig.rebuild`): fanins are
remapped with numpy gathers and strashing runs over sorted fanin-pair
keys instead of a per-node Python loop.  The historical sequential
builder implementations live on in ``tests/reference_transforms.py``;
the randomized cross-check in ``tests/test_sweep_state.py`` asserts the
two paths produce bit-identical networks and maps.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.aig.builder import AigBuilder
from repro.aig.literals import lit, lit_var
from repro.aig.network import Aig
from repro.aig.rebuild import rebuild_network


def cleanup(aig: Aig, name: Optional[str] = None) -> Aig:
    """Return a copy without dangling logic, structurally hashed.

    Only AND nodes in the transitive fanin of some PO survive.  PIs are
    always kept (the interface of the network must not change).  Node ids
    are compacted but the relative order is preserved, so the result is
    still topologically sorted.
    """
    return rebuild_network(aig, None, name=name, prune="before").aig


def _map_as_dict(node_map: np.ndarray) -> Dict[int, int]:
    """Convert an array node map to the historical dict form."""
    kept = np.nonzero(node_map >= 0)[0]
    return dict(zip(kept.tolist(), node_map[kept].tolist()))


def relabel_compact(
    aig: Aig, name: Optional[str] = None
) -> Tuple[Aig, Dict[int, int]]:
    """Like :func:`cleanup` but also return the old-node → new-literal map.

    Nodes that were swept away do not appear in the map.
    """
    result = rebuild_network(aig, None, name=name, prune="before")
    return result.aig, _map_as_dict(result.node_map)


def rebuild_with_replacements(
    aig: Aig,
    replacements: Dict[int, int],
    name: Optional[str] = None,
) -> Tuple[Aig, Dict[int, int]]:
    """Merge equivalent nodes and rebuild the network.

    ``replacements`` maps a node id to the literal it is equivalent to
    (possibly complemented).  Chains (a → b, b → c) are resolved
    transitively; every chain must *end* at a live literal of a node
    with a strictly smaller id than the node it replaces — the sweeping
    engine guarantees this because class representatives have the
    minimum id of their class.  A chain that violates the invariant, or
    never terminates (a cycle), raises :class:`ValueError` naming the
    offending chain.

    Returns the reduced, cleaned-up network together with the old-node →
    new-literal map (missing entries were swept away).
    """
    result = rebuild_network(aig, replacements, name=name, prune="after")
    return result.aig, _map_as_dict(result.node_map)


def double(aig: Aig, times: int = 1) -> Aig:
    """Duplicate the network ``times`` times (ABC ``double``).

    Each application produces a network with two disjoint copies of the
    input: twice the PIs, twice the POs and twice the AND nodes.  This is
    the enlargement protocol used by the paper's experiments ("nxd" in
    benchmark names means n applications of ``double``).
    """
    result = aig
    for _ in range(times):
        builder = AigBuilder(2 * result.num_pis, name=result.name)
        maps = []
        for copy_idx in range(2):
            offset = copy_idx * result.num_pis
            leaf_map = {
                pi: lit(pi + offset) for pi in result.pis()
            }
            maps.append(builder.import_cone(result, leaf_map))
        for copy_idx in range(2):
            mapping = maps[copy_idx]
            for p in result.pos:
                builder.add_po(mapping[lit_var(p)] ^ (p & 1))
        result = builder.build(f"{aig.name}")
    return result


def cone_aig(
    aig: Aig, po_indices: Sequence[int], name: Optional[str] = None
) -> Aig:
    """Extract the fanin cone of the selected POs as a standalone network.

    The result keeps *all* PIs of the original network (so PI indices stay
    meaningful for counter-example replay) but contains only the AND logic
    feeding the selected POs.
    """
    selected = [aig.pos[i] for i in po_indices]
    trimmed = Aig(
        aig.num_pis,
        aig.fanin_literals()[0],
        aig.fanin_literals()[1],
        selected,
        name=name or f"{aig.name}_cone",
    )
    return cleanup(trimmed, name=name or f"{aig.name}_cone")


def compose_pipeline(transforms: Iterable, aig: Aig) -> Aig:
    """Apply a sequence of ``Aig -> Aig`` transforms left to right."""
    result = aig
    for transform in transforms:
        result = transform(result)
    return result
