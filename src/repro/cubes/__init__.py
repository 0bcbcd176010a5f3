"""Cube-and-conquer CEC: ``cec --engine cube``.

Some miter POs are deep enough that their monolithic SAT query is hard
for the interpreted CDCL solver.  This package attacks those queries
with the classic cube-and-conquer move — cofactor the cone on a few
high-influence PIs, producing 2^k smaller, mutually disjoint and
jointly exhaustive sub-problems, and race them:

- :mod:`repro.cubes.split` — choosing split PIs, enumerating cubes and
  building the cofactored networks (pure structural work, fully tested
  by an exhaustiveness/disjointness property test);
- :mod:`repro.cubes.runner` — the distributed race: cube jobs fan out
  across warm :class:`~repro.exec.runtime.ExecRuntime` workers as
  siblings of the monolithic query; once a sibling is conclusive
  (any-SAT, or UNSAT of the monolith, or UNSAT of *all* cubes) the
  queued rest are dropped and the running ones stopped;
- :mod:`repro.cubes.lane` — :func:`prove_pos_with_cubes`, the PO proof
  that races every non-constant PO and hands what stays open to the
  batched SAT backstop;
- :mod:`repro.cubes.checker` — :class:`CubeChecker`, the ``--engine
  cube`` baseline that runs that proof on the raw miter, without any
  sweeping front end.  It is the one entry point to the race.

Soundness rests on one invariant, proved in ``tests/test_cubes.py``:
the cubes over any split-PI set are pairwise disjoint and exhaustive,
so "every cube UNSAT" is exactly equivalent to "the query is UNSAT",
and any single SAT cube yields a genuine counter-example after the
cube's assignments are patched back into the model.
"""

from repro.cubes.checker import CubeChecker
from repro.cubes.lane import prove_pos_with_cubes
from repro.cubes.runner import CubeOutcome, CubeRunner, run_cube_job
from repro.cubes.split import (
    Cube,
    choose_split_pis,
    cofactor,
    enumerate_cubes,
    patch_pattern,
)

__all__ = [
    "Cube",
    "CubeChecker",
    "CubeOutcome",
    "CubeRunner",
    "choose_split_pis",
    "cofactor",
    "enumerate_cubes",
    "patch_pattern",
    "prove_pos_with_cubes",
    "run_cube_job",
]
