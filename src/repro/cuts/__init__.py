"""Priority-cut generation for local function checking (§III-C).

- :mod:`repro.cuts.cut` — cut representation: sorted tuples at the API
  boundary, leaf-rank bitmasks inside enumeration;
- :mod:`repro.cuts.selection` — the Table I criteria passes and the
  similarity metric used for non-representative nodes;
- :mod:`repro.cuts.enumeration` — cut enumeration (Eq. 1) with priority
  cut selection, scheduled by enumeration levels (Eq. 2);
- :mod:`repro.cuts.common` — common cuts of candidate pairs and the
  bounded common-cut buffer of Algorithm 2.
"""

from repro.cuts.cut import Cut
from repro.cuts.selection import (
    PASS_CRITERIA,
    CutSelector,
    similarity,
)
from repro.cuts.enumeration import CutEnumerator, enumeration_levels
from repro.cuts.common import CommonCutBuffer, common_cuts

__all__ = [
    "PASS_CRITERIA",
    "CommonCutBuffer",
    "Cut",
    "CutEnumerator",
    "CutSelector",
    "common_cuts",
    "enumeration_levels",
    "similarity",
]
