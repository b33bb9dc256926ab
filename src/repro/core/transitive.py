"""Transitive hashing functions (paper Definition 1, Appendix B.2).

Applying a function on a set of records builds *fresh* hash tables
(so clusters from different invocations can never merge), inserts every
record into each table, unions records sharing a bucket, and outputs
one cluster per connected component.

The tables are never built one at a time: the level's
:class:`~repro.lsh.binindex.LevelBins` groups every table at once from
key fingerprints, and one :func:`~repro.structures.union_find.components`
pass turns the collision edges into clusters (members ascending,
clusters by smallest rid).

Hash *values* are nevertheless reused across invocations and across
functions in the sequence, because they live in the shared
:class:`~repro.lsh.families.SignaturePool` objects referenced by the
function's scheme (Property 4 — incremental computation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..lsh.design import SchemeDesign
from ..lsh.scheme import HashingScheme
from ..structures.union_find import components
from ..types import ArrayLike, IntArray
from .result import WorkCounters

if TYPE_CHECKING:
    from ..lsh.binindex import LevelBins


class TransitiveHashingFunction:
    """One function ``H_i`` of the sequence, grouping through ``bins``
    (the :class:`~repro.lsh.binindex.LevelBins` of its level)."""

    def __init__(self, level: int, design: SchemeDesign, bins: LevelBins) -> None:
        self.level = level
        self.design = design
        self.scheme: HashingScheme = design.to_scheme()
        self.bin_index = bins

    @property
    def budget(self) -> int:
        """Hash functions this scheme applies per (fresh) record."""
        return self.design.spent_budget

    def apply(
        self, rids: ArrayLike, counters: WorkCounters | None = None
    ) -> list[IntArray]:
        """Split ``rids`` into clusters (connected components of the
        same-bucket graph across all tables): one components pass over
        the level's collision edges."""
        rids = np.asarray(rids, dtype=np.int64)
        heads, members = self.bin_index.edges(self.scheme, rids)
        if counters is not None:
            counters.table_inserts += int(rids.size) * self.scheme.table_count
        return components(rids, heads, members)
