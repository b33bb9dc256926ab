"""Transitive hashing functions (paper Definition 1, Appendix B.2).

Applying a function on a set of records builds *fresh* hash tables
(so clusters from different invocations can never merge), inserts every
record into each table, unions records sharing a bucket, and outputs
one cluster per connected component.

The level's :class:`~repro.lsh.binindex.LevelBins` groups the tables in
doubling chunks (:func:`~repro.lsh.binindex.table_chunks`).  After each
chunk but the last, :func:`~repro.structures.union_find.component_labels`
contracts its collision edges into running component labels.  A table
can only merge components, so once the chunks seen so far join the
whole input into one component the remaining tables cannot change the
output: they are neither hashed nor grouped.  An input that splits runs
every table and leaves through one
:func:`~repro.structures.union_find.components` pass (members ascending,
clusters by smallest rid).  An input small enough for one chunk is
grouped in one pass.

Hash *values* are nevertheless reused across invocations and across
functions in the sequence, because they live in the shared
:class:`~repro.lsh.families.SignaturePool` objects referenced by the
function's scheme (Property 4 — incremental computation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..lsh.binindex import table_chunks
from ..lsh.design import SchemeDesign
from ..lsh.scheme import HashingScheme
from ..structures.union_find import component_labels, components
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
        same-bucket graph across all tables), grouping the tables chunk
        by chunk until the input is one component or every table ran.

        ``counters.table_inserts`` counts the (record, table) entries
        actually grouped, so it falls when the early exit skips tables.
        """
        rids = np.asarray(rids, dtype=np.int64)
        m = int(rids.size)
        n_tables = self.scheme.table_count
        # Row position -> smallest row of its component so far; None
        # until a chunk before the last one has been contracted.
        labels: IntArray | None = None
        grouped = 0
        for t0, t1 in table_chunks(m, n_tables):
            heads, members = self.bin_index.edges(self.scheme, rids, t0, t1)
            grouped = t1
            if labels is not None:
                heads, members = labels[heads], labels[members]
                cross = heads != members
                heads, members = heads[cross], members[cross]
            if t1 == n_tables:
                break
            merged = component_labels(m, heads, members)
            labels = merged if labels is None else merged[labels]
            if not labels.any():
                break
        self.bin_index.owner.record_skip(n_tables - grouped, m)
        if counters is not None:
            counters.table_inserts += m * grouped
        if grouped < n_tables:
            return [np.sort(rids)]
        if labels is not None:
            # Each row joins its contracted root, then the last chunk's
            # edges join the roots.
            rows = np.flatnonzero(labels != np.arange(m))
            heads = np.concatenate([rows, heads])
            members = np.concatenate([labels[rows], members])
        return components(rids, heads, members)
