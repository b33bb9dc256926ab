"""Transitive hashing functions (paper Definition 1, Appendix B.2).

Applying a function on a set of records builds *fresh* hash tables
(so clusters from different invocations can never merge), inserts every
record into each table, unions records sharing a bucket through the
parent-pointer forest, and outputs one cluster per connected component.

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
from ..structures.parent_pointer_tree import ParentPointerForest
from ..structures.union_find import ClusterUnionFind
from ..types import ArrayLike, IntArray
from .result import WorkCounters

if TYPE_CHECKING:
    from ..lsh.binindex import LevelBins
    from ..obs.observer import RunObserver


class TransitiveHashingFunction:
    """One function ``H_i`` of the sequence."""

    def __init__(self, level: int, design: SchemeDesign) -> None:
        self.level = level
        self.design = design
        self.scheme: HashingScheme = design.to_scheme()
        #: Optional :class:`~repro.lsh.binindex.LevelBins` — when set
        #: (by ``AdaptiveLSH``), the whole level is grouped at once from
        #: fingerprints and its distinct union edges run through one
        #: :class:`ClusterUnionFind` walk.  Both paths are bit-identical
        #: in content and cluster order.
        self.bin_index: LevelBins | None = None

    @property
    def budget(self) -> int:
        """Hash functions this scheme applies per (fresh) record."""
        return self.design.spent_budget

    def apply(
        self,
        rids: ArrayLike,
        counters: WorkCounters | None = None,
        observer: RunObserver | None = None,
    ) -> list[IntArray]:
        """Split ``rids`` into clusters (connected components of the
        same-bucket graph across all tables).

        ``observer`` (an enabled
        :class:`~repro.obs.observer.RunObserver`) is forwarded to the
        scheme so per-table grouping work lands in the run metrics.
        """
        rids = np.asarray(rids, dtype=np.int64)
        if self.bin_index is not None:
            return self._apply_binned(rids, counters)
        forest = ParentPointerForest()
        int_rids: list[int] = rids.tolist()
        for rid in int_rids:
            forest.make_singleton(rid)
        inserts = 0
        # Buckets are fresh per table, per invocation (App. B.2); the
        # scheme yields, for each table, the groups of rows that landed
        # in the same bucket, and group members get unioned.
        for collision_groups in self.scheme.iter_table_collisions(
            rids, observer=observer
        ):
            for rows in collision_groups:
                anchor = int_rids[int(rows[0])]
                for pos in rows[1:]:
                    forest.union_records(anchor, int_rids[int(pos)])
            inserts += len(int_rids)
        if counters is not None:
            counters.table_inserts += inserts
        return [
            np.fromiter(
                ParentPointerForest.leaves(root), dtype=np.int64, count=root.n_leaves
            )
            for root in forest.roots()
        ]

    def _apply_binned(
        self, rids: IntArray, counters: WorkCounters | None
    ) -> list[IntArray]:
        """Level-at-once fast path: one union pass over the level's
        distinct edges.

        The edges are the exact sequence the forest loop replays —
        ``(head, member)`` for every non-head member, table by table,
        group by group — minus repeats, which are union no-ops; and
        :class:`ClusterUnionFind` reproduces the forest's merge rule and
        cluster emission order, so the output arrays are byte-identical
        to the legacy path's.
        """
        assert self.bin_index is not None
        heads, members = self.bin_index.edges(self.scheme, rids)
        cuf = ClusterUnionFind(int(rids.size))
        cuf.union_edges(heads, members)
        if counters is not None:
            counters.table_inserts += int(rids.size) * self.scheme.table_count
        return [rids[part] for part in cuf.clusters()]
