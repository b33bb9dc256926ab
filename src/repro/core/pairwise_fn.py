"""The pairwise computation function ``P`` (paper Definition 2).

``P`` computes record-pair distances inside one input set and outputs
the connected components of the match graph.  The match rules are not
transitive, so every pair whose verdict is unknown must be evaluated;
``P`` evaluates them in one vectorised call per row chunk instead of
one call per record:

1. the input's ``C(m, 2)`` pairs are looked up in the optional
   :class:`~repro.core.pairmemo.PairVerdictMemo` once, in row chunks of
   at most :data:`_CROSS_CELL_CHUNK` cells;
2. a chunk whose pairs are all unknown is evaluated as a matrix
   (``pairwise_match`` for a whole input, ``match_block`` for a chunk of
   a large one); any other chunk evaluates only its unknown pairs with
   ``match_pairs``;
3. the fresh verdicts are recorded in the memo;
4. one :func:`~repro.structures.union_find.components` pass turns the
   match edges into clusters: members ascending, clusters by smallest
   rid.

Without a memo every verdict reads as unknown.  The cost model always
charges the conservative ``C(|S|, 2)`` pairs (``pairs_charged``);
``pairs_compared`` counts exactly the unknown pairs evaluated — with a
warm memo, re-verified pairs cost (and count) nothing.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from ..distance.rules import MatchRule
from ..obs.clock import monotonic
from ..records import RecordStore
from ..structures.union_find import components
from ..types import ArrayLike, IntArray
from .pairmemo import MATCH, UNKNOWN, PairVerdictMemo, pack_pair_keys
from .result import WorkCounters

if TYPE_CHECKING:
    from ..obs.observer import RunObserver

#: Row chunks hold at most this many cells, bounding the transient
#: distance matrix and packed-key arrays to ~16 MiB each however large
#: the input.
_CROSS_CELL_CHUNK = 1 << 21
#: Triangles up to this many records are cached; larger inputs are rare
#: and would pin megabytes per cache entry.
_CACHED_TRIANGLE = 256


@functools.lru_cache(maxsize=64)
def _triangle(m: int) -> tuple[IntArray, IntArray]:
    """Row-major ``(i, j)`` indices of the ``i < j`` pairs of ``m``
    records (cached: small inputs come in a handful of sizes)."""
    tri_i, tri_j = np.triu_indices(m, k=1)
    tri_i.flags.writeable = tri_j.flags.writeable = False
    return tri_i, tri_j


def _chunk_cells(rows: int, cols: int) -> tuple[IntArray, IntArray]:
    """Cells ``(r, c)``, ``r < c``, of a ``rows`` x ``cols`` chunk whose
    row ``r`` and column ``r`` are the same record."""
    if rows == cols and rows <= _CACHED_TRIANGLE:
        return _triangle(rows)
    cell_r, cell_c = np.nonzero(
        np.arange(cols)[None, :] > np.arange(rows)[:, None]
    )
    return cell_r, cell_c


class PairwiseComputation:
    """Callable implementing function ``P`` over a record store."""

    def __init__(
        self,
        store: RecordStore,
        rule: MatchRule,
        memo: PairVerdictMemo | None = None,
    ) -> None:
        self.store = store
        self.rule = rule
        #: Optional :class:`~repro.obs.observer.RunObserver`; when set
        #: and enabled, :meth:`apply` feeds pair counters and per-call
        #: timing histograms into its metrics registry.
        self.observer: RunObserver | None = None
        #: Optional :class:`~repro.core.pairmemo.PairVerdictMemo`.  The
        #: owner is responsible for keeping it bound to ``(store,
        #: rule)``; :class:`~repro.core.adaptive.AdaptiveLSH` re-binds
        #: on every prepare/adopt.
        self.memo: PairVerdictMemo | None = memo

    def _active_memo(self) -> PairVerdictMemo | None:
        memo = self.memo
        if memo is None or memo.disabled:
            return None
        return memo

    # ------------------------------------------------------------------
    def apply(
        self, rids: ArrayLike, counters: WorkCounters | None = None
    ) -> list[IntArray]:
        """Split ``rids`` into clusters of matching records."""
        rids = np.asarray(rids, dtype=np.int64)
        m = int(rids.size)
        if counters is not None:
            counters.pairs_charged += m * (m - 1) // 2
        if m <= 1:
            return [rids.copy()] if m else []
        obs = self.observer
        timed = obs is not None and obs.enabled
        started = monotonic() if timed else 0.0
        edge_i, edge_j, compared = self._match_edges(rids)
        clusters = components(rids, edge_i, edge_j)
        if counters is not None:
            counters.pairs_compared += compared
        if timed:
            assert obs is not None
            obs.histogram("pairwise.seconds").observe(monotonic() - started)
            obs.histogram("pairwise.cluster_size").observe(m)
            obs.counter("pairwise.pairs_charged").inc(m * (m - 1) // 2)
            obs.counter("pairwise.pairs_compared").inc(compared)
        return clusters

    def _match_edges(self, rids: IntArray) -> tuple[IntArray, IntArray, int]:
        """Match edges ``(i, j)``, ``i < j``, between positions of
        ``rids``, plus the number of pairs evaluated fresh.

        Rows go in chunks of at most :data:`_CROSS_CELL_CHUNK` cells;
        chunk row ``r`` pairs with every later record.
        """
        memo = self._active_memo()
        m = int(rids.size)
        step = max(1, _CROSS_CELL_CHUNK // m)
        parts_i: list[IntArray] = []
        parts_j: list[IntArray] = []
        compared = 0
        for lo in range(0, m - 1, step):
            block = rids[lo : lo + step]
            later = rids[lo:]
            cell_r, cell_c = _chunk_cells(int(block.size), int(later.size))
            if memo is None:
                verdicts = np.zeros(0, dtype=np.uint8)
            else:
                left, right = block[cell_r], later[cell_c]
                keys = pack_pair_keys(left, right)
                verdicts = memo.lookup(keys)
            if not verdicts.any():
                # Every pair is unknown: one matrix evaluation.
                if block.size == later.size:
                    square = self.rule.pairwise_match(self.store, block)
                else:
                    square = self.rule.match_block(self.store, block, later)
                matched = square[cell_r, cell_c]
                compared += int(matched.size)
                if memo is not None:
                    memo.record(keys, matched)
            else:
                assert memo is not None
                matched = verdicts == MATCH
                unknown = np.flatnonzero(verdicts == UNKNOWN)
                if unknown.size:
                    fresh = self.rule.match_pairs(
                        self.store, left[unknown], right[unknown]
                    )
                    matched[unknown] = fresh
                    compared += int(unknown.size)
                    memo.record(keys[unknown], fresh)
            hit = np.flatnonzero(matched)
            parts_i.append(cell_r[hit] + lo)
            parts_j.append(cell_c[hit] + lo)
        return np.concatenate(parts_i), np.concatenate(parts_j), compared
