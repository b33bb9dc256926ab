"""The pairwise computation function ``P`` (paper Definition 2).

``P`` computes record-pair distances inside one input set and outputs
the connected components of the match graph.  Two execution strategies
share the same semantics:

* ``rowwise`` — processes records one by one against all previous
  records, skipping candidates already transitively connected (the
  paper's optimization (2) in §6.1.1).  Best for the small-to-medium
  clusters Adaptive LSH hands to ``P``.
* ``blocked`` — vectorized block-matrix evaluation without skipping.
  Best for large sets (the Pairs baseline on whole datasets), where
  NumPy batch evaluation beats Python-level skipping.  When an
  :class:`~repro.parallel.pool.ExecutionPool` is attached (and the
  input clears its size threshold), the row-blocks are fanned across
  worker processes and their edge lists replayed in serial order, so
  the parallel result is bit-identical to the serial one.

Both strategies consult an optional
:class:`~repro.core.pairmemo.PairVerdictMemo`: the rowwise path skips
candidates whose verdict is already remembered, and the blocked path
masks memoized cells out of the matrix evaluations, merging the
remembered match edges back in exact ``np.nonzero`` enumeration order
— so cluster content and leaf order stay bit-identical to the
memo-off computation for every strategy and every ``n_jobs``.

The cost model always charges the conservative ``C(|S|, 2)`` pairs
(``pairs_charged``); ``pairs_compared`` records the evaluations the
chosen strategy actually performed — with a warm memo, re-verified
pairs cost (and count) nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..distance.rules import MatchRule
from ..errors import ConfigurationError
from ..obs.clock import monotonic
from ..parallel import worker as parallel_worker
from ..parallel.pool import ExecutionPool, resolve_n_jobs
from ..records import RecordStore
from ..structures.parent_pointer_tree import ParentPointerForest
from ..structures.union_find import ClusterUnionFind
from ..types import ArrayLike, IntArray
from .pairmemo import MATCH, NO_MATCH, UNKNOWN, PairVerdictMemo, pack_pair_keys
from .result import WorkCounters

if TYPE_CHECKING:
    from ..obs.observer import RunObserver

#: "auto" uses the rowwise strategy up to this set size and blocked
#: above it.  Measured crossover (``benchmarks/
#: bench_pairwise_crossover.py``, spotsigs-style shingle inputs, both
#: near-duplicate clusters and sparse random samples): rowwise wins by
#: about 2x at 8 records and below, ties at ~12, and falls behind
#: steadily beyond — its per-row Python overhead grows quadratically
#: while the vectorized block evaluation stays near-flat, so the limit
#: is biased low (misclassifying a small set costs a bounded ~0.3 ms;
#: misclassifying a large one costs quadratically).
ROWWISE_LIMIT = 12
#: Row-block height for the blocked strategy.
BLOCK = 512
#: Cross-block memo lookups/records run over column chunks of at most
#: this many cells, bounding the transient packed-key arrays to ~16 MiB
#: regardless of how many earlier rows a block faces.
_CROSS_CELL_CHUNK = 1 << 21

_EMPTY_I64 = np.zeros(0, dtype=np.int64)


def _vertex_cover(edge_i: IntArray, edge_j: IntArray, n: int) -> IntArray:
    """Greedy max-degree vertex cover of an edge list over ``n`` nodes.

    Every edge ends up with at least one endpoint in the returned
    (sorted) node set.  Used to decompose a block's unverified intra
    pairs into one all-pairs job over the cover plus one cover-vs-rest
    rectangle — a far smaller evaluation than re-running every row that
    merely *touches* an unverified pair.  Ties break on the lowest node
    index, so the cover is deterministic.
    """
    adj = np.zeros((n, n), dtype=bool)
    adj[edge_i, edge_j] = True
    adj[edge_j, edge_i] = True
    degree = adj.sum(axis=1).astype(np.int64)
    cover: list[int] = []
    while True:
        v = int(degree.argmax())
        if degree[v] == 0:
            break
        cover.append(v)
        degree -= adj[v]
        degree[v] = 0
        adj[v, :] = False
        adj[:, v] = False
    return np.asarray(sorted(cover), dtype=np.int64)


class _BlockPlan(NamedTuple):
    """Memo-mask metadata for one row-block of the blocked strategy.

    The unverified intra pairs are covered by one all-pairs job over
    ``pair_rows`` (a vertex cover of the unverified-pair graph — every
    block row when the whole triangle is unverified) plus one
    ``pair_rows`` × ``intra_rect_cols`` rectangle; the unverified
    block-vs-earlier cells are covered by the (row-disjoint) rectangles
    in ``cross_rects``.  Index arrays are sorted ascending, so mapping
    job-local edges through them preserves ``np.nonzero`` row-major
    order (rectangle edges are re-oriented and re-sorted at merge time
    anyway).
    """

    start: int
    stop: int
    #: Block-local rows evaluated all-pairs.
    pair_rows: IntArray
    #: Block-local rows evaluated against every ``pair_rows`` row.
    intra_rect_cols: IntArray
    #: Remembered intra match edges outside the re-evaluated region
    #: (block-local ``i < j``, row-major order).
    known_intra_i: IntArray
    known_intra_j: IntArray
    #: Row-disjoint rectangles covering the unverified block-vs-earlier
    #: cells: (block-local rows, earlier-local cols) each.
    cross_rects: list[tuple[IntArray, IntArray]]
    #: Remembered cross match edges outside those rectangles.
    known_cross_i: IntArray
    known_cross_j: IntArray

    @property
    def pairs_to_evaluate(self) -> int:
        p = int(self.pair_rows.size)
        total = p * (p - 1) // 2 + p * int(self.intra_rect_cols.size)
        for rows, cols in self.cross_rects:
            total += int(rows.size) * int(cols.size)
        return total


class PairwiseComputation:
    """Callable implementing function ``P`` over a record store."""

    def __init__(
        self,
        store: RecordStore,
        rule: MatchRule,
        strategy: str = "auto",
        n_jobs: int | None = None,
        pool: ExecutionPool | None = None,
        memo: PairVerdictMemo | None = None,
    ) -> None:
        if strategy not in ("auto", "rowwise", "blocked"):
            raise ConfigurationError(
                f"strategy must be auto|rowwise|blocked, got {strategy!r}"
            )
        self.store = store
        self.rule = rule
        self.strategy = strategy
        #: Optional :class:`~repro.obs.observer.RunObserver`; when set
        #: and enabled, :meth:`apply` feeds pair counters and per-call
        #: timing histograms into its metrics registry.
        self.observer: RunObserver | None = None
        #: Optional :class:`~repro.core.pairmemo.PairVerdictMemo`.  The
        #: owner is responsible for keeping it bound to ``(store,
        #: rule)``; :class:`~repro.core.adaptive.AdaptiveLSH` re-binds
        #: on every prepare/adopt.
        self.memo: PairVerdictMemo | None = memo
        #: Optional :class:`~repro.parallel.pool.ExecutionPool` used by
        #: the blocked strategy.  Either passed in (shared, e.g. by
        #: ``AdaptiveLSH``) or created here when ``n_jobs`` resolves to
        #: more than one worker; a pool created here is owned and shut
        #: down by :meth:`close`.
        self.pool: ExecutionPool | None = pool
        self._owns_pool = False
        if pool is None and resolve_n_jobs(n_jobs) > 1:
            self.pool = ExecutionPool(store, n_jobs)
            self._owns_pool = True

    def close(self) -> None:
        """Shut down the execution pool if this instance created it."""
        if self._owns_pool and self.pool is not None:
            self.pool.close()
            self.pool = None

    def choose_strategy(self, m: int) -> str:
        """The concrete strategy ``apply`` uses for an input of size ``m``."""
        if self.strategy != "auto":
            return self.strategy
        return "rowwise" if m <= ROWWISE_LIMIT else "blocked"

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
        strategy = self.choose_strategy(m)
        obs = self.observer
        timed = obs is not None and obs.enabled
        compared_before = 0
        started = 0.0
        if timed:
            compared_before = counters.pairs_compared if counters is not None else 0
            started = monotonic()
        if strategy == "rowwise":
            clusters = self._apply_rowwise(rids, counters)
        else:
            clusters = self._apply_blocked(rids, counters)
        if timed:
            assert obs is not None
            obs.histogram(f"pairwise.{strategy}_seconds").observe(
                monotonic() - started
            )
            obs.histogram("pairwise.cluster_size").observe(m)
            obs.counter("pairwise.pairs_charged").inc(m * (m - 1) // 2)
            if counters is not None:
                obs.counter("pairwise.pairs_compared").inc(
                    counters.pairs_compared - compared_before
                )
        return clusters

    # ------------------------------------------------------------------
    #: Candidate chunk width of the rowwise strategy; skipping is
    #: re-evaluated between chunks, so once a record joins a tree the
    #: rest of that tree's members cost nothing.
    _ROW_CHUNK = 16

    def _apply_rowwise(
        self, rids: IntArray, counters: WorkCounters | None
    ) -> list[IntArray]:
        memo = self._active_memo()
        forest = ParentPointerForest()
        int_rids: list[int] = rids.tolist()
        for rid in int_rids:
            forest.make_singleton(rid)
        compared = 0
        for j in range(1, len(int_rids)):
            rid_j = int_rids[j]
            rid_j_arr = np.asarray(rid_j, dtype=np.int64)
            for lo in range(0, j, self._ROW_CHUNK):
                hi = min(lo + self._ROW_CHUNK, j)
                root_j = forest.find_root(rid_j)
                # Optimization (2): candidates already transitively
                # connected to rid_j contribute no new edges.
                pending = [
                    i
                    for i in range(lo, hi)
                    if forest.find_root(int_rids[i]) is not root_j
                ]
                if not pending:
                    continue
                candidates = rids[pending]
                if memo is not None:
                    keys = pack_pair_keys(rid_j_arr, candidates)
                    verdicts = memo.lookup(keys)
                    unknown = np.nonzero(verdicts == UNKNOWN)[0]
                    if unknown.size:
                        fresh = np.asarray(
                            self.rule.match_one_to_many(
                                self.store, rid_j, candidates[unknown]
                            ),
                            dtype=bool,
                        )
                        compared += int(unknown.size)
                        memo.record(keys[unknown], fresh)
                        verdicts[unknown] = np.where(fresh, MATCH, NO_MATCH)
                    matches = verdicts == MATCH
                else:
                    matches = self.rule.match_one_to_many(
                        self.store, rid_j, candidates
                    )
                    compared += len(pending)
                for idx, hit in zip(pending, matches):
                    if hit:
                        forest.union_records(rid_j, int_rids[idx])
        if counters is not None:
            counters.pairs_compared += compared
        return [
            np.fromiter(
                ParentPointerForest.leaves(root), dtype=np.int64, count=root.n_leaves
            )
            for root in forest.roots()
        ]

    # ------------------------------------------------------------------
    # blocked strategy
    # ------------------------------------------------------------------
    def _apply_blocked(
        self, rids: IntArray, counters: WorkCounters | None
    ) -> list[IntArray]:
        memo = self._active_memo()
        if memo is not None:
            return self._apply_blocked_memo(rids, memo, counters)
        if self.pool is not None:
            bundles = self.pool.pairwise_block_edges(self.rule, rids, BLOCK)
            if bundles is not None:
                return self._replay_blocked(rids, bundles, counters)
        m = int(rids.size)
        merger = ClusterUnionFind(m)
        compared = 0
        for start in range(0, m, BLOCK):
            stop = min(start + BLOCK, m)
            block = rids[start:stop]
            # Within-block upper triangle.
            square = self.rule.pairwise_match(self.store, block)
            compared += (stop - start) * (stop - start - 1) // 2
            intra_i, intra_j = np.nonzero(np.triu(square, k=1))
            merger.union_edges(intra_i + start, intra_j + start)
            # Cross block: rows in this block vs all earlier records.
            if start:
                earlier = rids[:start]
                cross = self.rule.match_block(self.store, block, earlier)
                compared += (stop - start) * start
                cross_i, cross_j = np.nonzero(cross)
                merger.union_edges(cross_i + start, np.asarray(cross_j))
        if counters is not None:
            counters.pairs_compared += compared
        return [rids[members] for members in merger.clusters()]

    def _replay_blocked(
        self,
        rids: IntArray,
        bundles: list[tuple[int, IntArray, IntArray, IntArray, IntArray]],
        counters: WorkCounters | None,
    ) -> list[IntArray]:
        """Union worker-computed block edges in serial order.

        ``bundles`` arrives in ascending block order with each edge
        list in ``np.nonzero`` enumeration order — the exact union
        sequence of :meth:`_apply_blocked` — so the resulting clusters
        (content and leaf order) are bit-identical to the serial
        blocked strategy.
        """
        m = int(rids.size)
        merger = ClusterUnionFind(m)
        compared = 0
        for start, intra_i, intra_j, cross_i, cross_j in bundles:
            stop = min(start + BLOCK, m)
            compared += (stop - start) * (stop - start - 1) // 2
            merger.union_edges(intra_i + start, intra_j + start)
            if start:
                compared += (stop - start) * start
                merger.union_edges(cross_i + start, cross_j)
        if counters is not None:
            counters.pairs_compared += compared
        return [rids[members] for members in merger.clusters()]

    # ------------------------------------------------------------------
    # blocked strategy, memoized
    # ------------------------------------------------------------------
    def _apply_blocked_memo(
        self, rids: IntArray, memo: PairVerdictMemo, counters: WorkCounters | None
    ) -> list[IntArray]:
        """Blocked evaluation that masks remembered cells out of the
        matrix calls and merges remembered edges back in serial order.

        Three phases: *plan* every block against the memo (each pair of
        one ``apply`` input occurs in exactly one block cell, so plans
        are independent of this call's own recordings), *evaluate* the
        unverified jobs (in-process or fanned across the pool — both
        run :func:`~repro.parallel.worker.evaluate_block_jobs`), then
        *merge* remembered and fresh match edges per block by cell
        index, which reproduces the full-matrix ``np.nonzero``
        enumeration order exactly.
        """
        m = int(rids.size)
        plans = [
            self._plan_block(memo, rids, start, min(start + BLOCK, m))
            for start in range(0, m, BLOCK)
        ]
        jobs = [self._plan_jobs(plan, rids) for plan in plans]
        results: (
            list[tuple[IntArray, IntArray, list[tuple[IntArray, IntArray]]]]
            | None
        ) = None
        if self.pool is not None:
            results = self.pool.pairwise_job_edges(self.rule, jobs, m, BLOCK)
        if results is None:
            results = [
                parallel_worker.evaluate_block_jobs(
                    self.store, self.rule, pair_rids, rects
                )
                for pair_rids, rects in jobs
            ]
        merger = ClusterUnionFind(m)
        compared = 0
        for plan, (pair_i, pair_j, rect_edges) in zip(plans, results):
            compared += plan.pairs_to_evaluate
            self._finish_block(
                memo, rids, plan, pair_i, pair_j, rect_edges, merger
            )
        if counters is not None:
            counters.pairs_compared += compared
        return [rids[members] for members in merger.clusters()]

    @staticmethod
    def _plan_jobs(
        plan: _BlockPlan, rids: IntArray
    ) -> tuple[IntArray, list[tuple[IntArray, IntArray]]]:
        """Materialize one block plan's evaluation jobs as rid arrays.

        Rectangle order: the intra cover-vs-rest rectangle (if any)
        first, then the cross rectangles in plan order —
        :meth:`_finish_block` splits the results the same way.
        """
        block = rids[plan.start : plan.stop]
        rects: list[tuple[IntArray, IntArray]] = []
        if plan.intra_rect_cols.size:
            rects.append((block[plan.pair_rows], block[plan.intra_rect_cols]))
        earlier = rids[: plan.start]
        for rows, cols in plan.cross_rects:
            rects.append((block[rows], earlier[cols]))
        return block[plan.pair_rows], rects

    def _plan_block(
        self, memo: PairVerdictMemo, rids: IntArray, start: int, stop: int
    ) -> _BlockPlan:
        """Consult the memo for every cell of one row-block."""
        block = rids[start:stop]
        bs = stop - start
        # Intra-block upper triangle; triu_indices enumerates row-major,
        # matching np.nonzero(np.triu(...)).
        tri_i, tri_j = np.triu_indices(bs, k=1)
        verdicts = memo.lookup(pack_pair_keys(block[tri_i], block[tri_j]))
        unknown = verdicts == UNKNOWN
        known = verdicts == MATCH
        known_i = tri_i[known].astype(np.int64, copy=False)
        known_j = tri_j[known].astype(np.int64, copy=False)
        pair_rows = intra_rect_cols = _EMPTY_I64
        if unknown.all():
            # Cold block: one all-pairs job over every row — the exact
            # evaluation the memo-off path performs.
            pair_rows = np.arange(bs, dtype=np.int64)
        elif unknown.any():
            u_i = tri_i[unknown].astype(np.int64, copy=False)
            u_j = tri_j[unknown].astype(np.int64, copy=False)
            pair_rows = _vertex_cover(u_i, u_j, bs)
            in_cover = np.zeros(bs, dtype=bool)
            in_cover[pair_rows] = True
            # Unverified pairs with exactly one endpoint in the cover
            # are reached through the cover-vs-rest rectangle; collect
            # the outside endpoints.
            outside = np.where(in_cover[u_i], u_j, u_i)
            intra_rect_cols = np.unique(outside[~(in_cover[u_i] & in_cover[u_j])])
            # Pairs inside the re-evaluated region come back as fresh
            # edges; drop their remembered copies to keep the merged
            # stream duplicate-free.
            in_rect = np.zeros(bs, dtype=bool)
            in_rect[intra_rect_cols] = True
            covered = (in_cover[known_i] & (in_cover | in_rect)[known_j]) | (
                in_rect[known_i] & in_cover[known_j]
            )
            known_i, known_j = known_i[~covered], known_j[~covered]
        cross_rects: list[tuple[IntArray, IntArray]] = []
        known_ci = known_cj = _EMPTY_I64
        if start:
            earlier = rids[:start]
            cross_verdicts = np.empty((bs, start), dtype=np.uint8)
            chunk = max(1, _CROSS_CELL_CHUNK // bs)
            for col in range(0, start, chunk):
                hi = min(col + chunk, start)
                keys = pack_pair_keys(
                    block[:, None], earlier[None, col:hi]
                ).reshape(-1)
                cross_verdicts[:, col:hi] = memo.lookup(keys).reshape(bs, hi - col)
            cross_unknown = cross_verdicts == UNKNOWN
            cross_known = cross_verdicts == MATCH
            if cross_unknown.all():
                cross_rects.append(
                    (
                        np.arange(bs, dtype=np.int64),
                        np.arange(start, dtype=np.int64),
                    )
                )
            else:
                row_cnt = cross_unknown.sum(axis=1)
                # Split rows into mostly-unverified (evaluated against
                # their union of unverified columns, which for fresh
                # records is every column) and sparsely-unverified
                # (evaluated only against the few columns they miss).
                # Row-disjoint rectangles never overlap, so no cell is
                # evaluated or recorded twice.
                dense = row_cnt * 2 >= start
                for mask in (dense & (row_cnt > 0), ~dense & (row_cnt > 0)):
                    rows = np.nonzero(mask)[0].astype(np.int64, copy=False)
                    if rows.size:
                        cols = np.nonzero(cross_unknown[rows].any(axis=0))[
                            0
                        ].astype(np.int64, copy=False)
                        cross_rects.append((rows, cols))
                        cross_known[np.ix_(rows, cols)] = False
            raw_ci, raw_cj = np.nonzero(cross_known)
            known_ci = raw_ci.astype(np.int64, copy=False)
            known_cj = raw_cj.astype(np.int64, copy=False)
        return _BlockPlan(
            start,
            stop,
            pair_rows,
            intra_rect_cols,
            known_i,
            known_j,
            cross_rects,
            known_ci,
            known_cj,
        )

    @staticmethod
    def _record_rect(
        memo: PairVerdictMemo,
        row_rids: IntArray,
        col_rids: IntArray,
        edge_a: IntArray,
        edge_b: IntArray,
    ) -> None:
        """Record every cell of one evaluated rectangle into the memo.

        Runs over column chunks so the packed-key temporaries stay
        bounded regardless of rectangle width.
        """
        nr, nc = int(row_rids.size), int(col_rids.size)
        matched = np.zeros((nr, nc), dtype=bool)
        matched[edge_a, edge_b] = True
        chunk = max(1, _CROSS_CELL_CHUNK // nr)
        for col in range(0, nc, chunk):
            hi = min(col + chunk, nc)
            memo.record(
                pack_pair_keys(row_rids[:, None], col_rids[None, col:hi]).reshape(
                    -1
                ),
                matched[:, col:hi].reshape(-1),
            )

    def _finish_block(
        self,
        memo: PairVerdictMemo,
        rids: IntArray,
        plan: _BlockPlan,
        pair_i: IntArray,
        pair_j: IntArray,
        rect_edges: list[tuple[IntArray, IntArray]],
        merger: ClusterUnionFind,
    ) -> None:
        """Record fresh verdicts and union this block's match edges.

        Remembered and fresh edges are disjoint by plan construction
        (the cover job, the cover-vs-rest rectangle, and the cross
        rectangles evaluate pairwise-disjoint cell sets); sorting their
        union by row-major cell index reproduces the order a
        full-matrix ``np.nonzero`` would have enumerated.
        """
        block = rids[plan.start : plan.stop]
        bs = plan.stop - plan.start
        rects = iter(rect_edges)
        rows = plan.pair_rows
        fresh_parts_i = [plan.known_intra_i]
        fresh_parts_j = [plan.known_intra_j]
        if rows.size >= 2:
            s = int(rows.size)
            sub_tri_i, sub_tri_j = np.triu_indices(s, k=1)
            matched = np.zeros((s, s), dtype=bool)
            matched[pair_i, pair_j] = True
            sub_rids = block[rows]
            memo.record(
                pack_pair_keys(sub_rids[sub_tri_i], sub_rids[sub_tri_j]),
                matched[sub_tri_i, sub_tri_j],
            )
            fresh_parts_i.append(rows[pair_i])
            fresh_parts_j.append(rows[pair_j])
        if plan.intra_rect_cols.size:
            edge_a, edge_b = next(rects)
            self._record_rect(
                memo,
                block[rows],
                block[plan.intra_rect_cols],
                edge_a,
                edge_b,
            )
            # Rectangle cells are unordered block pairs; re-orient so
            # every edge is upper-triangle before the row-major sort.
            raw_i = rows[edge_a]
            raw_j = plan.intra_rect_cols[edge_b]
            fresh_parts_i.append(np.minimum(raw_i, raw_j))
            fresh_parts_j.append(np.maximum(raw_i, raw_j))
        intra_i = np.concatenate(fresh_parts_i)
        intra_j = np.concatenate(fresh_parts_j)
        order = np.argsort(intra_i * bs + intra_j, kind="stable")
        merger.union_edges(intra_i[order] + plan.start, intra_j[order] + plan.start)
        if not plan.start:
            return
        earlier = rids[: plan.start]
        cross_parts_i = [plan.known_cross_i]
        cross_parts_j = [plan.known_cross_j]
        for (rect_rows, rect_cols), (edge_a, edge_b) in zip(plan.cross_rects, rects):
            self._record_rect(
                memo, block[rect_rows], earlier[rect_cols], edge_a, edge_b
            )
            cross_parts_i.append(rect_rows[edge_a])
            cross_parts_j.append(rect_cols[edge_b])
        cross_i = np.concatenate(cross_parts_i)
        cross_j = np.concatenate(cross_parts_j)
        order = np.argsort(cross_i * plan.start + cross_j, kind="stable")
        merger.union_edges(cross_i[order] + plan.start, cross_j[order])
