"""The per-chunk rowwise ``P``: the oracle for the production rowwise path.

This is the rowwise strategy as it ran before the memo round trip moved
to one per cluster: each chunk of candidates that survives transitive
skipping (the paper's §6.1.1 optimization (2)) makes its own counted
``memo.lookup`` and records its fresh verdicts with its own
``memo.record``.  :meth:`~repro.core.pairwise_fn.PairwiseComputation.
_apply_rowwise` must reproduce its clusters byte for byte (content and
leaf order), its ``pairs_compared`` and the memo's ``hits``, ``misses``,
``pairs`` and ``evictions``.
"""

from __future__ import annotations

import numpy as np

from repro.core.pairmemo import MATCH, NO_MATCH, UNKNOWN, pack_pair_keys
from repro.structures.parent_pointer_tree import ParentPointerForest


def reference_apply_rowwise(computation, rids, counters=None):
    """Rowwise ``P`` over ``rids`` with one memo round trip per chunk.

    Reads ``store``, ``rule``, the active memo and ``_ROW_CHUNK`` from
    ``computation`` (a :class:`~repro.core.pairwise_fn.
    PairwiseComputation`), so an instance-level chunk override applies
    to both paths.
    """
    rids = np.asarray(rids, dtype=np.int64)
    memo = computation._active_memo()
    store, rule = computation.store, computation.rule
    chunk = computation._ROW_CHUNK
    forest = ParentPointerForest()
    int_rids = rids.tolist()
    for rid in int_rids:
        forest.make_singleton(rid)
    compared = 0
    for j in range(1, len(int_rids)):
        rid_j = int_rids[j]
        rid_j_arr = np.asarray(rid_j, dtype=np.int64)
        for lo in range(0, j, chunk):
            hi = min(lo + chunk, j)
            root_j = forest.find_root(rid_j)
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
                        rule.match_one_to_many(store, rid_j, candidates[unknown]),
                        dtype=bool,
                    )
                    compared += int(unknown.size)
                    memo.record(keys[unknown], fresh)
                    verdicts[unknown] = np.where(fresh, MATCH, NO_MATCH)
                matches = verdicts == MATCH
            else:
                matches = rule.match_one_to_many(store, rid_j, candidates)
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
