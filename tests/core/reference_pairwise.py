"""The reference ``P``: a row loop over a parent-pointer forest.

Each record is compared with every earlier record of the input, one
row at a time: a counted ``memo.lookup`` of the row's pairs,
``match_one_to_many`` on the pairs the memo does not know, a
``memo.record`` of their fresh verdicts and one forest union per match.
:meth:`~repro.core.pairwise_fn.PairwiseComputation.apply` evaluates the
same pairs in one vectorised pass and must reproduce this partition (in
the canonical order: members ascending, clusters by smallest rid), its
``pairs_compared`` and the memo's ``hits``, ``misses``, ``pairs`` and
``evictions``.
"""

from __future__ import annotations

import numpy as np

from repro.core.pairmemo import MATCH, NO_MATCH, UNKNOWN, pack_pair_keys
from tests.structures.parent_pointer_tree import ParentPointerForest


def reference_apply(computation, rids, counters=None):
    """``P`` over ``rids`` as a per-row loop; reads ``store``, ``rule``
    and the active memo from ``computation`` (a
    :class:`~repro.core.pairwise_fn.PairwiseComputation`)."""
    rids = np.asarray(rids, dtype=np.int64)
    memo = computation._active_memo()
    store, rule = computation.store, computation.rule
    forest = ParentPointerForest()
    int_rids = rids.tolist()
    for rid in int_rids:
        forest.make_singleton(rid)
    compared = 0
    for j in range(1, len(int_rids)):
        rid_j = int_rids[j]
        candidates = rids[:j]
        if memo is not None:
            keys = pack_pair_keys(np.int64(rid_j), candidates)
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
            compared += j
        for i in np.flatnonzero(matches).tolist():
            forest.union_records(rid_j, int_rids[i])
    if counters is not None:
        counters.pairs_charged += len(int_rids) * (len(int_rids) - 1) // 2
        counters.pairs_compared += compared
    return forest.canonical_clusters()
