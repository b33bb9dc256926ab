"""The one vectorised ``P`` reproduces the row-loop oracle
(``tests/core/reference_pairwise.py``) exactly: the partition in the
canonical order (members ascending, clusters by smallest rid),
``pairs_compared`` and the memo's ``hits``/``misses``/``pairs``/
``evictions``, with no memo, a cold memo, a memo seeded with any subset
of the input's verdicts, a frozen memo and a disabled memo, whether the
input fits one row chunk or spans many."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairmemo import PairVerdictMemo, pack_pair_keys
from repro.core import pairwise_fn
from repro.core.pairwise_fn import PairwiseComputation
from repro.core.result import WorkCounters
from repro.distance import CosineDistance, JaccardDistance, ThresholdRule
from tests.conftest import make_shingle_store, make_vector_store
from tests.core.reference_pairwise import reference_apply

# Planted clusters plus noise, so a random draw of up to 12 records
# mixes matches, non-matches and transitive links.
_VECTOR, _ = make_vector_store(cluster_sizes=(7, 5, 4), n_noise=8, seed=11)
_SHINGLES, _ = make_shingle_store(cluster_sizes=(7, 5, 4), n_noise=8, seed=12)
CASES = {
    "vector": (_VECTOR, ThresholdRule(CosineDistance("vec"), 0.08)),
    "shingles": (_SHINGLES, ThresholdRule(JaccardDistance("shingles"), 0.45)),
}
MEMO_MODES = ("none", "cold", "seeded", "frozen", "disabled")


def _memo(mode, store, rule, rids, seeded):
    """A fresh memo in ``mode``; ``seeded`` masks the cluster's
    unordered pairs whose true verdicts are remembered up front."""
    if mode == "none":
        return None
    if mode == "cold":
        seeded = np.zeros_like(seeded)
    # A frozen memo's budget holds exactly the initial table, so the
    # seeded verdicts land before the filler below freezes it.
    memo = PairVerdictMemo(max_bytes=4096 * 9 if mode == "frozen" else 64 << 20)
    memo.bind(store, rule)
    tri_i, tri_j = np.triu_indices(rids.size, k=1)
    a, b = rids[tri_i[seeded]], rids[tri_j[seeded]]
    memo.record(pack_pair_keys(a, b), rule.match_pairs(store, a, b))
    if mode == "frozen":
        # More pairs than the initial table holds under its load
        # ceiling: the budget forbids the growth, so the memo freezes
        # and drops them all.
        filler = np.arange(1 << 20, (1 << 20) + 3000, dtype=np.int64)
        memo.record(pack_pair_keys(filler, filler + 5000), np.ones(3000, bool))
        assert memo.frozen
    if mode == "disabled":
        memo.disabled = True
    return memo


def _memo_counts(memo):
    if memo is None:
        return None
    return memo.hits, memo.misses, memo.pairs, memo.evictions


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(CASES)),
    mode=st.sampled_from(MEMO_MODES),
    cells=st.sampled_from((1 << 21, 40, 7)),
    data=st.data(),
)
def test_one_p_matches_rowwise_reference(kind, mode, cells, data):
    store, rule = CASES[kind]
    picked = data.draw(
        st.lists(
            st.integers(0, len(store) - 1), min_size=2, max_size=24, unique=True
        ),
        label="rids",
    )
    rids = np.asarray(picked, dtype=np.int64)
    n_pairs = rids.size * (rids.size - 1) // 2
    seeded = np.asarray(
        data.draw(
            st.lists(st.booleans(), min_size=n_pairs, max_size=n_pairs),
            label="seeded",
        ),
        dtype=bool,
    )
    runs = []
    for apply in (reference_apply, PairwiseComputation.apply):
        memo = _memo(mode, store, rule, rids, seeded)
        computation = PairwiseComputation(store, rule, memo=memo)
        counters = WorkCounters()
        with pytest.MonkeyPatch.context() as patch:
            # Fewer cells per chunk split the input into row chunks.
            patch.setattr(pairwise_fn, "_CROSS_CELL_CHUNK", cells)
            clusters = apply(computation, rids.copy(), counters)
        runs.append(
            (clusters, counters.pairs_compared, counters.pairs_charged,
             _memo_counts(memo))
        )
    expected, actual = runs
    assert len(actual[0]) == len(expected[0])
    for want, got in zip(expected[0], actual[0]):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert actual[1:] == expected[1:]


def test_warm_memo_cluster_compares_nothing():
    """A cluster whose every pair is remembered makes no comparison and
    counts one hit per pair, exactly as the oracle."""
    store, rule = CASES["vector"]
    rids = np.arange(12, dtype=np.int64)
    seeded = np.ones(66, dtype=bool)
    memos = [_memo("seeded", store, rule, rids, seeded) for _ in range(2)]
    ref_counters, counters = WorkCounters(), WorkCounters()
    reference_apply(
        PairwiseComputation(store, rule, memo=memos[0]), rids, ref_counters
    )
    PairwiseComputation(store, rule, memo=memos[1]).apply(rids, counters)
    assert counters.pairs_compared == ref_counters.pairs_compared == 0
    assert memos[1].misses == memos[0].misses == 0
    assert memos[1].hits == memos[0].hits == 66
