"""Property test: the rowwise and blocked pairwise strategies produce
identical connected components on random stores and rules across
seeds, whether the blocked pass fits one row-block or spans many."""

import numpy as np
import pytest

from repro.core import pairwise_fn
from repro.core.pairwise_fn import PairwiseComputation
from repro.distance import CosineDistance, JaccardDistance, ThresholdRule
from tests.conftest import make_shingle_store, make_vector_store


def _random_case(kind, seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(3, 20, size=rng.integers(2, 5)))
    noise = int(rng.integers(10, 40))
    if kind == "vector":
        store, _ = make_vector_store(
            cluster_sizes=sizes, n_noise=noise, seed=seed
        )
        threshold = float(rng.uniform(0.03, 0.12))
        rule = ThresholdRule(CosineDistance("vec"), threshold)
    else:
        store, _ = make_shingle_store(
            cluster_sizes=sizes, n_noise=noise, seed=seed
        )
        threshold = float(rng.uniform(0.3, 0.6))
        rule = ThresholdRule(JaccardDistance("shingles"), threshold)
    return store, rule


def _components(clusters):
    return {frozenset(int(r) for r in c) for c in clusters}


@pytest.mark.parametrize("kind", ["vector", "shingles"])
@pytest.mark.parametrize("seed", range(4))
def test_all_strategies_agree(kind, seed, monkeypatch):
    store, rule = _random_case(kind, seed)
    rids = store.rids

    rowwise = PairwiseComputation(store, rule, strategy="rowwise").apply(rids)
    blocked = PairwiseComputation(store, rule, strategy="blocked").apply(rids)

    # Shrink the row-block height so even these modest stores span
    # several blocks and exercise the block-vs-earlier evaluations.
    monkeypatch.setattr(pairwise_fn, "BLOCK", 32)
    blocked_small = PairwiseComputation(store, rule, strategy="blocked").apply(
        rids
    )

    assert _components(rowwise) == _components(blocked)
    assert _components(blocked) == _components(blocked_small)


def test_auto_picks_rowwise_then_blocked():
    """Regression (issue satellite): the measured ROWWISE_LIMIT keeps
    mid-size clusters on the rowwise path and large sets on blocked.
    The old ``ROWWISE_LIMIT = 3`` sent nearly every cluster Adaptive
    LSH hands to ``P`` down the blocked path."""
    store, rule = _random_case("vector", 0)
    pc = PairwiseComputation(store, rule, strategy="auto")
    assert pairwise_fn.ROWWISE_LIMIT >= 8, "mid-size clusters must stay rowwise"
    assert pc.choose_strategy(8) == "rowwise"
    assert pc.choose_strategy(pairwise_fn.ROWWISE_LIMIT) == "rowwise"
    assert pc.choose_strategy(pairwise_fn.ROWWISE_LIMIT + 1) == "blocked"
    assert pc.choose_strategy(5000) == "blocked"
