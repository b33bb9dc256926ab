"""Property test: ``P`` produces the row-loop reference's connected
components, in the canonical order, on random stores and rules across
seeds, whether its evaluation fits one row chunk or spans many."""

import numpy as np
import pytest

from repro.core import pairwise_fn
from repro.core.pairwise_fn import PairwiseComputation
from repro.distance import CosineDistance, JaccardDistance, ThresholdRule
from tests.conftest import make_shingle_store, make_vector_store
from tests.core.reference_pairwise import reference_apply


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


def _as_lists(clusters):
    return [c.tolist() for c in clusters]


@pytest.mark.parametrize("kind", ["vector", "shingles"])
@pytest.mark.parametrize("seed", range(4))
def test_all_strategies_agree(kind, seed, monkeypatch):
    store, rule = _random_case(kind, seed)
    rids = store.rids

    one_chunk = PairwiseComputation(store, rule).apply(rids)
    reference = reference_apply(PairwiseComputation(store, rule), rids)

    # Shrink the chunk so even these modest stores span many row chunks
    # and exercise the chunk-vs-later evaluations.
    monkeypatch.setattr(pairwise_fn, "_CROSS_CELL_CHUNK", 32 * len(rids))
    many_chunks = PairwiseComputation(store, rule).apply(rids)

    assert _as_lists(one_chunk) == _as_lists(reference)
    assert _as_lists(many_chunks) == _as_lists(reference)
