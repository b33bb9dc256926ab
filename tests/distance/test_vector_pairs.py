"""The vectorised ``pairs`` of the vector distances: each element
equals the scalar ``distance`` bit for bit, whatever the batch, so
``match_pairs`` decides exactly as ``is_match`` per pair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance import CosineDistance, EuclideanDistance, ThresholdRule
from repro.records import RecordStore, Schema

DISTANCES = {
    "cosine": CosineDistance("vec"),
    "euclidean": EuclideanDistance("vec", scale=3.0),
}


def _store(n, dim, seed):
    rows = np.random.default_rng(seed).normal(size=(n, dim))
    rows[0] = 0.0  # a zero vector takes the arccos(0) convention
    return RecordStore(Schema.single_vector(), {"vec": rows})


@pytest.mark.parametrize("name", sorted(DISTANCES))
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 30),
    dim=st.integers(1, 9),
    seed=st.integers(0, 2**16),
    size=st.integers(0, 60),
)
def test_pairs_equal_scalar_distance_bit_for_bit(name, n, dim, seed, size):
    dist = DISTANCES[name]
    store = _store(n, dim, seed)
    rng = np.random.default_rng(seed + 1)
    a = rng.integers(0, n, size=size).astype(np.int64)
    b = rng.integers(0, n, size=size).astype(np.int64)
    got = dist.pairs(store, a, b)
    assert got.dtype == np.float64 and got.shape == (size,)
    want = [dist.distance(store, int(x), int(y)) for x, y in zip(a, b)]
    assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()
    rule = ThresholdRule(dist, 0.3)
    assert rule.match_pairs(store, a, b).tolist() == [
        rule.is_match(store, int(x), int(y)) for x, y in zip(a, b)
    ]


@pytest.mark.parametrize("name", sorted(DISTANCES))
def test_pairs_agree_with_one_to_many(name):
    dist = DISTANCES[name]
    store = _store(12, 5, 3)
    rids = np.arange(1, 12, dtype=np.int64)
    np.testing.assert_allclose(
        dist.pairs(store, np.full(rids.size, 4), rids),
        dist.one_to_many(store, 4, rids),
        atol=1e-9,
    )
