"""Tests for the store transfer shapes shard workers receive."""

import numpy as np

from repro.parallel import payload_from_store, store_from_payload
from tests.conftest import make_shingle_store, make_vector_store


class TestStorePayload:
    def test_mixed_store_roundtrip(self):
        store, _ = make_vector_store(cluster_sizes=(6, 4), n_noise=5, seed=1)
        rebuilt = store_from_payload(payload_from_store(store))
        assert len(rebuilt) == len(store)
        assert np.array_equal(rebuilt.vectors("vec"), store.vectors("vec"))

    def test_shingle_store_roundtrip(self):
        store, _ = make_shingle_store(cluster_sizes=(5, 3), n_noise=4, seed=2)
        rebuilt = store_from_payload(payload_from_store(store))
        for a, b in zip(
            store.shingle_sets("shingles"), rebuilt.shingle_sets("shingles")
        ):
            assert np.array_equal(a, b)
