"""Tests for the streaming adaptive-LSH extension."""

import numpy as np
import pytest

from repro.core import AdaptiveLSH
from repro.errors import ConfigurationError
from repro.online import StreamingTopK
from repro.core.config import AdaptiveConfig


@pytest.fixture()
def stream(tiny_spotsigs):
    return StreamingTopK(tiny_spotsigs.store, tiny_spotsigs.rule, config=AdaptiveConfig(seed=2, cost_model="analytic"))


class TestIngest:
    def test_insert_counts(self, stream):
        stream.insert(0)
        stream.insert(1)
        assert stream.n_seen == 2

    def test_duplicate_insert_rejected(self, stream):
        stream.insert(0)
        with pytest.raises(ConfigurationError):
            stream.insert(0)

    def test_insert_many(self, stream, tiny_spotsigs):
        stream.insert_many(np.arange(50))
        assert stream.n_seen == 50

    def test_insert_many_duplicate_rejected(self, stream):
        stream.insert_many(np.arange(10))
        with pytest.raises(ConfigurationError):
            stream.insert_many(np.array([5]))

    @pytest.mark.parametrize(
        "batch", [[15, 15, 16], [-1], [12, -3], [10**6], [14, 10**6]],
        ids=["repeat", "negative", "negative-tail", "too-large", "too-large-tail"],
    )
    def test_insert_many_rejects_bad_batch_unchanged(self, stream, batch):
        stream.insert_many(np.arange(10))
        indexed = stream.delta_index.indexed_records
        with pytest.raises(ConfigurationError):
            stream.insert_many(np.array(batch))
        assert stream.n_seen == 10
        assert stream.delta_index.indexed_records == indexed
        stream.insert_many(np.arange(10, 20))
        assert stream.n_seen == 20

    @pytest.mark.parametrize("rid", [-1, 10**6])
    def test_insert_rejects_out_of_range_rid(self, stream, rid):
        stream.insert(0)
        with pytest.raises(ConfigurationError):
            stream.insert(rid)
        assert stream.n_seen == 1
        assert stream.delta_index.indexed_records == 1

    def test_query_without_records(self, stream):
        with pytest.raises(ConfigurationError):
            stream.top_k(1)


class TestQueries:
    def test_full_stream_matches_batch(self, tiny_spotsigs):
        stream = StreamingTopK(tiny_spotsigs.store, tiny_spotsigs.rule, config=AdaptiveConfig(seed=2, cost_model="analytic"))
        stream.insert_many(tiny_spotsigs.store.rids)
        streamed = [c.size for c in stream.top_k(3).clusters]
        batch = AdaptiveLSH(tiny_spotsigs.store, tiny_spotsigs.rule, config=AdaptiveConfig(seed=2, cost_model="analytic")).run(3)
        assert streamed == [c.size for c in batch.clusters]

    def test_results_grow_with_stream(self, tiny_spotsigs):
        stream = StreamingTopK(tiny_spotsigs.store, tiny_spotsigs.rule, config=AdaptiveConfig(seed=2, cost_model="analytic"))
        rng = np.random.default_rng(0)
        order = rng.permutation(len(tiny_spotsigs))
        stream.insert_many(order[:150])
        early = stream.top_k(1).clusters[0].size
        stream.insert_many(order[150:])
        late = stream.top_k(1).clusters[0].size
        assert late >= early

    def test_repeated_queries_get_cheaper(self, tiny_spotsigs):
        stream = StreamingTopK(tiny_spotsigs.store, tiny_spotsigs.rule, config=AdaptiveConfig(seed=2, cost_model="analytic"))
        stream.insert_many(tiny_spotsigs.store.rids)
        first = stream.top_k(3)
        second = stream.top_k(3)
        assert (
            second.counters.hashes_computed <= first.counters.hashes_computed
        )

    def test_current_clusters_partition_seen(self, tiny_spotsigs):
        stream = StreamingTopK(tiny_spotsigs.store, tiny_spotsigs.rule, config=AdaptiveConfig(seed=2, cost_model="analytic"))
        stream.insert_many(np.arange(100))
        clusters = stream.current_clusters()
        merged = np.sort(np.concatenate(clusters))
        assert np.array_equal(merged, np.arange(100))
