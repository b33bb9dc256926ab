"""Tests for the pairwise computation function P (Definition 2)."""

import numpy as np
import pytest

from repro.core import pairwise_fn
from repro.core.pairwise_fn import PairwiseComputation
from repro.core.result import WorkCounters
from repro.structures import UnionFind
from tests.conftest import make_shingle_store, make_vector_store
from repro.distance import CosineDistance, JaccardDistance, ThresholdRule


def brute_force_components(store, rule):
    n = len(store)
    uf = UnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rule.is_match(store, i, j):
                uf.union(i, j)
    return {frozenset(c) for c in uf.components()}


@pytest.fixture(params=["one", "many"])
def chunks(request, monkeypatch):
    """``one``: every input fits one row chunk; ``many``: row chunks of
    a few rows, so the chunk-vs-later evaluations run."""
    if request.param == "many":
        monkeypatch.setattr(pairwise_fn, "_CROSS_CELL_CHUNK", 300)
    return request.param


@pytest.fixture(scope="module")
def vector_setup():
    store, _ = make_vector_store(seed=21)
    rule = ThresholdRule(CosineDistance("vec"), 10 / 180.0)
    return store, rule


@pytest.fixture(scope="module")
def shingle_setup():
    store, _ = make_shingle_store(seed=22)
    rule = ThresholdRule(JaccardDistance("shingles"), 0.6)
    return store, rule


class TestCorrectness:
    def test_components_match_brute_force_vectors(self, vector_setup, chunks):
        store, rule = vector_setup
        p = PairwiseComputation(store, rule)
        got = {frozenset(c.tolist()) for c in p.apply(store.rids)}
        assert got == brute_force_components(store, rule)

    def test_components_match_brute_force_shingles(self, shingle_setup, chunks):
        store, rule = shingle_setup
        p = PairwiseComputation(store, rule)
        got = {frozenset(c.tolist()) for c in p.apply(store.rids)}
        assert got == brute_force_components(store, rule)

    def test_output_is_canonical(self, vector_setup, chunks):
        """Members ascending, clusters by smallest rid, whatever order
        the input lists its records in."""
        store, rule = vector_setup
        rids = np.random.default_rng(5).permutation(len(store))
        clusters = PairwiseComputation(store, rule).apply(rids)
        for c in clusters:
            assert (np.diff(c) > 0).all()
        assert [int(c[0]) for c in clusters] == sorted(int(c[0]) for c in clusters)

    def test_subset_components(self, vector_setup):
        store, rule = vector_setup
        subset = np.array([0, 1, 2, 50, 51, 90])
        p = PairwiseComputation(store, rule)
        clusters = p.apply(subset)
        assert np.array_equal(
            np.sort(np.concatenate(clusters)), np.sort(subset)
        )

    def test_one_chunk_equals_many_chunks(self, vector_setup, monkeypatch):
        store, rule = vector_setup
        one = PairwiseComputation(store, rule).apply(store.rids)
        monkeypatch.setattr(pairwise_fn, "_CROSS_CELL_CHUNK", 1)
        many = PairwiseComputation(store, rule).apply(store.rids)
        assert [c.tolist() for c in one] == [c.tolist() for c in many]


class TestEdgeCases:
    def test_empty_input(self, vector_setup):
        store, rule = vector_setup
        assert PairwiseComputation(store, rule).apply(np.array([], dtype=int)) == []

    def test_single_record(self, vector_setup):
        store, rule = vector_setup
        clusters = PairwiseComputation(store, rule).apply(np.array([7]))
        assert len(clusters) == 1 and clusters[0].tolist() == [7]

    def test_two_matching_records(self, vector_setup):
        store, rule = vector_setup
        clusters = PairwiseComputation(store, rule).apply(np.array([0, 1]))
        assert len(clusters) == 1

    def test_invalid_strategy(self, vector_setup):
        """``P`` has one path; the rowwise/blocked choice is gone."""
        store, rule = vector_setup
        with pytest.raises(TypeError):
            PairwiseComputation(store, rule, strategy="rowwise")


class TestCounters:
    def test_pairs_charged_is_conservative(self, vector_setup):
        """Cost model charges C(m, 2) regardless of the memo."""
        store, rule = vector_setup
        counters = WorkCounters()
        m = len(store)
        PairwiseComputation(store, rule).apply(store.rids, counters)
        assert counters.pairs_charged == m * (m - 1) // 2

    def test_compares_every_unknown_pair(self, vector_setup, chunks):
        """The match rules are not transitive, so without a memo every
        pair is compared once, however the rows are chunked."""
        store, rule = vector_setup
        counters = WorkCounters()
        PairwiseComputation(store, rule).apply(store.rids, counters)
        assert counters.pairs_compared == counters.pairs_charged

    def test_charges_accumulate(self, vector_setup):
        store, rule = vector_setup
        counters = WorkCounters()
        p = PairwiseComputation(store, rule)
        p.apply(np.arange(4), counters)
        p.apply(np.arange(6), counters)
        assert counters.pairs_charged == 6 + 15
