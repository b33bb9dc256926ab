"""Tests for transitive hashing functions (Definition 1)."""

import numpy as np
import pytest

from repro.core.result import WorkCounters
from repro.core.transitive import TransitiveHashingFunction
from repro.distance import CosineDistance, ThresholdRule
from repro.lsh.binindex import SchemeBinIndex
from repro.lsh.design import build_design_context, design_scheme
from tests.conftest import make_vector_store


def make_function(budget=320, seed=0, threshold=10 / 180.0, store=None):
    if store is None:
        store, _ = make_vector_store(seed=seed)
    rule = ThresholdRule(CosineDistance("vec"), threshold)
    ctx = build_design_context(store, rule, seed=seed)
    design = design_scheme(ctx, budget)
    bins = SchemeBinIndex(len(store)).level(1)
    return store, TransitiveHashingFunction(1, design, bins)


class TestApply:
    def test_output_partitions_input(self):
        store, fn = make_function()
        rids = store.rids
        clusters = fn.apply(rids)
        merged = np.sort(np.concatenate(clusters))
        assert np.array_equal(merged, np.sort(rids))

    def test_subset_application(self):
        store, fn = make_function()
        subset = np.array([3, 9, 40, 70, 80])
        clusters = fn.apply(subset)
        merged = np.sort(np.concatenate(clusters))
        assert np.array_equal(merged, np.sort(subset))

    def test_planted_clusters_stay_together(self):
        """Conservative evaluation (Property 1): records of one planted
        cluster land in the same output cluster with a feasible design."""
        store, labels = make_vector_store(seed=1)
        _, fn = make_function(budget=640, store=store)
        clusters = fn.apply(store.rids)
        assignment = {}
        for idx, cluster in enumerate(clusters):
            for rid in cluster:
                assignment[int(rid)] = idx
        for label in (0, 1, 2):
            members = np.nonzero(labels == label)[0]
            assert len({assignment[int(r)] for r in members}) == 1

    def test_fresh_tables_per_invocation(self):
        """Applying the function twice on disjoint sets can never merge
        records across invocations; outputs stay within the input set."""
        store, fn = make_function()
        first = fn.apply(np.arange(0, 20))
        second = fn.apply(np.arange(20, 40))
        assert all(c.max() < 20 for c in first)
        assert all(c.min() >= 20 for c in second)

    def test_deterministic_given_seed(self):
        store1, fn1 = make_function(seed=9)
        store2, fn2 = make_function(seed=9)
        c1 = sorted(tuple(c) for c in fn1.apply(store1.rids))
        c2 = sorted(tuple(c) for c in fn2.apply(store2.rids))
        assert c1 == c2

    def test_counters_track_inserts(self):
        store, fn = make_function(budget=160)
        counters = WorkCounters()
        fn.apply(store.rids, counters)
        assert counters.table_inserts == len(store) * fn.scheme.table_count

    def test_budget_property(self):
        _, fn = make_function(budget=320)
        assert 0 < fn.budget <= 320

    def test_singleton_input(self):
        store, fn = make_function()
        clusters = fn.apply(np.array([5]))
        assert len(clusters) == 1
        assert np.array_equal(clusters[0], [5])


class TestAccuracyScaling:
    def test_larger_budget_fewer_false_merges(self):
        """Increasing accuracy (Property 2): a deeper function produces
        no more false merges than a shallow one, statistically."""
        store, labels = make_vector_store(n_noise=60, seed=4)

        def false_pairs(budget):
            _, fn = make_function(budget=budget, store=store, seed=4)
            clusters = fn.apply(store.rids)
            bad = 0
            for cluster in clusters:
                lab = labels[cluster]
                for value in np.unique(lab):
                    count = int((lab == value).sum())
                    if value == -1:
                        # noise records are all distinct entities
                        bad += count * (count - 1) // 2
                others = cluster.size - len(lab)
            return bad

        assert false_pairs(1280) <= false_pairs(20)
