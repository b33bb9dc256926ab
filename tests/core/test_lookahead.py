"""Tests for the Appendix-D.2 lookahead jump policy."""

import numpy as np
import pytest

from repro.baselines import PairsBaseline
from repro.core import AdaptiveLSH, CostModel
from repro.errors import ConfigurationError
from tests.conftest import make_vector_store
from repro.distance import CosineDistance, ThresholdRule
from repro.core.config import AdaptiveConfig

RULE = ThresholdRule(CosineDistance("vec"), 10 / 180.0)
BUDGETS = [20, 40, 80, 160, 320, 640, 1280]


def make_method(store, policy, cost_p=2000.0):
    # An expensive-P model keeps Line 5 quiet so the lookahead probe is
    # what decides (the interesting regime for D.2).
    model = CostModel.from_budgets(BUDGETS, cost_p=cost_p)
    return AdaptiveLSH(store, RULE, config=AdaptiveConfig(budgets=BUDGETS, seed=3, cost_model=model, jump_policy=policy))


class TestCorrectness:
    def test_same_output_as_line5(self):
        store, _ = make_vector_store(seed=55)
        line5 = make_method(store, "line5").run(3)
        look = make_method(store, "lookahead").run(3)
        assert [c.size for c in look.clusters] == [c.size for c in line5.clusters]

    def test_same_output_as_pairs(self):
        store, _ = make_vector_store(seed=56)
        look = make_method(store, "lookahead").run(2)
        exact = PairsBaseline(store, RULE).run(2)
        assert [sorted(c.rids.tolist()) for c in look.clusters] == [
            sorted(c.rids.tolist()) for c in exact.clusters
        ]

    def test_invalid_policy_rejected(self):
        store, _ = make_vector_store(seed=55)
        with pytest.raises(ConfigurationError):
            AdaptiveLSH(store, RULE, config=AdaptiveConfig(jump_policy="psychic"))


class TestWorkProfile:
    def test_dense_cluster_jumps_early(self):
        """A dataset that is one dense entity: Line 5 rides the ladder
        to H_L (P looks expensive), the lookahead probes density once
        and pays P immediately — far fewer hash evaluations."""
        store, _ = make_vector_store(
            cluster_sizes=(60,), n_noise=0, scale=0.003, seed=57
        )
        line5 = make_method(store, "line5", cost_p=5.0).run(1)
        look = make_method(store, "lookahead", cost_p=5.0).run(1)
        assert [c.size for c in look.clusters] == [c.size for c in line5.clusters]
        assert look.counters.hashes_computed < line5.counters.hashes_computed

    def test_sampling_cost_is_counted(self):
        # Dense single entity with affordable P: the probe fires and
        # its sampled comparisons must appear in the work counters.
        store, _ = make_vector_store(
            cluster_sizes=(60,), n_noise=0, scale=0.003, seed=58
        )
        look = make_method(store, "lookahead", cost_p=5.0)
        result = look.run(1)
        assert result.counters.pairs_compared > 0

    def test_sparse_clusters_keep_hashing(self):
        """On well-separated multi-entity data the probe fires rarely,
        so lookahead work stays close to line5 work."""
        store, _ = make_vector_store(
            cluster_sizes=(30, 18, 8), n_noise=40, seed=59
        )
        line5 = make_method(store, "line5").run(3)
        look = make_method(store, "lookahead").run(3)
        # Lookahead may spend *somewhat* fewer hashes (dense entities
        # jump), never dramatically more.
        assert (
            look.counters.hashes_computed
            <= line5.counters.hashes_computed * 1.2 + 1000
        )


class TestHistoryIndependence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_requery_equals_fresh_run(self, seed):
        """The density sample is keyed by the cluster, not drawn from a
        stream the earlier queries advanced: ``run(10); run(20)`` returns
        a fresh ``run(20)``'s cluster arrays, in its order, after the
        same number of rounds."""
        from repro.datasets import generate_cora

        dataset = generate_cora(n_records=3000, seed=seed)
        config = AdaptiveConfig(
            seed=seed, cost_model="analytic", jump_policy="lookahead"
        )
        with AdaptiveLSH(dataset.store, dataset.rule, config=config) as method:
            method.run(10)
            requery = method.run(20)
        with AdaptiveLSH(dataset.store, dataset.rule, config=config) as method:
            fresh = method.run(20)
        assert len(requery.clusters) == len(fresh.clusters)
        for got, want in zip(requery.clusters, fresh.clusters):
            assert got.rids.tobytes() == want.rids.tobytes()
        assert requery.counters.rounds == fresh.counters.rounds

    def test_snapshot_restore_keeps_density_seed(self):
        """A restored method samples with the captured seed, so its
        lookahead decisions match the method it was captured from."""
        from repro.serve import IndexSnapshot

        store, _ = make_vector_store(seed=55)
        method = make_method(store, "lookahead")
        method.prepare()
        restored = IndexSnapshot.capture(method).restore(store)
        assert restored._lookahead_seed == method._lookahead_seed
        expected = method.run(3)
        actual = restored.run(3)
        assert [c.rids.tolist() for c in actual.clusters] == [
            c.rids.tolist() for c in expected.clusters
        ]
        assert actual.counters.rounds == expected.counters.rounds
