"""End-to-end observability: AdaptiveLSH with a RunObserver attached."""

import pytest

from repro.core import AdaptiveLSH
from repro.obs import DISABLED, RunObserver, RunReport
from repro.distance import CosineDistance, ThresholdRule
from tests.conftest import make_vector_store
from repro.core.config import AdaptiveConfig


@pytest.fixture(scope="module")
def observed_run():
    store, _ = make_vector_store(seed=21)
    rule = ThresholdRule(CosineDistance("vec"), 10 / 180.0)
    obs = RunObserver()
    method = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=1, cost_model="analytic"), observer=obs)
    result = method.run(3)
    return method, result, obs


class TestObservedRun:
    def test_one_event_per_round(self, observed_run):
        method, result, obs = observed_run
        assert len(obs.rounds) == result.counters.rounds

    def test_events_are_structured(self, observed_run):
        method, _, obs = observed_run
        for event in obs.rounds:
            assert event.wall_time >= 0.0
            assert event.predicted_cost >= 0.0
            assert event.jump == (event.action == "P")

    def test_last_report_built(self, observed_run):
        method, result, _ = observed_run
        report = method.last_report
        assert isinstance(report, RunReport)
        assert report.method == "adaLSH"
        assert report.k == 3
        assert report.counters["rounds"] == result.counters.rounds
        assert report.counters["hashes_computed"] == (
            result.counters.hashes_computed
        )
        assert report.residuals  # at least one action kind aggregated
        assert report.cost_model["level_costs"]

    def test_report_has_spans_and_pool_stats(self, observed_run):
        method, _, _ = observed_run
        report = method.last_report
        names = [span["name"] for span in report.spans]
        assert "adaLSH.run" in names
        run_span = report.spans[names.index("adaLSH.run")]
        assert any(c["name"] == "round" for c in run_span.get("children", []))
        assert report.hash_pools
        assert report.hash_pools[0]["hashes_computed"] > 0
        for pool in report.hash_pools:
            # Size-class rows hold at least the filled values.
            assert pool["bytes"] >= pool["filled_values"] > 0

    def test_report_json_round_trip(self, observed_run):
        method, _, _ = observed_run
        report = method.last_report
        assert RunReport.from_json(report.to_json()) == report

    def test_hash_and_pair_metrics_populated(self, observed_run):
        _, result, obs = observed_run
        snap = obs.metrics.snapshot()
        hash_counters = [
            name for name in snap["counters"] if name.startswith("hash.computed.")
        ]
        assert hash_counters
        if result.counters.pairs_compared:
            assert snap["counters"]["pairwise.pairs_compared"] == (
                result.counters.pairs_compared
            )
        if result.counters.pairs_charged:
            # One timing histogram for P, whatever the input size.
            timed = [
                name
                for name in snap["histograms"]
                if name.startswith("pairwise.") and name.endswith("seconds")
            ]
            assert timed == ["pairwise.seconds"]


class TestTraceViaObserver:
    def test_observer_populates_trace_view(self):
        store, _ = make_vector_store(seed=22)
        rule = ThresholdRule(CosineDistance("vec"), 10 / 180.0)
        method = AdaptiveLSH(
            store,
            rule,
            config=AdaptiveConfig(seed=1, cost_model="analytic"),
            observer=RunObserver(),
        )
        result = method.run(2)
        assert method.obs is not DISABLED
        assert len(method.obs.rounds) == result.counters.rounds
        assert method.last_report is not None


class TestDisabledMode:
    def test_default_uses_shared_disabled_observer(self):
        store, _ = make_vector_store(seed=23)
        rule = ThresholdRule(CosineDistance("vec"), 10 / 180.0)
        method = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=1, cost_model="analytic"))
        method.run(2)
        assert method.obs is DISABLED
        assert method.obs.rounds == []
        assert method.last_report is None
        assert DISABLED.rounds == []
        assert DISABLED.tracer.roots == []
        assert DISABLED.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_disabled_observer_result_unchanged(self):
        """Observability must not alter the algorithm's output."""
        store, _ = make_vector_store(seed=24)
        rule = ThresholdRule(CosineDistance("vec"), 10 / 180.0)
        plain = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=5, cost_model="analytic")).run(3)
        observed = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=5, cost_model="analytic"), observer=RunObserver()).run(3)
        assert [c.size for c in plain.clusters] == [
            c.size for c in observed.clusters
        ]
        assert plain.counters.pairs_compared == observed.counters.pairs_compared
        assert plain.counters.hashes_computed == observed.counters.hashes_computed
