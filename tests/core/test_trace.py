"""Tests for the per-round events of Algorithm 1 (``method.obs.rounds``)."""

import pytest

from repro.core import AdaptiveLSH
from repro.obs import RoundEvent, RunObserver
from tests.conftest import make_vector_store
from repro.distance import CosineDistance, ThresholdRule
from repro.core.config import AdaptiveConfig


@pytest.fixture(scope="module")
def traced_run():
    store, _ = make_vector_store(seed=77)
    rule = ThresholdRule(CosineDistance("vec"), 10 / 180.0)
    method = AdaptiveLSH(
        store,
        rule,
        config=AdaptiveConfig(seed=1, cost_model="analytic"),
        observer=RunObserver(),
    )
    result = method.run(3)
    return method, result


class TestTrace:
    def test_disabled_by_default(self):
        store, _ = make_vector_store(seed=77)
        rule = ThresholdRule(CosineDistance("vec"), 10 / 180.0)
        method = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=1, cost_model="analytic"))
        method.run(2)
        assert method.obs.rounds == []

    def test_one_entry_per_round(self, traced_run):
        method, result = traced_run
        assert len(method.obs.rounds) == result.counters.rounds

    def test_entries_have_schema(self, traced_run):
        method, _ = traced_run
        for i, event in enumerate(method.obs.rounds, start=1):
            assert isinstance(event, RoundEvent)
            assert event.round == i
            assert event.size >= 1
            assert event.subclusters >= 1
            assert event.largest_out <= event.size

    def test_actions_are_valid(self, traced_run):
        method, _ = traced_run
        valid = {"P"} | {f"H{i}" for i in range(2, method.last_level + 1)}
        assert {e.action for e in method.obs.rounds} <= valid

    def test_hash_actions_follow_sequence(self, traced_run):
        method, _ = traced_run
        for event in method.obs.rounds:
            if event.action.startswith("H"):
                assert int(event.action[1:]) == event.from_level + 1

    def test_trace_resets_between_runs(self, traced_run):
        method, _ = traced_run
        first_len = len(method.obs.rounds)
        result = method.run(1)
        assert len(method.obs.rounds) == result.counters.rounds <= first_len
