"""Tests for RunReport serialization and residual aggregation."""

import json

from repro.obs import RoundEvent, RunObserver, RunReport, cost_residuals
from repro.obs.report import REPORT_VERSION


def make_events():
    return [
        RoundEvent(
            round=1, action="H2", size=100, from_level=1, subclusters=5,
            largest_out=40, wall_time=0.02, predicted_cost=0.01, jump=False,
        ),
        RoundEvent(
            round=2, action="P", size=40, from_level=2, subclusters=2,
            largest_out=30, wall_time=0.004, predicted_cost=0.008, jump=True,
        ),
        RoundEvent(
            round=3, action="H3", size=30, from_level=2, subclusters=1,
            largest_out=30, wall_time=0.01, predicted_cost=0.005, jump=False,
        ),
    ]


def make_report():
    obs = RunObserver()
    for event in make_events():
        obs.record_round(event)
    obs.counter("pairs").inc(10)
    obs.histogram("hash.seconds").observe(0.25)
    with obs.span("run", k=2):
        pass
    return obs.build_report(
        method="adaLSH",
        k=2,
        wall_time=0.034,
        counters={"rounds": 3, "hashes_computed": 1000},
        cost_model={"level_costs": [1.0, 2.0], "cost_p": 0.5},
        hash_pools=[{"name": "root", "family": "minhash[f]",
                     "hashes_computed": 1000, "seconds": 0.25,
                     "bytes": 65536, "filled_values": 1000}],
        info={"selection": "largest"},
    )


class TestResiduals:
    def test_aggregates_by_action_kind(self):
        res = cost_residuals(make_events())
        assert res["hash"]["rounds"] == 2
        assert res["pairwise"]["rounds"] == 1
        assert res["hash"]["predicted_total"] == 0.015
        assert res["hash"]["actual_total"] == 0.03

    def test_residual_and_ratio(self):
        res = cost_residuals(make_events())
        assert res["hash"]["residual"] == 0.03 - 0.015
        assert res["hash"]["ratio"] == 2.0
        assert res["pairwise"]["ratio"] == 0.5

    def test_zero_prediction_gives_null_ratio(self):
        events = [
            RoundEvent(round=1, action="H2", size=2, from_level=1,
                       subclusters=1, largest_out=2, wall_time=0.1,
                       predicted_cost=0.0)
        ]
        assert cost_residuals(events)["hash"]["ratio"] is None

    def test_empty(self):
        assert cost_residuals([]) == {}


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self):
        report = make_report()
        restored = RunReport.from_json(report.to_json())
        assert restored == report

    def test_json_is_plain_data(self):
        data = json.loads(make_report().to_json())
        assert data["method"] == "adaLSH"
        assert data["version"] == REPORT_VERSION
        assert data["rounds"][0]["action"] == "H2"
        assert data["metrics"]["counters"]["pairs"] == 10
        assert data["residuals"]["hash"]["rounds"] == 2
        assert data["spans"][0]["name"] == "run"

    def test_save_load(self, tmp_path):
        report = make_report()
        path = tmp_path / "metrics.json"
        report.save(path)
        assert RunReport.load(path) == report


class TestTable:
    def test_table_has_all_sections(self):
        table = make_report().to_table()
        assert "run: adaLSH" in table
        assert "cost-model residuals" in table
        assert "hash pools" in table
        pool_row = next(
            line for line in table.splitlines() if line.startswith("  root")
        )
        assert pool_row.split()[-2:] == ["1000", "65536"]
        assert "rounds (first" in table
        assert "histograms:" in table
        assert "H2" in table and "P" in table

    def test_table_truncates_rounds(self):
        report = make_report()
        table = report.to_table(max_rounds=1)
        assert "2 more rounds" in table

