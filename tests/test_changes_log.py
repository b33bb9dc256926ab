"""Numbers CHANGES.md quotes from archived BENCH files match the files."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_binning_delta_ratio_matches_bench_file():
    bench = json.loads((ROOT / "BENCH_binning.json").read_text())
    quoted = re.findall(
        r"delta re-groups (\d+) rows vs (\d+) full, ratio ([0-9.]+) archived",
        (ROOT / "CHANGES.md").read_text(),
    )
    assert len(quoted) == 1
    delta, full, ratio = quoted[0]
    assert int(delta) == bench["delta_rows"]
    assert int(full) == bench["full_regroup_rows"]
    assert float(ratio) == bench["delta_rows_ratio"]
    assert round(int(delta) / int(full), 4) == float(ratio)


def test_pool_bytes_match_bench_and_baseline_files():
    bench = json.loads((ROOT / "BENCH_topk.json").read_text())
    baseline = json.loads((ROOT / "perf_baseline.json").read_text())
    quoted = re.findall(
        r"pool_bytes cora (\d+), spotsigs (\d+) archived",
        (ROOT / "CHANGES.md").read_text(),
    )
    assert len(quoted) == 1
    for name, value in zip(("cora", "spotsigs"), quoted[0]):
        assert int(value) == bench["scenarios"][name]["pool_bytes"]
        assert int(value) == baseline["scenarios"][name]["pool_bytes"]


def test_images_counters_match_bench_and_baseline_files():
    bench = json.loads((ROOT / "BENCH_topk.json").read_text())
    baseline = json.loads((ROOT / "perf_baseline.json").read_text())
    quoted = re.findall(
        r"images scenario pairs_compared (\d+), hashes_computed (\d+), "
        r"pool_bytes (\d+) archived",
        (ROOT / "CHANGES.md").read_text(),
    )
    assert len(quoted) == 1
    names = ("pairs_compared", "hashes_computed", "pool_bytes")
    for name, value in zip(names, quoted[0]):
        assert int(value) == bench["scenarios"]["images"][name]
        assert int(value) == baseline["scenarios"]["images"][name]
