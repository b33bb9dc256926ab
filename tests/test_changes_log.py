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
