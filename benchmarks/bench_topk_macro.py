"""End-to-end top-k macro benchmark (``make bench-smoke`` / perf gate).

Runs the adaptive method cold on fixed-seed Cora-like, SpotSigs-like
and PopularImages-like synthetics (the last one followed by a requery)
and records, per scenario, the wall time plus the deterministic work
counters ``pairs_compared`` and ``hashes_computed`` plus
``pool_bytes``, the bytes the signature pools hold after the run (read
from the run report's hash-pool table).  With
``cost_model="analytic"`` and pinned seeds all three are exact
functions of the code, so they gate perf regressions the way
``analysis_baseline.json`` gates lint findings:

* ``--write-baseline perf_baseline.json`` records the current counters;
* ``--check-baseline perf_baseline.json`` fails (exit 1) if any
  scenario's counter exceeds the committed value — timing is reported
  but never gated, because CI machines are noisy.

Improvements ratchet the baseline down: re-run ``--write-baseline``
and commit the smaller numbers.

The baseline additionally archives a per-scenario ``wall_seconds_history``
(the last :data:`HISTORY_LIMIT` measurements, appended by every
``--write-baseline``).  ``--check-baseline`` prints each scenario's
trend line next to the current measurement so wall-clock drift is
visible in the ``make perf-gate`` output — reported, never gated,
because CI machines are noisy.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.bench import emit_result
from repro.core.adaptive import AdaptiveLSH
from repro.core.config import AdaptiveConfig
from repro.datasets import generate_cora, generate_popular_images, generate_spotsigs
from repro.datasets.popularimages import TOP1_BY_EXPONENT
from repro.obs import RunObserver

#: Gated counters (deterministic); ``wall_seconds`` rides along
#: uncompared.
GATED_COUNTERS = ("pairs_compared", "hashes_computed", "pool_bytes")

#: Archived ``wall_seconds_history`` entries kept per scenario.
HISTORY_LIMIT = 20


def _images(records: int, seed: int):
    """PopularImages-like records (cosine rule), entity sizes scaled
    from the 10k default as in ``benchmarks/conftest.py``.  Its ``P``
    work is mostly clusters of a dozen records or fewer."""
    ratio = records / 10_000
    return generate_popular_images(
        n_records=records,
        n_popular=max(20, int(500 * ratio)),
        top1_size=max(10, int(TOP1_BY_EXPONENT[1.05] * ratio)),
        seed=seed,
    )


def _scenarios(records: int, seed: int):
    """``(name, dataset, requery)``.  A requery scenario follows the top-k
    with a top-2k on the same method, and its counters sum both queries:
    the second one reads the pair memo, so ``pairs_compared`` also gates
    how ``P`` skips remembered pairs."""
    return [
        ("cora", generate_cora(n_records=records, seed=seed), False),
        ("spotsigs", generate_spotsigs(n_records=records, seed=seed), False),
        ("images", _images(records, seed), True),
    ]


def run_scenarios(records: int, seed: int, method_seed: int, k: int):
    out = {}
    for name, dataset, requery in _scenarios(records, seed):
        config = AdaptiveConfig(seed=method_seed, cost_model="analytic")
        queries = [k, 2 * k] if requery else [k]
        started = time.perf_counter()
        with AdaptiveLSH(
            dataset.store, dataset.rule, config=config, observer=RunObserver()
        ) as method:
            counters = [method.run(q).counters for q in queries]
        elapsed = time.perf_counter() - started
        assert method.last_report is not None
        pools = method.last_report.hash_pools

        def total(counter: str) -> int:
            return sum(int(getattr(c, counter)) for c in counters)

        out[name] = {
            "records": records,
            "k": k,
            "queries": queries,
            "wall_seconds": round(elapsed, 4),
            "pairs_compared": total("pairs_compared"),
            "hashes_computed": total("hashes_computed"),
            "pool_bytes": sum(int(pool["bytes"]) for pool in pools),
            "pairs_charged": total("pairs_charged"),
            "rounds": total("rounds"),
        }
    return out


def check_baseline(scenarios: dict, baseline: dict) -> list[str]:
    """Counter regressions relative to the committed baseline."""
    failures = []
    for name, expected in baseline.get("scenarios", {}).items():
        actual = scenarios.get(name)
        if actual is None:
            failures.append(f"{name}: scenario missing from this run")
            continue
        for counter in GATED_COUNTERS:
            if actual[counter] > expected[counter]:
                failures.append(
                    f"{name}.{counter}: {actual[counter]} exceeds the "
                    f"baseline {expected[counter]}"
                )
    return failures


def wall_trend_lines(scenarios: dict, baseline: dict) -> list[str]:
    """Per-scenario wall-clock trend lines (reported, never gated)."""
    lines = []
    for name, expected in baseline.get("scenarios", {}).items():
        actual = scenarios.get(name)
        if actual is None:
            continue
        history = expected.get("wall_seconds_history") or [
            expected["wall_seconds"]
        ]
        trend = " -> ".join(f"{w:.4f}" for w in history)
        lines.append(
            f"wall-clock trend [{name}]: {trend} | now {actual['wall_seconds']:.4f}s"
            " (archived, never gated)"
        )
    return lines


def merge_baseline_history(scenarios: dict, previous: dict) -> dict:
    """Scenario entries with ``wall_seconds_history`` carried forward.

    Each ``--write-baseline`` appends the current measurement to the
    prior baseline's history (trimmed to the last ``HISTORY_LIMIT``),
    so the committed file accumulates a wall-clock trend alongside the
    ratcheted counters.
    """
    merged = {}
    for name, entry in scenarios.items():
        prior = previous.get("scenarios", {}).get(name, {})
        history = list(prior.get("wall_seconds_history") or [])
        history.append(entry["wall_seconds"])
        merged[name] = dict(entry)
        merged[name]["wall_seconds_history"] = history[-HISTORY_LIMIT:]
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_topk.json")
    parser.add_argument("--records", type=int, default=1000)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--method-seed", type=int, default=3)
    parser.add_argument("--check-baseline", metavar="PATH")
    parser.add_argument("--write-baseline", metavar="PATH")
    args = parser.parse_args(argv)

    scenarios = run_scenarios(args.records, args.seed, args.method_seed, args.k)
    document = emit_result(
        args.out,
        "bench_topk_macro",
        config={
            "records": args.records,
            "k": args.k,
            "data_seed": args.seed,
            "method_seed": args.method_seed,
        },
        timings={
            f"{name}_wall_seconds": entry["wall_seconds"]
            for name, entry in scenarios.items()
        },
        payload={
            "gated_counters": list(GATED_COUNTERS),
            "scenarios": scenarios,
        },
    )

    if args.write_baseline:
        previous: dict = {}
        try:
            with open(args.write_baseline, encoding="utf-8") as fh:
                previous = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            pass
        document["scenarios"] = merge_baseline_history(scenarios, previous)
        with open(args.write_baseline, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        print(f"baseline written to {args.write_baseline}")
    if args.check_baseline:
        with open(args.check_baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        failures = check_baseline(scenarios, baseline)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}")
            return 1
        print(f"perf gate OK against {args.check_baseline}")
        for line in wall_trend_lines(scenarios, baseline):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
