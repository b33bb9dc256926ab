"""Pair-verdict memo benchmark (``make bench-smoke``).

Replays the motivating multi-round scenario for
:class:`~repro.core.pairmemo.PairVerdictMemo`: records stream into a
:class:`~repro.online.StreamingTopK` in batches, with a ``top_k`` query
after every batch.  Consecutive queries re-refine mostly-unchanged
clusters, so without memoization the same record pairs are re-verified
query after query.  The benchmark runs the scenario twice — memo off
(a zero byte budget, which remembers nothing), memo on — verifies the
outputs are bit-identical, and writes the ``pairs_compared`` totals to
``BENCH_memo.json``.

Fails (exit 1) if the outputs differ or the memoized run saves less
than ``--min-reduction`` (default 30%) of the pair comparisons.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.bench import emit_result
from repro.core.config import AdaptiveConfig
from repro.datasets import generate_cora
from repro.online import StreamingTopK


def _run(dataset, k, batches, *, seed, pair_memo_bytes):
    config = AdaptiveConfig(
        seed=seed, cost_model="analytic", pair_memo_bytes=pair_memo_bytes
    )
    stream = StreamingTopK(dataset.store, dataset.rule, config=config)
    per_query = []
    outputs = []
    started = time.perf_counter()
    try:
        for batch in batches:
            stream.insert_many(batch)
            result = stream.top_k(k)
            per_query.append(int(result.counters.pairs_compared))
            outputs.append([tuple(int(r) for r in c.rids) for c in result.clusters])
        memo_stats = result.pair_memo_stats
    finally:
        stream.method.close()
    elapsed = time.perf_counter() - started
    return {
        "pairs_compared_total": int(sum(per_query)),
        "pairs_compared_per_query": per_query,
        "seconds": round(elapsed, 4),
        "memo": memo_stats,
    }, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_memo.json")
    parser.add_argument("--records", type=int, default=1200)
    parser.add_argument("--batches", type=int, default=6)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--method-seed", type=int, default=3)
    parser.add_argument("--min-reduction", type=float, default=0.30)
    args = parser.parse_args(argv)

    dataset = generate_cora(n_records=args.records, seed=args.seed)
    rids = np.arange(len(dataset.store), dtype=np.int64)
    batches = np.array_split(rids, args.batches)

    off, off_outputs = _run(
        dataset, args.k, batches, seed=args.method_seed, pair_memo_bytes=0
    )
    on, on_outputs = _run(
        dataset,
        args.k,
        batches,
        seed=args.method_seed,
        pair_memo_bytes=AdaptiveConfig().pair_memo_bytes,
    )

    identical = off_outputs == on_outputs
    baseline = off["pairs_compared_total"]
    reduction = 1.0 - on["pairs_compared_total"] / baseline if baseline else 0.0

    emit_result(
        args.out,
        "bench_memo",
        config={
            "records": args.records,
            "batches": args.batches,
            "k": args.k,
            "seed": args.seed,
            "method_seed": args.method_seed,
            "min_reduction": args.min_reduction,
        },
        timings={
            "memo_off_seconds": off["seconds"],
            "memo_on_seconds": on["seconds"],
        },
        payload={
            "scenario": (
                f"StreamingTopK on cora({args.records}), "
                f"{args.batches} insert+query rounds"
            ),
            "memo_off": off,
            "memo_on": on,
            "pairs_compared_reduction": round(reduction, 4),
            "identical_outputs": identical,
        },
    )
    if not identical:
        print("FATAL: memoized outputs differ from non-memoized outputs")
        return 1
    if reduction < args.min_reduction:
        print(
            f"FATAL: pairs_compared reduction {reduction:.1%} is below the "
            f"required {args.min_reduction:.0%}"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
