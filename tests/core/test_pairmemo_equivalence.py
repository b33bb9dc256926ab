"""Property tests: pair-verdict memoization never changes output.
Memo-on equals memo-off (no memo, or one detached by
:func:`detach_memo`) bit-for-bit — the partition in the canonical order
— across seeds, row chunkings, snapshot restores, and
streaming insert-then-refine; a fully warm memo makes a repeated refine
free (``pairs_compared == 0``), and a zero-budget memo compares every
pair a detached one does."""

from __future__ import annotations

import numpy as np
import pytest

from repro import AdaptiveConfig, AdaptiveLSH, StreamingTopK
from repro.core import pairwise_fn
from repro.core.pairmemo import PairVerdictMemo
from repro.core.pairwise_fn import PairwiseComputation
from repro.datasets import generate_spotsigs
from repro.distance import CosineDistance, JaccardDistance, ThresholdRule
from repro.serve import ResolverSession
from tests.conftest import make_shingle_store, make_vector_store


def _random_case(kind, seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(3, 20, size=rng.integers(2, 5)))
    noise = int(rng.integers(10, 40))
    if kind == "vector":
        store, _ = make_vector_store(cluster_sizes=sizes, n_noise=noise, seed=seed)
        rule = ThresholdRule(CosineDistance("vec"), float(rng.uniform(0.03, 0.12)))
    else:
        store, _ = make_shingle_store(cluster_sizes=sizes, n_noise=noise, seed=seed)
        rule = ThresholdRule(JaccardDistance("shingles"), float(rng.uniform(0.3, 0.6)))
    return store, rule


def detach_memo(monkeypatch):
    """Build every :class:`AdaptiveLSH` of the rest of the test without
    a working pair memo: its pairwise function gets none, the lookahead
    sampler sees a disabled one, and sessions do not carry one across
    an extension — the memo-off side of every comparison here."""
    install = AdaptiveLSH._install_prepared_state

    def install_detached(self):
        install(self)
        self._pairwise.memo = None
        self._pair_memo.disabled = True

    monkeypatch.setattr(AdaptiveLSH, "_install_prepared_state", install_detached)
    monkeypatch.setattr(AdaptiveLSH, "adopt_pair_memo", lambda self, memo: None)


def _memo_off_then_on(monkeypatch, run):
    """``run()`` with the memo detached, then with it attached."""
    with monkeypatch.context() as patch:
        detach_memo(patch)
        off = run()
    return off, run()


def _bound_memo(store, rule):
    memo = PairVerdictMemo()
    memo.bind(store, rule)
    return memo


def _assert_identical(expected, actual):
    """Bit-identity: same cluster count, content, and order."""
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert np.array_equal(a, b)


def _cluster_lists(result):
    return [c.rids.tolist() for c in result.clusters]


@pytest.mark.parametrize("kind", ["vector", "shingles"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("chunks", ["one", "many"])
def test_cold_and_warm_match_memo_off(kind, seed, chunks, monkeypatch):
    """One row chunk or many, cold memo (every pair unknown) and warm
    memo (every pair remembered) reproduce the memo-off output exactly."""
    store, rule = _random_case(kind, seed)
    rids = store.rids
    if chunks == "many":
        # Row chunks of 32 rows, so these modest stores span several.
        monkeypatch.setattr(pairwise_fn, "_CROSS_CELL_CHUNK", 32 * rids.size)

    baseline = PairwiseComputation(store, rule).apply(rids)

    memo = _bound_memo(store, rule)
    memoized = PairwiseComputation(store, rule, memo=memo)
    _assert_identical(baseline, memoized.apply(rids))  # cold
    warm = memoized.apply(rids)  # every verdict remembered
    _assert_identical(baseline, warm)
    assert memo.hits > 0, "warm pass did not consult the memo"


@pytest.mark.parametrize("seed", range(3))
def test_partially_warm_blocked_match_memo_off(seed, monkeypatch):
    """The interesting regime: some pairs remembered, some not.  Warm
    the memo on a subset, then apply to the full set in row chunks
    ("blocks") of 32 rows — chunks mixing known and unknown pairs
    evaluate only the unknown ones, and the output must still equal the
    memo-off one."""
    store, rule = _random_case("shingles", seed)
    rids = store.rids
    monkeypatch.setattr(pairwise_fn, "_CROSS_CELL_CHUNK", 32 * rids.size)
    baseline = PairwiseComputation(store, rule).apply(rids)

    rng = np.random.default_rng(seed + 100)
    for frac in (0.25, 0.5, 0.9):
        memo = _bound_memo(store, rule)
        subset = rids[rng.random(rids.size) < frac]
        pc = PairwiseComputation(store, rule, memo=memo)
        if subset.size >= 2:
            pc.apply(subset)  # warms only the subset's pairs
        _assert_identical(baseline, pc.apply(rids))


@pytest.mark.parametrize("method_seed", [3, 9])
def test_adaptive_run_identical_across_memo(method_seed, tiny_spotsigs, monkeypatch):
    """End-to-end: memo off and on — one answer, counter for counter on
    the cold pass."""
    dataset = tiny_spotsigs

    def run():
        config = AdaptiveConfig(seed=method_seed, cost_model="analytic")
        with AdaptiveLSH(dataset.store, dataset.rule, config=config) as m:
            return m.run(4)

    results = _memo_off_then_on(monkeypatch, run)
    outputs = [_cluster_lists(result) for result in results]
    compared = [int(result.counters.pairs_compared) for result in results]
    assert all(out == outputs[0] for out in outputs[1:])
    # Cold runs evaluate every pair exactly once, memo or not.
    assert len(set(compared)) == 1


def test_repeated_refine_of_resolved_clusters_is_free(tiny_spotsigs, monkeypatch):
    """Acceptance criterion: refining an already-resolved clustering
    with a warm memo re-verifies nothing — and still produces exactly
    what a memo-off refine of the same clusters would."""
    dataset = tiny_spotsigs

    def run_and_refine():
        config = AdaptiveConfig(seed=3, cost_model="analytic")
        with AdaptiveLSH(dataset.store, dataset.rule, config=config) as m:
            first = m.run(4)
            return m.refine([(c.rids, 1) for c in first.clusters], 4)

    baseline, again = _memo_off_then_on(monkeypatch, run_and_refine)
    assert _cluster_lists(again) == _cluster_lists(baseline)
    assert int(again.counters.pairs_compared) == 0
    assert again.pair_memo_stats is not None
    assert again.pair_memo_stats["hits"] > 0


def _stream_queries(dataset, **knobs):
    """Records stream in three batches with a top-4 query after each:
    every query's clusters, the total pairs compared, and the memo."""
    batches = np.array_split(np.arange(len(dataset.store), dtype=np.int64), 3)
    config = AdaptiveConfig(seed=3, cost_model="analytic", **knobs)
    stream = StreamingTopK(dataset.store, dataset.rule, config=config)
    outputs, compared = [], 0
    try:
        for batch in batches:
            stream.insert_many(batch)
            result = stream.top_k(4)
            outputs.append(_cluster_lists(result))
            compared += int(result.counters.pairs_compared)
    finally:
        stream.method.close()
    return outputs, compared, stream.method.pair_memo


@pytest.mark.parametrize("data_seed", [0, 5])
def test_streaming_insert_then_refine_identical(data_seed, monkeypatch):
    """The motivating scenario: records stream in batches with a query
    after each batch.  Every query's output is bit-identical memo on vs
    off, and the memoized replay does strictly less verification."""
    dataset = generate_spotsigs(n_records=360, seed=data_seed)
    (off_outputs, off_compared, _), (on_outputs, on_compared, _) = (
        _memo_off_then_on(monkeypatch, lambda: _stream_queries(dataset))
    )
    assert on_outputs == off_outputs
    assert on_compared < off_compared


def test_zero_budget_memo_compares_like_no_memo(monkeypatch):
    """``pair_memo_bytes=0`` remembers nothing: the streaming scenario
    compares exactly the pairs it compares with the memo detached."""
    dataset = generate_spotsigs(n_records=360, seed=0)
    with monkeypatch.context() as patch:
        detach_memo(patch)
        off_outputs, off_compared, _ = _stream_queries(dataset)
    outputs, compared, memo = _stream_queries(dataset, pair_memo_bytes=0)
    assert outputs == off_outputs
    assert compared == off_compared
    assert memo.frozen
    assert memo.pairs == 0
    assert memo.hits == 0
    assert memo.evictions > 0


def test_session_snapshot_restore_and_extension_identical(monkeypatch):
    """`ResolverSession.extend_store` snapshots, restores, and re-seats
    the memo; served results must match the memo-off session before and
    after the extension."""
    base = generate_spotsigs(n_records=300, seed=4)
    extra = generate_spotsigs(n_records=120, seed=17)

    def serve():
        config = AdaptiveConfig(seed=3, cost_model="analytic")
        with ResolverSession(base.store, base.rule, config=config) as s:
            before = _cluster_lists(s.top_k(4))
            s.extend_store(extra.store)
            after_result = s.top_k(4)
            return before, _cluster_lists(after_result), after_result

    (off_before, off_after, _), (on_before, on_after, on_result) = (
        _memo_off_then_on(monkeypatch, serve)
    )
    assert on_before == off_before
    assert on_after == off_after
    stats = on_result.pair_memo_stats
    assert stats is not None
    # The re-bind across the restore kept the table: verdicts from the
    # pre-extension rounds still serve.
    assert stats["invalidations"] == 0
    assert stats["hits"] > 0
