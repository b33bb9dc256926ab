"""End-to-end determinism: AdaptiveLSH with workers and/or the bin
index's fingerprint cache returns exactly the serial result."""

import numpy as np

from repro.core import AdaptiveLSH
from repro.distance import JaccardDistance, ThresholdRule
from tests.conftest import make_shingle_store
from repro.core.config import AdaptiveConfig


def _clusters(result):
    return [tuple(int(r) for r in c.rids) for c in result.clusters]


def _setup():
    store, _ = make_shingle_store(
        cluster_sizes=(30, 20, 12, 8, 5), n_noise=60, seed=9
    )
    return store, ThresholdRule(JaccardDistance("shingles"), 0.4)


def test_n_jobs_run_is_bit_identical():
    store, rule = _setup()
    serial = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=2, cost_model="analytic")).run(5)
    with AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=2, cost_model="analytic", n_jobs=2)) as method:
        # Drop the size thresholds so this test-size store actually
        # dispatches instead of falling back to serial.
        assert method._exec_pool is not None
        method._exec_pool.min_signature_work = 0
        method._exec_pool.min_signature_rows = 1
        method._exec_pool.min_pairwise_rows = 2
        parallel = method.run(5)
    stats = parallel.info["parallel"]
    assert stats["n_jobs"] == 2
    assert stats["tasks_dispatched"] > 0
    assert _clusters(serial) == _clusters(parallel)
    assert serial.counters.pairs_compared == parallel.counters.pairs_compared
    assert serial.counters.table_inserts == parallel.counters.table_inserts


def test_fingerprint_cache_hits_on_rerun_and_preserves_output():
    store, rule = _setup()
    method = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=2, cost_model="analytic"))
    first = method.run(5)
    assert first.info["bin_index"]["fp_misses"] > 0
    assert first.info["bin_index"]["fp_hits"] == 0
    second = method.run(5)
    assert second.info["bin_index"]["fp_hits"] > 0
    assert _clusters(first) == _clusters(second)

    unindexed = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=2, cost_model="analytic", bin_index=False)).run(5)
    assert "bin_index" not in unindexed.info
    assert "signature_cache" not in unindexed.info
    assert _clusters(first) == _clusters(unindexed)


def test_env_knob_reaches_adaptive(monkeypatch):
    from repro.parallel.pool import N_JOBS_ENV

    store, rule = _setup()
    monkeypatch.setenv(N_JOBS_ENV, "2")
    method = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=2, cost_model="analytic"))
    try:
        assert method.n_jobs == 2
        assert method._exec_pool is not None
    finally:
        method.close()
    monkeypatch.delenv(N_JOBS_ENV)
    serial = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=2, cost_model="analytic"))
    assert serial.n_jobs == 1
    assert serial._exec_pool is None


def test_incremental_refine_reuses_cache():
    store, rule = _setup()
    method = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=2, cost_model="analytic"))
    result = method.run(5)
    refined = method.refine(
        [(c.rids, int(np.int64(1))) for c in result.clusters], 3
    )
    assert refined.info["bin_index"]["fp_hits"] > 0
    assert refined.output_size > 0
