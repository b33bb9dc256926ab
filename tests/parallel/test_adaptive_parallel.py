"""End-to-end determinism: AdaptiveLSH with the bin index's
fingerprint cache returns exactly the uncached result."""

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


def test_fingerprint_cache_hits_on_rerun_and_preserves_output():
    store, rule = _setup()
    method = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=2, cost_model="analytic"))
    first = method.run(5)
    assert first.info["bin_index"]["fp_misses"] > 0
    assert first.info["bin_index"]["fp_hits"] == 0
    second = method.run(5)
    assert second.info["bin_index"]["fp_hits"] > 0
    assert _clusters(first) == _clusters(second)

    # No room for fingerprint matrices: every level is a pass-through.
    uncached = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=2, cost_model="analytic"))
    uncached.bin_index.max_bytes = 0
    passthrough = uncached.run(5)
    assert passthrough.info["bin_index"]["bytes"] == 0
    assert passthrough.info["bin_index"]["degraded"] > 0
    assert "signature_cache" not in passthrough.info
    assert _clusters(first) == _clusters(passthrough)


def test_incremental_refine_reuses_cache():
    store, rule = _setup()
    method = AdaptiveLSH(store, rule, config=AdaptiveConfig(seed=2, cost_model="analytic"))
    result = method.run(5)
    refined = method.refine(
        [(c.rids, int(np.int64(1))) for c in result.clusters], 3
    )
    assert refined.info["bin_index"]["fp_hits"] > 0
    assert refined.output_size > 0
