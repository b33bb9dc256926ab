"""End-to-end identity: the production kernels and the reference oracle
(``tests/kernels/reference.py``) give bit-identical signatures,
distances, verdicts and final clusters — across snapshot restore,
under streaming inserts and across session store extensions.

Each "numpy" side swaps the reference kernels in with
:func:`use_reference_kernels`; "packed" is the production path.
"""

import numpy as np
import pytest

from repro import AdaptiveConfig, AdaptiveLSH, adaptive_filter
from repro.datasets import generate_cora, generate_spotsigs
from repro.distance.jaccard import JaccardDistance
from repro.lsh.minhash import MinHashFamily
from repro.online import StreamingTopK
from repro.serve import IndexSnapshot, ResolverSession
from tests.kernels.reference import use_reference_kernels


def _clusters(result):
    return [tuple(int(r) for r in c.rids) for c in result.clusters]


def _run(dataset, k=3):
    config = AdaptiveConfig(seed=7, cost_model="analytic")
    with AdaptiveLSH(dataset.store, dataset.rule, config=config) as method:
        result = method.run(k)
    return result


def _both(monkeypatch, fn):
    """``(reference, production)`` outputs of ``fn()``."""
    fast = fn()
    with monkeypatch.context() as patch:
        use_reference_kernels(patch)
        ref = fn()
    return ref, fast


@pytest.mark.parametrize("generate", [generate_cora, generate_spotsigs])
def test_backends_produce_identical_clusters(generate, monkeypatch):
    dataset = generate(n_records=300, seed=1)
    ref, fast = _both(monkeypatch, lambda: _run(dataset))
    assert _clusters(ref) == _clusters(fast)
    assert ref.counters.pairs_compared == fast.counters.pairs_compared
    assert ref.counters.hashes_computed == fast.counters.hashes_computed
    assert "kernels" not in fast.info


#: Shingle field checked by the signature kernel, per generator.
SIG_FIELDS = {"cora": "title", "spotsigs": "signatures"}


@pytest.mark.parametrize(
    "name, generate", [("cora", generate_cora), ("spotsigs", generate_spotsigs)]
)
def test_fixed_inputs_identical(name, generate, monkeypatch):
    # Fixed inputs at 1,000 records: 128 hashes for every record, 65,536
    # random pairs, and a seeded top-5 run.
    dataset = generate(n_records=1000, seed=0)
    store, rule = dataset.store, dataset.rule
    field = SIG_FIELDS[name]
    rids = np.arange(len(store), dtype=np.int64)
    rng = np.random.default_rng(0)
    pair_a = rng.integers(0, len(store), size=1 << 16).astype(np.int64)
    pair_b = rng.integers(0, len(store), size=1 << 16).astype(np.int64)
    dist = JaccardDistance(field)

    def outputs():
        family = MinHashFamily(store, field, seed=0)
        config = AdaptiveConfig(seed=3, cost_model="analytic")
        result = adaptive_filter(store, rule, 5, config=config)
        return (
            family.compute(rids, 0, 128),
            dist.pairs(store, pair_a, pair_b),
            rule.match_pairs(store, pair_a, pair_b),
            _clusters(result),
        )

    ref, fast = _both(monkeypatch, outputs)
    assert np.array_equal(ref[0], fast[0]), "signatures differ"
    assert np.array_equal(ref[1], fast[1]), "distances differ"
    assert np.array_equal(ref[2], fast[2]), "match verdicts differ"
    assert ref[3] == fast[3], "final clusters differ"


def test_snapshot_restore_honours_kernel_override(monkeypatch):
    # Captured from a run on the reference kernels, restored and run on
    # the production ones.
    dataset = generate_spotsigs(n_records=250, seed=3)
    config = AdaptiveConfig(seed=4, cost_model="analytic")
    with monkeypatch.context() as patch:
        use_reference_kernels(patch)
        with AdaptiveLSH(dataset.store, dataset.rule, config=config) as cold:
            cold_result = cold.run(3)
            snapshot = IndexSnapshot.capture(cold)
    warm = snapshot.restore(dataset.store)
    try:
        warm_result = warm.run(3)
    finally:
        warm.close()
    assert _clusters(cold_result) == _clusters(warm_result)


def test_streaming_identical_across_backends(monkeypatch):
    dataset = generate_cora(n_records=240, seed=5)
    rids = np.arange(len(dataset.store), dtype=np.int64)

    def stream_queries():
        config = AdaptiveConfig(seed=6, cost_model="analytic")
        stream = StreamingTopK(dataset.store, dataset.rule, config=config)
        try:
            per_query = []
            for batch in np.array_split(rids, 3):
                stream.insert_many(batch)
                per_query.append(_clusters(stream.top_k(3)))
        finally:
            stream.method.close()
        return per_query

    ref, fast = _both(monkeypatch, stream_queries)
    assert ref == fast


def test_session_extension_identical_across_backends(monkeypatch):
    full = generate_cora(n_records=360, seed=8)
    head = full.store.take(np.arange(240))
    ext = full.store.take(np.arange(240, len(full.store)))

    def session_queries():
        config = AdaptiveConfig(seed=9, cost_model="analytic")
        with ResolverSession(head, full.rule, config=config) as session:
            got = [_clusters(session.top_k(4))]
            session.extend_store(ext)
            got.append(_clusters(session.top_k(4)))
        return got

    ref, fast = _both(monkeypatch, session_queries)
    assert ref == fast
