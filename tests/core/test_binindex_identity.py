"""End-to-end identity: final clusters — the partition in the canonical
order, members ascending and clusters by smallest rid — are identical
between the bin index and the reference grouping of
``tests/lsh/keyref.py`` (the per-table forest replay and the streaming
dict tables), on the production and reference kernels, across snapshot
restore, streaming inserts, serving-session store extensions and the
LSH-X baseline; and the fingerprints and key words the bin index reads
straight from the signature pools equal the ones defined over packed
key rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AdaptiveConfig, AdaptiveLSH
from repro.baselines import LSHBlocking
from repro.datasets import generate_cora, generate_popular_images, generate_spotsigs
from repro.lsh.binindex import SchemeBinIndex, key_words, table_fingerprints
from repro.online import StreamingTopK
from repro.serve import IndexSnapshot, ResolverSession
from repro.structures.union_find import UnionFind
from tests.kernels.reference import use_reference_kernels
from tests.lsh.keyref import (
    FAMILIES,
    _table_fingerprints,
    build_scheme,
    canonical,
    dict_partition,
    family_pools,
    mixed_store,
    roots_of,
    scheme_specs,
    table_key_rows,
    table_words,
    use_reference_grouping,
)


def _clusters(result):
    return [tuple(int(r) for r in c.rids) for c in result.clusters]


def _reference_then_production(monkeypatch, run):
    """``run()`` through the reference grouping, then through the bin
    index."""
    with monkeypatch.context() as patch:
        use_reference_grouping(patch)
        reference = run()
    return reference, run()


def _run(dataset, k=3):
    config = AdaptiveConfig(seed=7, cost_model="analytic")
    with AdaptiveLSH(dataset.store, dataset.rule, config=config) as method:
        result = method.run(k)
    return result


@pytest.mark.parametrize("generate", [generate_cora, generate_spotsigs])
def test_bin_index_on_off_identical(generate, monkeypatch):
    dataset = generate(n_records=300, seed=1)
    off, on = _reference_then_production(monkeypatch, lambda: _run(dataset))
    assert _clusters(off) == _clusters(on)
    assert off.counters.pairs_compared == on.counters.pairs_compared
    assert off.counters.hashes_computed == on.counters.hashes_computed
    assert off.counters.table_inserts == on.counters.table_inserts
    # The reference never touched the bin index.
    assert off.bin_index_stats["tables_grouped"] == 0
    stats = on.bin_index_stats
    assert stats["tables_grouped"] > 0
    assert stats["degraded"] == 0


@pytest.mark.parametrize("kernels", ["numpy", "packed"])
def test_bin_index_identical_per_kernel_backend(kernels, monkeypatch):
    # "numpy" replays the run on the reference kernels of tests/kernels.
    if kernels == "numpy":
        use_reference_kernels(monkeypatch)
    dataset = generate_spotsigs(n_records=300, seed=2)
    off, on = _reference_then_production(monkeypatch, lambda: _run(dataset))
    assert _clusters(off) == _clusters(on)


def test_zero_byte_budget_degrades_identically():
    dataset = generate_cora(n_records=250, seed=3)
    on = _run(dataset)
    config = AdaptiveConfig(seed=7, cost_model="analytic")
    with AdaptiveLSH(dataset.store, dataset.rule, config=config) as method:
        method.bin_index.max_bytes = 0
        broke = method.run(3)
    assert _clusters(on) == _clusters(broke)
    assert broke.bin_index_stats["degraded"] > 0
    assert broke.bin_index_stats["bytes"] == 0


def test_snapshot_restore_keeps_identity():
    dataset = generate_spotsigs(n_records=250, seed=4)
    config = AdaptiveConfig(seed=5, cost_model="analytic")
    with AdaptiveLSH(dataset.store, dataset.rule, config=config) as cold:
        cold_result = cold.run(3)
        snapshot = IndexSnapshot.capture(cold)
    warm = snapshot.restore(dataset.store)
    try:
        warm_result = warm.run(3)
    finally:
        warm.close()
    assert _clusters(cold_result) == _clusters(warm_result)
    assert warm_result.bin_index_stats["tables_grouped"] > 0


def test_streaming_identical_on_off(monkeypatch):
    dataset = generate_cora(n_records=300, seed=6)
    rids = np.arange(len(dataset.store), dtype=np.int64)

    def stream_queries():
        config = AdaptiveConfig(seed=6, cost_model="analytic")
        stream = StreamingTopK(dataset.store, dataset.rule, config=config)
        try:
            per_query = []
            for batch in np.array_split(rids, 4):
                stream.insert_many(batch)
                per_query.append(
                    [c.tolist() for c in stream.current_clusters()]
                )
                per_query.append(_clusters(stream.top_k(3)))
            indexed = stream.delta_index.indexed_records
        finally:
            stream.method.close()
        return per_query, indexed

    (off, off_indexed), (on, on_indexed) = _reference_then_production(
        monkeypatch, stream_queries
    )
    assert off == on
    assert off_indexed == 0
    assert on_indexed == rids.size


def _extend_twice(monkeypatch, records, extension, data_seed, k):
    """A session over the head of ``spotsigs(records)`` extended twice
    by ``extension`` records, with a query before and after each
    extension, through the reference grouping and then the bin index.
    Returns the production session's bin-index stats and ``H_1`` table
    count."""
    full = generate_spotsigs(n_records=records, seed=data_seed)
    n_mid = records - extension
    n_head = n_mid - extension
    head = full.store.take(np.arange(n_head))
    ext1 = full.store.take(np.arange(n_head, n_mid))
    ext2 = full.store.take(np.arange(n_mid, records))

    def serve():
        config = AdaptiveConfig(seed=3, cost_model="analytic")
        with ResolverSession(head, full.rule, config=config) as session:
            got = [_clusters(session.top_k(k))]
            session.extend_store(ext1)
            got.append(_clusters(session.top_k(k)))
            session.extend_store(ext2)
            got.append(_clusters(session.top_k(k)))
            carried = session._stream.carried
            stats = session.serving_stats()["bin_index"]
            tables = session._stream.delta_index.export_state()["table_count"]
        return got, carried, stats, tables

    (off, off_carried, _, _), (on, on_carried, stats, tables) = (
        _reference_then_production(monkeypatch, serve)
    )
    assert off == on
    assert not off_carried
    assert on_carried
    return stats, tables


def test_session_extension_identical_and_carried(monkeypatch):
    stats, tables = _extend_twice(monkeypatch, 500, 100, data_seed=7, k=4)
    # Only the second extension's rows went through the delta insert —
    # a full re-group would touch them all.
    assert stats["delta"]["rows"] == 100 * tables


@pytest.mark.parametrize(
    "records,extension,delta_rows,full_rows",
    [(600, 100, 2000, 12000), (2000, 250, 5000, 40000)],
)
def test_session_extension_bench_scenario(
    monkeypatch, records, extension, delta_rows, full_rows
):
    """The serving scenario of the archived ``BENCH_binning.json``
    (spotsigs(600), two extensions of 100, top-5) and its larger
    variant: the latest extension's delta insert grouped
    ``extension x tables`` rows against ``records x tables`` for a full
    re-group (2000 vs 12000, ratio 0.1667, at the archived size)."""
    stats, tables = _extend_twice(monkeypatch, records, extension, 0, k=5)
    assert stats["delta"]["rows"] == delta_rows
    assert records * tables == full_rows


def _images(n_records, seed):
    return generate_popular_images(
        n_records=n_records, n_popular=30, top1_size=20, seed=seed
    )


@pytest.mark.parametrize(
    "generate,n_hashes",
    [(generate_cora, 1280), (_images, 2560)],
    ids=["cora-LSH1280", "images-LSH2560"],
)
def test_lsh_blocking_identical_to_reference(monkeypatch, generate, n_hashes):
    """The LSH-X baseline groups through a level-1 bin index; its
    candidate clusters (LSH-X-nP, every cluster) and verified top-k are
    byte-identical to the forest replay's."""
    dataset = generate(n_records=400, seed=2)
    n = len(dataset.store)

    def run():
        candidates = LSHBlocking(
            dataset.store, dataset.rule, n_hashes, verify=False, seed=3
        ).run(n)
        verified = LSHBlocking(dataset.store, dataset.rule, n_hashes, seed=3).run(5)
        return _clusters(candidates), _clusters(verified)

    reference, production = _reference_then_production(monkeypatch, run)
    assert reference == production
    assert len(reference[0]) < n


def _assert_pool_path_matches_rows(scheme, rids):
    rows, layout = table_key_rows(scheme, rids)
    np.testing.assert_array_equal(
        table_fingerprints(scheme, rids), _table_fingerprints(rows, layout)
    )
    tables = np.repeat(np.arange(scheme.table_count), rids.size)
    positions = np.tile(np.arange(rids.size), scheme.table_count)
    expected = table_words(rows, layout, tables, positions)
    np.testing.assert_array_equal(
        key_words(scheme, tables, rids[positions]), expected
    )
    np.testing.assert_array_equal(
        key_words(scheme, tables, rids, positions), expected
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 30), spec=scheme_specs)
def test_pool_fingerprints_equal_row_fingerprints(seed, n, spec):
    store = mixed_store(n, seed)
    scheme = build_scheme(family_pools(store, seed), spec)
    rids = np.random.default_rng(seed).permutation(n).astype(np.int64)
    _assert_pool_path_matches_rows(scheme, rids)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("w,z", [(1, 1), (1, 9), (2, 4), (3, 3), (8, 2)])
def test_pool_fingerprints_every_family_and_shape(family, w, z):
    store = mixed_store(25, 1)
    scheme = build_scheme(family_pools(store, 1), [(z, [(family, w, 1)])])
    _assert_pool_path_matches_rows(scheme, np.arange(25, dtype=np.int64)[::-1])


def test_delta_state_from_row_fingerprints_adopts():
    """A delta state whose fingerprints were computed from packed key
    rows (an export taken before fingerprints came from the pools)
    still adopts and gives the dict-table partition."""
    store = mixed_store(80, 2)
    scheme = build_scheme(
        family_pools(store, 2), [(6, [("minhash", 2, 0)]), (2, [("hyperplane", 3, 0)])]
    )
    n = len(store)
    rids = np.random.default_rng(4).permutation(n).astype(np.int64)
    first, rest = rids[:50], rids[50:]
    fps = _table_fingerprints(*table_key_rows(scheme, first))
    order = np.argsort(fps, axis=0, kind="stable")
    state = {
        "table_count": scheme.table_count,
        "fps": [fps[order[:, t], t] for t in range(scheme.table_count)],
        "rids": [first[order[:, t]] for t in range(scheme.table_count)],
    }
    uf = UnionFind(n)
    for a, b in enumerate(dict_partition(scheme, [first], n)):
        uf.union(a, b)
    delta = SchemeBinIndex(n).h1_delta(scheme)
    assert delta.adopt_state(state)
    assert delta.indexed_records == first.size
    delta.insert(rest, uf)
    assert canonical(roots_of(uf, n)) == canonical(
        dict_partition(scheme, [rids], n)
    )
