"""End-to-end identity: final clusters are bit-identical with the bin
index on and off, on the production and reference kernels, across
worker counts, snapshot
restore, streaming inserts, and serving-session store extensions; and
the fingerprints and key words the bin index reads straight from the
signature pools equal the ones defined over packed key rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AdaptiveConfig, AdaptiveLSH
from repro.datasets import generate_cora, generate_spotsigs
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
    table_words,
)


def _clusters(result):
    return [tuple(int(r) for r in c.rids) for c in result.clusters]


def _run(dataset, bin_index, n_jobs=None, k=3):
    config = AdaptiveConfig(
        seed=7,
        cost_model="analytic",
        bin_index=bin_index,
        n_jobs=n_jobs,
    )
    with AdaptiveLSH(dataset.store, dataset.rule, config=config) as method:
        result = method.run(k)
    return result


@pytest.mark.parametrize("generate", [generate_cora, generate_spotsigs])
@pytest.mark.parametrize("n_jobs", [None, 2])
def test_bin_index_on_off_identical(generate, n_jobs):
    dataset = generate(n_records=300, seed=1)
    off = _run(dataset, False, n_jobs=n_jobs)
    on = _run(dataset, True, n_jobs=n_jobs)
    assert _clusters(off) == _clusters(on)
    assert off.counters.pairs_compared == on.counters.pairs_compared
    assert off.counters.hashes_computed == on.counters.hashes_computed
    assert off.bin_index_stats is None
    stats = on.bin_index_stats
    assert stats is not None
    assert stats["tables_grouped"] > 0
    assert stats["degraded"] == 0


@pytest.mark.parametrize("kernels", ["numpy", "packed"])
def test_bin_index_identical_per_kernel_backend(kernels, monkeypatch):
    # "numpy" replays the run on the reference kernels of tests/kernels.
    if kernels == "numpy":
        use_reference_kernels(monkeypatch)
    dataset = generate_spotsigs(n_records=300, seed=2)
    off = _run(dataset, False)
    on = _run(dataset, True)
    assert _clusters(off) == _clusters(on)


def test_zero_byte_budget_degrades_identically():
    dataset = generate_cora(n_records=250, seed=3)
    on = _run(dataset, True)
    config = AdaptiveConfig(
        seed=7, cost_model="analytic", bin_index=True, bin_index_bytes=0
    )
    with AdaptiveLSH(dataset.store, dataset.rule, config=config) as method:
        broke = method.run(3)
    assert _clusters(on) == _clusters(broke)
    assert broke.bin_index_stats["degraded"] > 0
    assert broke.bin_index_stats["bytes"] == 0


def test_snapshot_restore_keeps_identity():
    dataset = generate_spotsigs(n_records=250, seed=4)
    config = AdaptiveConfig(seed=5, cost_model="analytic", bin_index=True)
    with AdaptiveLSH(dataset.store, dataset.rule, config=config) as cold:
        cold_result = cold.run(3)
        snapshot = IndexSnapshot.capture(cold)
    warm = snapshot.restore(dataset.store)
    try:
        warm_result = warm.run(3)
    finally:
        warm.close()
    assert _clusters(cold_result) == _clusters(warm_result)
    assert warm_result.bin_index_stats is not None


def test_streaming_identical_on_off():
    dataset = generate_cora(n_records=300, seed=6)
    rids = np.arange(len(dataset.store), dtype=np.int64)
    outputs = []
    for bin_index in (False, True):
        config = AdaptiveConfig(
            seed=6, cost_model="analytic", bin_index=bin_index
        )
        stream = StreamingTopK(dataset.store, dataset.rule, config=config)
        try:
            per_query = []
            for batch in np.array_split(rids, 4):
                stream.insert_many(batch)
                per_query.append(
                    [c.tolist() for c in stream.current_clusters()]
                )
                per_query.append(_clusters(stream.top_k(3)))
            assert (stream.delta_index is not None) is bin_index
        finally:
            stream.method.close()
        outputs.append(per_query)
    assert outputs[0] == outputs[1]


def test_session_extension_identical_and_carried():
    full = generate_spotsigs(n_records=500, seed=7)
    n_head, n_mid = 300, 400
    head = full.store.take(np.arange(n_head))
    ext1 = full.store.take(np.arange(n_head, n_mid))
    ext2 = full.store.take(np.arange(n_mid, len(full.store)))
    outputs = []
    for bin_index in (False, True):
        config = AdaptiveConfig(
            seed=3, cost_model="analytic", bin_index=bin_index
        )
        with ResolverSession(head, full.rule, config=config) as session:
            got = [_clusters(session.top_k(4))]
            session.extend_store(ext1)
            got.append(_clusters(session.top_k(4)))
            session.extend_store(ext2)
            got.append(_clusters(session.top_k(4)))
            if bin_index:
                assert session._stream is not None
                assert session._stream.carried
                stats = session.serving_stats()["bin_index"]
                # Only the second extension's rows went through the
                # delta insert — a full re-group would touch them all.
                assert stats["delta"]["rows"] == (
                    (len(full.store) - n_mid)
                    * session._stream.delta_index.export_state()[
                        "table_count"
                    ]
                )
            else:
                assert session.serving_stats()["bin_index"] is None
        outputs.append(got)
    assert outputs[0] == outputs[1]


def _assert_pool_path_matches_rows(scheme, rids):
    rows, layout = scheme.table_key_rows(rids)
    np.testing.assert_array_equal(
        table_fingerprints(scheme, rids), _table_fingerprints(rows, layout)
    )
    tables = np.repeat(np.arange(scheme.table_count), rids.size)
    positions = np.tile(np.arange(rids.size), scheme.table_count)
    np.testing.assert_array_equal(
        key_words(scheme, tables, rids[positions]),
        table_words(rows, layout, tables, positions),
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
    fps = _table_fingerprints(*scheme.table_key_rows(first))
    order = np.argsort(fps, axis=0, kind="stable")
    state = {
        "table_count": scheme.table_count,
        "fps": [fps[order[:, t], t] for t in range(scheme.table_count)],
        "rids": [first[order[:, t]] for t in range(scheme.table_count)],
    }
    uf = UnionFind(n)
    for a, b in enumerate(dict_partition(scheme, [first], n)):
        uf.union(a, b)
    delta = SchemeBinIndex(n).h1_delta(scheme, state=state)
    assert delta is not None
    assert delta.indexed_records == first.size
    assert delta.insert(rest, uf)
    assert canonical(roots_of(uf, n)) == canonical(
        dict_partition(scheme, [rids], n)
    )
