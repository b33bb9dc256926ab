"""The chunked early exit of a transitive hashing function.

``TransitiveHashingFunction.apply`` groups a level's tables in doubling
chunks and stops once its input is one component.  These tests force
many chunks by setting :data:`repro.lsh.binindex.FLOOR` to 1 (the first
chunk is then one table) and check that the output partition, in the
canonical order, equals the reference per-table forest replay; that an
input which becomes one component skips the tables after it, without
hashing them; that an input which splits runs every table; and that the
per-record fingerprint prefixes a level caches serve later queries and
grow only by the tables past them.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AdaptiveConfig, AdaptiveLSH
from repro.core.result import WorkCounters
from repro.core.transitive import TransitiveHashingFunction
from repro.datasets import generate_cora, generate_spotsigs
from repro.lsh import binindex
from repro.lsh.binindex import SchemeBinIndex, table_chunks, table_fingerprints
from repro.lsh.families import SignaturePool
from repro.lsh.minhash import MinHashFamily
from repro.lsh.scheme import HashingScheme, PoolUse, TableGroup
from repro.records import FieldKind, FieldSpec, RecordStore, Schema
from repro.structures.union_find import UnionFind
from tests.lsh.keyref import (
    build_scheme,
    canonical,
    dict_partition,
    family_pools,
    mixed_store,
    reference_apply,
    roots_of,
    scheme_specs,
    use_reference_grouping,
)


def forced_chunks(floor=1):
    """Every application groups its tables in chunks of 1, 2, 4, ...
    tables (for ``floor=1``)."""
    return mock.patch.object(binindex, "FLOOR", floor)


def function_over(scheme, n):
    return TransitiveHashingFunction(
        1, SimpleNamespace(to_scheme=lambda: scheme), SchemeBinIndex(n).level(1)
    )


def pool_hashes(scheme):
    pools = {id(use.pool): use.pool for g in scheme.groups for use in g.uses}
    return sum(pool.hashes_computed for pool in pools.values())


def test_table_chunks_double_from_the_floor():
    with forced_chunks(10):
        assert list(table_chunks(3, 30)) == [(0, 4), (4, 12), (12, 28), (28, 30)]
        # At most FLOOR entries: one chunk, the whole scheme.
        assert list(table_chunks(2, 5)) == [(0, 5)]
    with forced_chunks(1):
        assert list(table_chunks(50, 7)) == [(0, 1), (1, 3), (3, 7)]
    assert list(table_chunks(0, 3)) == [(0, 3)]


def test_scheme_tables_read_the_same_keys():
    """Table j of ``scheme.tables(a, b)`` is table a + j of ``scheme``,
    also when the range cuts through groups with offsets."""
    store = mixed_store(30, 4)
    scheme = build_scheme(
        family_pools(store, 4),
        [(3, [("minhash", 2, 1)]), (4, [("hyperplane", 3, 2), ("minhash", 1, 0)])],
    )
    rids = np.arange(30, dtype=np.int64)
    full = table_fingerprints(scheme, rids)
    for a in range(scheme.table_count):
        for b in range(a + 1, scheme.table_count + 1):
            np.testing.assert_array_equal(
                table_fingerprints(scheme.tables(a, b), rids), full[:, a:b]
            )
    assert scheme.tables(0, scheme.table_count) is scheme


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 40),
    spec=scheme_specs,
    data=st.data(),
)
def test_forced_chunks_match_forest_reference(seed, n, spec, data):
    store = mixed_store(n, seed)
    chunked = build_scheme(family_pools(store, seed), spec)
    reference = build_scheme(family_pools(store, seed), spec)
    fn, ref = function_over(chunked, n), function_over(reference, n)
    subsets = [
        np.array(
            data.draw(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
            ),
            dtype=np.int64,
        )
        for _ in range(3)
    ]
    with forced_chunks():
        for rids in subsets:
            got = fn.apply(rids)
            want = reference_apply(ref, rids)
            assert [c.tolist() for c in got] == [c.tolist() for c in want]
            assert all(c.dtype == np.int64 for c in got)
    assert pool_hashes(chunked) <= pool_hashes(reference)


def test_chunk_crossing_an_or_group_boundary():
    store = mixed_store(60, 9)
    spec = [(2, [("minhash", 1, 0)]), (3, [("hyperplane", 2, 1), ("pstable", 1, 2)])]
    rids = np.random.default_rng(2).permutation(60).astype(np.int64)
    chunked = function_over(build_scheme(family_pools(store, 9), spec), 60)
    ref = function_over(build_scheme(family_pools(store, 9), spec), 60)
    # Chunks [0, 1), [1, 3) and [3, 5): the second spans both groups.
    with forced_chunks():
        got = chunked.apply(rids)
    want = reference_apply(ref, rids)
    assert [c.tolist() for c in got] == [c.tolist() for c in want]


@pytest.mark.parametrize("generate", [generate_cora, generate_spotsigs])
def test_forced_chunks_end_to_end_identical(generate, monkeypatch):
    dataset = generate(n_records=300, seed=1)

    def run():
        config = AdaptiveConfig(seed=7, cost_model="analytic")
        with AdaptiveLSH(dataset.store, dataset.rule, config=config) as method:
            return method.run(3)

    with monkeypatch.context() as patch:
        use_reference_grouping(patch)
        reference = run()
    with forced_chunks():
        chunked = run()
    assert [c.rids.tolist() for c in chunked.clusters] == [
        c.rids.tolist() for c in reference.clusters
    ]
    assert chunked.counters.pairs_compared == reference.counters.pairs_compared
    assert chunked.counters.rounds == reference.counters.rounds
    assert chunked.counters.hashes_computed <= reference.counters.hashes_computed
    assert chunked.counters.table_inserts <= reference.counters.table_inserts
    stats = chunked.bin_index_stats
    assert stats["tables_skipped"] > 0
    assert stats["rows_grouped"] == chunked.counters.table_inserts


# ----------------------------------------------------------------------
def shingle_scheme(sets, z, w=2, seed=0):
    schema = Schema((FieldSpec("s", FieldKind.SHINGLES),))
    store = RecordStore(schema, {"s": sets})
    pool = SignaturePool(MinHashFamily(store, "s", seed=seed), name="s")
    return pool, HashingScheme([TableGroup(z, (PoolUse(pool, w),))])


def test_one_component_skips_the_remaining_tables():
    """Identical records share every bucket: the first one-table chunk
    already joins them, so the other tables are neither grouped nor
    hashed."""
    n, z, w = 12, 40, 2
    pool, scheme = shingle_scheme([[1, 2, 3]] * n, z, w)
    fn = function_over(scheme, n)
    owner = fn.bin_index.owner
    counters = WorkCounters()
    rids = np.arange(n, dtype=np.int64)[::-1].copy()
    with forced_chunks():
        clusters = fn.apply(rids, counters)
    assert [c.tolist() for c in clusters] == [list(range(n))]
    assert owner.tables_grouped == 1 < scheme.table_count
    assert owner.rows_grouped == n
    assert owner.tables_skipped == (z - 1) * n
    assert counters.table_inserts == n
    assert pool.hashes_computed == n * w
    assert fn.bin_index._state.have[rids].tolist() == [1] * n


def test_input_that_splits_runs_every_table():
    n, z = 12, 40
    pool, scheme = shingle_scheme([[1, 2, 3]] * 6 + [[50, 60, 70]] * 6, z)
    fn = function_over(scheme, n)
    owner = fn.bin_index.owner
    counters = WorkCounters()
    with forced_chunks():
        clusters = fn.apply(np.arange(n, dtype=np.int64), counters)
    assert [c.tolist() for c in clusters] == [list(range(6)), list(range(6, 12))]
    assert owner.tables_grouped == z
    assert owner.tables_skipped == 0
    assert owner.rows_grouped == counters.table_inserts == n * z
    assert pool.hashes_computed == n * z * 2


# ----------------------------------------------------------------------
class TestPrefixCache:
    def test_cached_prefix_is_served_and_extended(self):
        store = mixed_store(40, 5)
        pools = family_pools(store, 5)
        spec = [(3, [("minhash", 2, 0)]), (4, [("hyperplane", 2, 1)])]
        scheme = build_scheme(pools, spec)
        expected = table_fingerprints(
            build_scheme(family_pools(store, 5), spec), np.arange(40)
        )
        owner = SchemeBinIndex(40)
        bins = owner.level(1)
        rids = np.arange(0, 40, 2, dtype=np.int64)

        got = bins.fingerprints(scheme, rids, 0, 2)
        np.testing.assert_array_equal(got, expected[rids, :2])
        assert bins._state.have[rids].tolist() == [2] * rids.size
        assert (pools["minhash"].hashes_computed, owner.fp_misses) == (
            rids.size * 4,
            rids.size,
        )

        # The prefix is served from the cache, without the pools.
        hashed = pool_hashes(scheme)
        again = bins.fingerprints(scheme, rids[:5], 0, 2)
        np.testing.assert_array_equal(again, expected[rids[:5], :2])
        assert owner.fp_hits == 5
        assert pool_hashes(scheme) == hashed

        # Tables past the prefix are computed and appended; fresh rows
        # (no prefix) are computed from the first table.
        mixed = np.arange(10, dtype=np.int64)
        got = bins.fingerprints(scheme, mixed, 1, 5)
        np.testing.assert_array_equal(got, expected[mixed, 1:5])
        assert bins._state.have[mixed].tolist() == [5] * 10
        np.testing.assert_array_equal(
            bins._state.fps[mixed, :5], expected[mixed, :5]
        )
        # Only the tables each row lacked were hashed: rows with the
        # two-table prefix added minhash table 2 (two values) and fresh
        # rows minhash tables 0-2 (six); every row read hyperplane
        # columns [0, 5) (the offset and tables 0-1).
        assert pools["minhash"].hashes_computed == rids.size * 4 + 5 * 2 + 5 * 6
        assert pools["hyperplane"].hashes_computed == 10 * 5
        np.testing.assert_array_equal(
            bins.fingerprints(scheme, mixed), expected[mixed]
        )

    def test_requery_hits_the_first_querys_prefixes(self):
        dataset = generate_cora(n_records=300, seed=2)
        config = AdaptiveConfig(seed=7, cost_model="analytic")
        with forced_chunks(64):
            with AdaptiveLSH(dataset.store, dataset.rule, config=config) as method:
                first = method.run(3).bin_index_stats
                requery = method.run(6)
                again = requery.bin_index_stats
            with AdaptiveLSH(dataset.store, dataset.rule, config=config) as fresh:
                cold = fresh.run(6)
        assert first["tables_skipped"] > 0
        assert again["fp_hits"] > first["fp_hits"]
        assert [c.rids.tolist() for c in requery.clusters] == [
            c.rids.tolist() for c in cold.clusters
        ]
        assert requery.counters.hashes_computed < cold.counters.hashes_computed

    def test_delta_insert_after_chunked_application(self):
        """The first level's delta index asks for every table, so rows
        an early exit left with a short prefix get the rest appended,
        and the stream partition equals the one a fresh index builds."""
        n = 60
        store = mixed_store(n, 8)
        spec = [(4, [("minhash", 1, 0)]), (3, [("hyperplane", 2, 0)])]
        scheme = build_scheme(family_pools(store, 8), spec)
        owner = SchemeBinIndex(n)
        fn = TransitiveHashingFunction(
            1, SimpleNamespace(to_scheme=lambda: scheme), owner.level(1)
        )
        rids = np.random.default_rng(3).permutation(n).astype(np.int64)
        with forced_chunks():
            for part in fn.apply(rids[:30]):
                fn.apply(part)
        assert owner.tables_skipped > 0
        uf = UnionFind(n)
        delta = owner.h1_delta(scheme)
        delta.insert(rids[:45], uf)
        delta.insert(rids[45:], uf)

        fresh_scheme = build_scheme(family_pools(store, 8), spec)
        fresh_uf = UnionFind(n)
        fresh = SchemeBinIndex(n).h1_delta(fresh_scheme)
        fresh.insert(rids[:45], fresh_uf)
        fresh.insert(rids[45:], fresh_uf)
        assert canonical(roots_of(uf, n)) == canonical(roots_of(fresh_uf, n))
        assert canonical(roots_of(uf, n)) == canonical(
            dict_partition(fresh_scheme, [rids[:45], rids[45:]], n)
        )
