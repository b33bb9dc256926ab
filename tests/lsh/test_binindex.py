"""Property tests for the persistent bin index.

The load-bearing claim is *bit-identity*: :func:`group_table` must
reproduce the legacy void-argsort collision grouping — group content
AND order — for every input, including adversarial fingerprint
regimes (all fingerprints equal, low-entropy fingerprints) where the
byte tie-break inside fingerprint runs does all the work; and a whole
level grouped at once, with repeated union edges dropped, must give
the clusters of the per-table parent-pointer forest replay.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AdaptiveConfig
from repro.core.result import WorkCounters
from repro.core.transitive import TransitiveHashingFunction
from repro.errors import ConfigurationError
from repro.lsh import binindex
from repro.lsh.binindex import (
    BIN_INDEX_ENV,
    H1DeltaIndex,
    SchemeBinIndex,
    group_table,
    key_words,
    resolve_bin_index,
)
from repro.lsh.families import SignaturePool
from repro.lsh.minhash import MinHashFamily
from repro.lsh.scheme import HashingScheme, PoolUse, TableGroup
from repro.structures.union_find import UnionFind
from tests.conftest import make_shingle_store
from tests.lsh.keyref import (
    FAMILIES,
    build_scheme,
    canonical,
    csr_to_groups,
    dict_partition,
    family_pools,
    fingerprint_words,
    legacy_edges,
    legacy_groups_of_level,
    mixed_store,
    pack_key_words,
    roots_of,
    scheme_specs,
    strided_key_words,
)


def legacy_groups(rows):
    """The void-argsort reference grouping from
    ``HashingScheme.iter_table_collisions``, inlined byte for byte."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    if rows.shape[0] == 0:
        return []
    void = rows.view(
        np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
    ).ravel()
    order = np.argsort(void, kind="stable")
    sorted_keys = void[order]
    change = np.empty(order.size, dtype=bool)
    change[0] = True
    change[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.nonzero(change)[0]
    ends = np.r_[starts[1:], order.size]
    return [order[s:e] for s, e in zip(starts, ends) if e - s >= 2]


def words_of_rows(rows):
    def words_of(tables, positions):
        assert not tables.any()
        return pack_key_words(rows[positions])

    return words_of


def assert_same_groups(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        np.testing.assert_array_equal(g, e)


@st.composite
def key_matrix(draw):
    m = draw(st.integers(0, 60))
    nbytes = draw(st.integers(1, 20))
    alphabet = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.integers(0, alphabet, size=(m, nbytes), dtype=np.uint8)


class TestGroupTable:
    @settings(max_examples=150, deadline=None)
    @given(rows=key_matrix())
    def test_matches_legacy_with_honest_fingerprints(self, rows):
        fps = (
            fingerprint_words(pack_key_words(rows))
            if rows.shape[0]
            else np.empty(0, dtype=np.uint64)
        )
        got = csr_to_groups(*group_table(fps, words_of_rows(rows)))
        assert_same_groups(got, legacy_groups(rows))

    @settings(max_examples=100, deadline=None)
    @given(rows=key_matrix())
    def test_matches_legacy_when_all_fingerprints_collide(self, rows):
        fps = np.zeros(rows.shape[0], dtype=np.uint64)
        got = csr_to_groups(*group_table(fps, words_of_rows(rows)))
        assert_same_groups(got, legacy_groups(rows))

    @settings(max_examples=100, deadline=None)
    @given(rows=key_matrix(), buckets=st.integers(2, 5))
    def test_matches_legacy_with_low_entropy_fingerprints(
        self, rows, buckets
    ):
        honest = (
            fingerprint_words(pack_key_words(rows))
            if rows.shape[0]
            else np.empty(0, dtype=np.uint64)
        )
        fps = honest % np.uint64(buckets)
        got = csr_to_groups(*group_table(fps, words_of_rows(rows)))
        assert_same_groups(got, legacy_groups(rows))

    @settings(max_examples=100, deadline=None)
    @given(rows=key_matrix())
    def test_csr_contract(self, rows):
        fps = (
            fingerprint_words(pack_key_words(rows))
            if rows.shape[0]
            else np.empty(0, dtype=np.uint64)
        )
        members, starts = group_table(fps, words_of_rows(rows))
        assert starts[0] == 0
        assert starts[-1] == members.size
        lens = np.diff(starts)
        assert (lens >= 2).all()
        if members.size:
            assert members.min() >= 0
            assert members.max() < rows.shape[0]
            assert np.unique(members).size == members.size

    def test_empty_and_singleton(self):
        rows = np.zeros((1, 4), dtype=np.uint8)
        members, starts = group_table(
            np.zeros(1, dtype=np.uint64), words_of_rows(rows)
        )
        assert members.size == 0
        assert starts.tolist() == [0]


class TestWords:
    @settings(max_examples=100, deadline=None)
    @given(rows=key_matrix(), data=st.data())
    def test_strided_equals_packed_slice(self, rows, data):
        if rows.shape[0] == 0:
            rows = np.zeros((1, rows.shape[1]), dtype=np.uint8)
        nbytes = data.draw(st.integers(1, rows.shape[1]))
        offset = data.draw(st.integers(0, rows.shape[1] - nbytes))
        np.testing.assert_array_equal(
            strided_key_words(rows, offset, nbytes),
            pack_key_words(rows[:, offset : offset + nbytes]),
        )

    def test_word_order_is_memcmp_order(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 256, size=(64, 11), dtype=np.uint8)
        words = pack_key_words(rows)
        by_words = np.lexsort(words.T[::-1])
        by_bytes = sorted(range(64), key=lambda i: rows[i].tobytes())
        np.testing.assert_array_equal(by_words, np.array(by_bytes))


class TestResolve:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv(BIN_INDEX_ENV, "0")
        assert resolve_bin_index(True) is True
        assert resolve_bin_index(False) is False

    def test_env_values(self, monkeypatch):
        monkeypatch.delenv(BIN_INDEX_ENV, raising=False)
        assert resolve_bin_index() is True
        for raw, expected in [
            ("1", True),
            ("true", True),
            ("on", True),
            ("0", False),
            ("no", False),
            ("off", False),
        ]:
            monkeypatch.setenv(BIN_INDEX_ENV, raw)
            assert resolve_bin_index() is expected

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(BIN_INDEX_ENV, "maybe")
        with pytest.raises(ConfigurationError):
            resolve_bin_index()

    def test_config_knob_round_trips(self):
        cfg = AdaptiveConfig(bin_index=False, bin_index_bytes=1024)
        d = cfg.to_dict()
        assert d["bin_index"] is False
        assert d["bin_index_bytes"] == 1024
        assert AdaptiveConfig.from_dict(d).bin_index is False


@pytest.fixture(scope="module")
def h1_scheme():
    store, _ = make_shingle_store(seed=5)
    pool = SignaturePool(MinHashFamily(store, "shingles", seed=5))
    scheme = HashingScheme([TableGroup(6, (PoolUse(pool, 2),))])
    return store, scheme


class TestH1DeltaIndex:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_batches=st.integers(1, 5))
    def test_partition_matches_dict_tables(
        self, h1_scheme, seed, n_batches
    ):
        store, scheme = h1_scheme
        n = len(store)
        rng = np.random.default_rng(seed)
        rids = rng.permutation(n).astype(np.int64)
        batches = np.array_split(rids, n_batches)

        owner = SchemeBinIndex(n)
        delta = owner.h1_delta(scheme)
        assert isinstance(delta, H1DeltaIndex)
        uf = UnionFind(n)
        for batch in batches:
            assert delta.insert(batch, uf)
        assert delta.indexed_records == n
        assert canonical(roots_of(uf, n)) == canonical(
            dict_partition(scheme, batches, n)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        spec=scheme_specs,
        regime=st.sampled_from(["constant", "low_entropy"]),
        n_batches=st.integers(1, 4),
    )
    def test_partition_matches_dict_tables_when_fingerprints_collide(
        self, seed, spec, regime, n_batches
    ):
        n = 40
        store = mixed_store(n, seed)
        scheme = build_scheme(family_pools(store, seed), spec)
        rids = np.random.default_rng(seed).permutation(n).astype(np.int64)
        batches = np.array_split(rids, n_batches)
        delta = SchemeBinIndex(n).h1_delta(scheme)
        uf = UnionFind(n)
        with mock.patch.object(
            binindex, "table_fingerprints", FINGERPRINT_REGIMES[regime]
        ):
            for batch in batches:
                assert delta.insert(batch, uf)
        assert canonical(roots_of(uf, n)) == canonical(
            dict_partition(scheme, batches, n)
        )

    def test_export_adopt_round_trip(self, h1_scheme):
        store, scheme = h1_scheme
        n = len(store)
        rids = np.arange(n, dtype=np.int64)
        first, rest = rids[: n // 2], rids[n // 2 :]

        owner = SchemeBinIndex(n)
        delta = owner.h1_delta(scheme)
        uf = UnionFind(n)
        assert delta.insert(first, uf)
        state = delta.export_state()

        successor_owner = SchemeBinIndex(n)
        successor = successor_owner.h1_delta(scheme, state=state)
        assert successor is not None
        assert successor.indexed_records == first.size
        assert successor.insert(rest, uf)
        assert canonical(roots_of(uf, n)) == canonical(
            dict_partition(scheme, [rids], n)
        )
        assert successor_owner.delta_rows == rest.size * scheme.table_count

    def test_adopt_rejects_layout_mismatch(self, h1_scheme):
        store, scheme = h1_scheme
        owner = SchemeBinIndex(len(store))
        delta = owner.h1_delta(scheme)
        uf = UnionFind(len(store))
        assert delta.insert(np.arange(4, dtype=np.int64), uf)
        state = delta.export_state()
        state["table_count"] = scheme.table_count + 1
        assert owner.h1_delta(scheme, state=state) is None

    def test_adopt_rejects_over_budget(self, h1_scheme):
        store, scheme = h1_scheme
        owner = SchemeBinIndex(len(store))
        delta = owner.h1_delta(scheme)
        uf = UnionFind(len(store))
        assert delta.insert(np.arange(8, dtype=np.int64), uf)
        state = delta.export_state()
        broke = SchemeBinIndex(len(store), max_bytes=0)
        assert broke.h1_delta(scheme, state=state) is None
        assert broke.degraded == 1

    def test_insert_over_budget_returns_false_without_mutation(
        self, h1_scheme
    ):
        store, scheme = h1_scheme
        # Enough budget for the fingerprint matrix but not the arrays.
        owner = SchemeBinIndex(
            len(store), max_bytes=len(store) * (scheme.table_count * 8 + 1)
        )
        delta = owner.h1_delta(scheme)
        uf = UnionFind(len(store))
        before = roots_of(uf, len(store))
        assert delta.insert(np.arange(10, dtype=np.int64), uf) is False
        assert owner.degraded == 1
        assert delta.indexed_records == 0
        assert roots_of(uf, len(store)) == before


def level_groups(bins, scheme, rids):
    """One level-at-once grouping of ``rids``, exploded to a list."""
    fps = bins.fingerprints(scheme, rids)
    return csr_to_groups(
        *group_table(
            fps, lambda t, p: key_words(scheme, t, rids[p])
        )
    )


def assert_same_edges(got, expected):
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_array_equal(got[1], expected[1])


class TestBudgetDegradation:
    def test_zero_budget_groups_identically(self, h1_scheme):
        store, scheme = h1_scheme
        rids = np.arange(len(store), dtype=np.int64)

        cached = SchemeBinIndex(len(store))
        broke = SchemeBinIndex(len(store), max_bytes=0)
        legacy = legacy_edges(scheme, rids)
        assert_same_edges(cached.level(1).edges(scheme, rids), legacy)
        assert_same_edges(broke.level(1).edges(scheme, rids), legacy)
        assert broke.degraded == 1
        assert broke.indexed_bytes == 0
        assert cached.indexed_bytes > 0

    def test_cached_fingerprints_hit_on_reuse(self, h1_scheme):
        store, scheme = h1_scheme
        rids = np.arange(len(store), dtype=np.int64)
        owner = SchemeBinIndex(len(store))
        owner.level(1).edges(scheme, rids)
        assert owner.fp_hits == 0
        owner.level(1).edges(scheme, rids)
        assert owner.fp_hits == len(store)
        assert owner.tables_grouped == 2 * scheme.table_count
        assert owner.rows_grouped == 2 * scheme.table_count * len(store)

    def test_level_groups_match_legacy_on_real_scheme(self, h1_scheme):
        store, scheme = h1_scheme
        rng = np.random.default_rng(11)
        rids = np.sort(
            rng.choice(len(store), size=len(store) // 2, replace=False)
        ).astype(np.int64)
        owner = SchemeBinIndex(len(store))
        assert_same_groups(
            level_groups(owner.level(1), scheme, rids),
            legacy_groups_of_level(scheme, rids),
        )


honest_fingerprints = binindex.table_fingerprints


def constant_fingerprints(scheme, rids):
    return np.zeros((rids.size, scheme.table_count), dtype=np.uint64)


def low_entropy_fingerprints(scheme, rids):
    return honest_fingerprints(scheme, rids) % np.uint64(3)


FINGERPRINT_REGIMES = {
    "honest": honest_fingerprints,
    "constant": constant_fingerprints,
    "low_entropy": low_entropy_fingerprints,
}


def apply_both(scheme, n, subsets, regime):
    """Clusters and counters of each subset, through the reference
    forest path and through one level-at-once bin index (whose cached
    fingerprints the later subsets reuse)."""
    fn = TransitiveHashingFunction(1, SimpleNamespace(to_scheme=lambda: scheme))
    expected = []
    for rids in subsets:
        counters = WorkCounters()
        expected.append((fn.apply(rids, counters), counters.table_inserts))
    fn.bin_index = SchemeBinIndex(n).level(1)
    got = []
    with mock.patch.object(
        binindex, "table_fingerprints", FINGERPRINT_REGIMES[regime]
    ):
        for rids in subsets:
            counters = WorkCounters()
            got.append((fn.apply(rids, counters), counters.table_inserts))
    return got, expected


class TestLevelEquivalence:
    """Level-at-once grouping plus distinct edges against the reference
    ``iter_table_collisions`` + ``ParentPointerForest`` path: cluster
    content, leaf order and cluster order must all match."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 40),
        spec=scheme_specs,
        regime=st.sampled_from(sorted(FINGERPRINT_REGIMES)),
        data=st.data(),
    )
    def test_clusters_match_forest_reference(
        self, seed, n, spec, regime, data
    ):
        store = mixed_store(n, seed)
        scheme = build_scheme(family_pools(store, seed), spec)
        subsets = [
            np.array(
                data.draw(
                    st.lists(
                        st.integers(0, n - 1), min_size=1, max_size=n, unique=True
                    )
                ),
                dtype=np.int64,
            )
            for _ in range(2)
        ]
        got, expected = apply_both(scheme, n, subsets, regime)
        for (clusters, inserts), (ref_clusters, ref_inserts) in zip(
            got, expected
        ):
            assert inserts == ref_inserts
            assert len(clusters) == len(ref_clusters)
            for a, b in zip(clusters, ref_clusters):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_family_or_and_scheme(self, family):
        store = mixed_store(60, 3)
        pools = family_pools(store, 3)
        other = "minhash" if family == "hyperplane" else "hyperplane"
        scheme = build_scheme(
            pools, [(5, [(family, 2, 0)]), (3, [(family, 1, 1), (other, 2, 0)])]
        )
        rids = np.random.default_rng(5).permutation(60).astype(np.int64)
        for regime in FINGERPRINT_REGIMES:
            got, expected = apply_both(scheme, 60, [rids, rids[:30]], regime)
            for (clusters, _), (ref_clusters, _) in zip(got, expected):
                assert [c.tolist() for c in clusters] == [
                    c.tolist() for c in ref_clusters
                ]
