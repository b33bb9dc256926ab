"""Tests for hash families and the incremental signature pool."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsh.families import SignaturePool
from repro.lsh.hyperplanes import RandomHyperplaneFamily
from repro.lsh.minhash import MinHashFamily
from tests.conftest import make_shingle_store, make_vector_store
from tests.lsh.keyref import FAMILIES, family_pools, mixed_store


@pytest.fixture(scope="module")
def hyper_family():
    store, _ = make_vector_store(seed=5)
    return RandomHyperplaneFamily(store, "vec", seed=1)


@pytest.fixture(scope="module")
def min_family():
    store, _ = make_shingle_store(seed=5)
    return MinHashFamily(store, "shingles", seed=1)


class TestDeterminism:
    def test_hyperplane_columns_stable(self, hyper_family):
        rids = np.arange(10)
        first = hyper_family.compute(rids, 0, 32)
        again = hyper_family.compute(rids, 0, 32)
        assert np.array_equal(first, again)

    def test_hyperplane_extension_preserves_prefix(self, hyper_family):
        rids = np.arange(10)
        small = hyper_family.compute(rids, 0, 16)
        large = hyper_family.compute(rids, 0, 48)
        assert np.array_equal(large[:, :16], small)

    def test_minhash_columns_stable(self, min_family):
        rids = np.arange(8)
        first = min_family.compute(rids, 0, 20)
        again = min_family.compute(rids, 0, 20)
        assert np.array_equal(first, again)

    def test_minhash_partial_range(self, min_family):
        rids = np.arange(8)
        full = min_family.compute(rids, 0, 30)
        tail = min_family.compute(rids, 10, 30)
        assert np.array_equal(full[:, 10:], tail)

    def test_same_seed_same_family(self):
        store, _ = make_vector_store(seed=7)
        f1 = RandomHyperplaneFamily(store, "vec", seed=42)
        f2 = RandomHyperplaneFamily(store, "vec", seed=42)
        rids = np.arange(5)
        assert np.array_equal(f1.compute(rids, 0, 8), f2.compute(rids, 0, 8))

    def test_different_seed_different_family(self):
        store, _ = make_vector_store(seed=7)
        f1 = RandomHyperplaneFamily(store, "vec", seed=1)
        f2 = RandomHyperplaneFamily(store, "vec", seed=2)
        rids = np.arange(20)
        assert not np.array_equal(
            f1.compute(rids, 0, 32), f2.compute(rids, 0, 32)
        )


class TestSignaturePool:
    def _pool(self):
        store, _ = make_vector_store(seed=3)
        return SignaturePool(RandomHyperplaneFamily(store, "vec", seed=3))

    def test_initially_empty(self):
        pool = self._pool()
        assert pool.stats()["bytes"] == 0
        assert pool.stats()["filled_values"] == 0
        assert pool.hashes_computed == 0
        assert pool.filled(0) == 0

    def test_signatures_shape(self):
        pool = self._pool()
        sig = pool.signatures(np.arange(6), 12)
        assert sig.shape == (6, 12)

    def test_counter_counts_new_hashes_only(self):
        pool = self._pool()
        pool.signatures(np.arange(6), 12)
        assert pool.hashes_computed == 72
        pool.signatures(np.arange(6), 12)
        assert pool.hashes_computed == 72  # cached, nothing new
        pool.signatures(np.arange(6), 20)
        assert pool.hashes_computed == 72 + 6 * 8

    def test_incremental_extension_is_consistent(self):
        pool = self._pool()
        small = pool.signatures(np.arange(4), 8).copy()
        large = pool.signatures(np.arange(4), 24)
        assert np.array_equal(large[:, :8], small)

    def test_mixed_fill_levels(self):
        """Records arriving at different fill levels must batch
        correctly (the adaptive algorithm creates exactly this)."""
        pool = self._pool()
        pool.signatures(np.array([0, 1]), 10)
        pool.signatures(np.array([2, 3]), 4)
        mixed = pool.signatures(np.array([0, 1, 2, 3]), 16)
        fresh_pool = self._pool()
        fresh = fresh_pool.signatures(np.array([0, 1, 2, 3]), 16)
        assert np.array_equal(mixed, fresh)

    def test_subset_requests_leave_others_cold(self):
        pool = self._pool()
        pool.signatures(np.array([5]), 64)
        assert pool.filled(5) == 64
        assert pool.filled(6) == 0


# ----------------------------------------------------------------------
# Size classes: every read equals the family's own columns, whatever
# sequence of extensions filled the pool.
N_RECORDS = 24

#: ``(rids, count)`` extension steps; rids may repeat within a step and
#: counts span several size classes.
growth_steps = st.lists(
    st.tuples(
        st.lists(st.integers(0, N_RECORDS - 1), max_size=N_RECORDS),
        st.integers(0, 300),
    ),
    min_size=1,
    max_size=8,
)


def grown_pool(family, seed, steps):
    pool = family_pools(mixed_store(N_RECORDS, seed), seed)[family]
    for rids, count in steps:
        pool.ensure(np.asarray(rids, dtype=np.int64), count)
    return pool


def assert_reads_match_compute(pool, data):
    """``signatures`` and ``table_values`` (with and without
    ``positions``) of filled records equal ``family.compute``, and
    reading computes nothing."""
    fill = np.array([pool.filled(r) for r in range(len(pool))])
    rids = data.draw(
        st.lists(st.sampled_from(np.flatnonzero(fill).tolist()), min_size=1)
        if fill.any()
        else st.just([])
    )
    rids = np.asarray(rids, dtype=np.int64)
    count = int(fill[rids].min()) if rids.size else 0
    before = pool.hashes_computed
    expected = pool.family.compute(rids, 0, count)
    np.testing.assert_array_equal(pool.signatures(rids, count), expected)
    start = data.draw(st.integers(0, count))
    np.testing.assert_array_equal(
        pool.signatures(rids, count, start=start), expected[:, start:]
    )
    if count and rids.size:
        w = data.draw(st.integers(1, count))
        z = data.draw(st.integers(1, count // w))
        offset = data.draw(st.integers(0, count - z * w))
        n_entries = data.draw(st.integers(0, 3 * rids.size))
        rng = np.random.default_rng(n_entries)
        tables = rng.integers(0, z, size=n_entries)
        positions = rng.integers(0, rids.size, size=n_entries)
        cols = offset + tables[:, None] * w + np.arange(w)
        want = expected[positions[:, None], cols]
        np.testing.assert_array_equal(
            pool.table_values(rids, tables, w, offset, z, positions), want
        )
        np.testing.assert_array_equal(
            pool.table_values(rids[positions], tables, w, offset, z), want
        )
    assert pool.hashes_computed == before


class TestSizeClasses:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        family=st.sampled_from(FAMILIES),
        steps=growth_steps,
        data=st.data(),
    )
    def test_reads_equal_compute(self, seed, family, steps, data):
        pool = grown_pool(family, seed, steps)
        for rids, count in steps:
            for rid in rids:
                assert pool.filled(rid) >= count
        assert_reads_match_compute(pool, data)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        family=st.sampled_from(FAMILIES),
        steps=growth_steps,
        more=growth_steps,
        data=st.data(),
    )
    def test_export_import_round_trip(self, seed, family, steps, more, data):
        pool = grown_pool(family, seed, steps)
        exported, filled = pool.export_columns()
        prefix = data.draw(st.integers(0, N_RECORDS))
        fresh = family_pools(mixed_store(N_RECORDS, seed), seed)[family]
        fresh.import_columns(exported[:prefix], filled[:prefix])
        assert fresh.hashes_computed == 0
        for rid in range(N_RECORDS):
            assert fresh.filled(rid) == (filled[rid] if rid < prefix else 0)
        if prefix == N_RECORDS:
            again, again_filled = fresh.export_columns()
            assert again.tobytes() == exported.tobytes()
            np.testing.assert_array_equal(again_filled, filled)
        for rids, count in more:
            fresh.ensure(np.asarray(rids, dtype=np.int64), count)
        assert_reads_match_compute(fresh, data)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        family=st.sampled_from(FAMILIES),
        steps=growth_steps,
    )
    def test_export_does_not_depend_on_growth_path(self, seed, family, steps):
        grown = grown_pool(family, seed, steps)
        final = np.array([grown.filled(r) for r in range(N_RECORDS)])
        direct = family_pools(mixed_store(N_RECORDS, seed), seed)[family]
        for level in np.unique(final):
            direct.ensure(np.flatnonzero(final == level), int(level))
        got, got_filled = grown.export_columns()
        want, want_filled = direct.export_columns()
        assert got.dtype == want.dtype
        assert got.shape == want.shape == (N_RECORDS, final.max())
        assert got.tobytes() == want.tobytes()
        assert got_filled.tobytes() == want_filled.tobytes()

    def test_two_growth_paths_export_identical_bytes(self):
        store, _ = make_vector_store(seed=3)
        rids = np.arange(10)
        stepped = SignaturePool(RandomHyperplaneFamily(store, "vec", seed=3))
        stepped.ensure(rids, 12)
        stepped.ensure(rids, 20)
        direct = SignaturePool(RandomHyperplaneFamily(store, "vec", seed=3))
        direct.ensure(rids, 20)
        for got, want in zip(stepped.export_columns(), direct.export_columns()):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert stepped.export_columns()[0].shape == (len(store), 20)

    def test_rows_left_behind_do_not_leak_into_exports(self):
        store, _ = make_vector_store(seed=3)
        steps = [
            (np.arange(4), 10),
            (np.arange(4, 6), 10),
            (np.arange(4), 40),  # leaves four completed 16-wide rows
            (np.arange(6, 10), 9),
        ]
        stepped = SignaturePool(RandomHyperplaneFamily(store, "vec", seed=3))
        for rids, count in steps:
            stepped.ensure(rids, count)
        direct = SignaturePool(RandomHyperplaneFamily(store, "vec", seed=3))
        for rids, count in steps[1:]:
            direct.ensure(rids, count)
        got, want = stepped.export_columns()[0], direct.export_columns()[0]
        assert got.tobytes() == want.tobytes()
        assert not got[4:10, 10:].any()
        # The left-behind rows, completed to 16 values, serve a 16-wide
        # read of all ten records.
        np.testing.assert_array_equal(
            stepped.signatures(np.arange(10), 14),
            stepped.family.compute(np.arange(10), 0, 14),
        )

    def test_ensure_with_nothing_pending_allocates_nothing(self):
        store, _ = make_vector_store(seed=3)
        pool = SignaturePool(RandomHyperplaneFamily(store, "vec", seed=3))
        pool.ensure(np.empty(0, dtype=np.int64), 500)
        assert pool.stats()["bytes"] == 0
        pool.ensure(np.arange(4), 10)
        held = pool.stats()["bytes"]
        pool.ensure(np.arange(4), 10)
        pool.ensure(np.arange(2), 5)
        assert pool.stats()["bytes"] == held

    def test_growth_moves_only_the_growing_rows(self):
        store, _ = make_vector_store(seed=3)
        pool = SignaturePool(RandomHyperplaneFamily(store, "vec", seed=3))
        n = len(store)
        pool.ensure(np.arange(n), 8)
        narrow = pool.stats()["bytes"]
        pool.ensure(np.arange(2), 1000)
        itemsize = pool.family.dtype.itemsize
        # Two rows of the 1024-wide class; nothing else moves.
        assert pool.stats()["bytes"] == narrow + 2 * 1024 * itemsize
        assert pool.stats()["filled_values"] == (n - 2) * 8 + 2 * 1000

    def test_restore_reads_with_one_class(self):
        store, _ = make_vector_store(seed=3)
        pool = SignaturePool(RandomHyperplaneFamily(store, "vec", seed=3))
        pool.ensure(np.arange(5), 40)
        pool.ensure(np.arange(5, 20), 9)
        fresh = SignaturePool(RandomHyperplaneFamily(store, "vec", seed=3))
        fresh.import_columns(*pool.export_columns())
        itemsize = pool.family.dtype.itemsize
        # Every record gets a row of the 64-wide class, the empty ones
        # included, so later arrivals fill in place.
        assert fresh.stats()["bytes"] == len(store) * 64 * itemsize
        fresh.ensure(np.arange(20, 30), 33)
        assert fresh.stats()["bytes"] == len(store) * 64 * itemsize
