"""Tests for (w, z)-scheme table layouts, through the reference key
and collision helpers that the bin index is pinned against."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.lsh.families import SignaturePool
from repro.lsh.hyperplanes import RandomHyperplaneFamily
from repro.lsh.minhash import MinHashFamily
from repro.lsh.scheme import HashingScheme, PoolUse, TableGroup
from tests.conftest import make_shingle_store, make_vector_store
from tests.lsh.keyref import iter_table_collisions, iter_table_keys


@pytest.fixture()
def vector_pool():
    store, _ = make_vector_store(seed=2)
    return SignaturePool(RandomHyperplaneFamily(store, "vec", seed=2))


@pytest.fixture()
def shingle_pool():
    store, _ = make_shingle_store(seed=2)
    return SignaturePool(MinHashFamily(store, "shingles", seed=2))


class TestValidation:
    def test_w_must_be_positive(self, vector_pool):
        with pytest.raises(ConfigurationError):
            PoolUse(vector_pool, 0)

    def test_z_must_be_positive(self, vector_pool):
        with pytest.raises(ConfigurationError):
            TableGroup(0, (PoolUse(vector_pool, 1),))

    def test_group_needs_pools(self):
        with pytest.raises(ConfigurationError):
            TableGroup(1, ())

    def test_scheme_needs_groups(self):
        with pytest.raises(ConfigurationError):
            HashingScheme([])


class TestBudgets:
    def test_single_group_budget(self, vector_pool):
        scheme = HashingScheme([TableGroup(5, (PoolUse(vector_pool, 4),))])
        assert scheme.budget == 20
        assert scheme.table_count == 5

    def test_and_group_budget(self, vector_pool, shingle_pool):
        group = TableGroup(
            3, (PoolUse(vector_pool, 4), PoolUse(shingle_pool, 2))
        )
        assert group.hashes_per_table == 6
        assert group.budget == 18

    def test_or_scheme_budget(self, vector_pool, shingle_pool):
        scheme = HashingScheme(
            [
                TableGroup(2, (PoolUse(vector_pool, 3),)),
                TableGroup(4, (PoolUse(shingle_pool, 5),)),
            ]
        )
        assert scheme.budget == 6 + 20
        assert scheme.table_count == 6


class TestKeysAndCollisions:
    def test_key_count_matches_tables(self, vector_pool):
        scheme = HashingScheme([TableGroup(7, (PoolUse(vector_pool, 3),))])
        rids = np.arange(9)
        tables = list(iter_table_keys(scheme, rids))
        assert len(tables) == 7
        assert all(len(keys) == 9 for keys in tables)

    def test_identical_records_share_all_buckets(self):
        store, _ = make_vector_store(cluster_sizes=(2,), n_noise=0, scale=0.0)
        pool = SignaturePool(RandomHyperplaneFamily(store, "vec", seed=1))
        scheme = HashingScheme([TableGroup(6, (PoolUse(pool, 4),))])
        for keys in iter_table_keys(scheme, np.array([0, 1])):
            assert keys[0] == keys[1]

    def test_collision_groups_match_key_equality(self, shingle_pool):
        scheme = HashingScheme([TableGroup(8, (PoolUse(shingle_pool, 1),))])
        rids = np.arange(20)
        keys_by_table = list(iter_table_keys(scheme, rids))
        groups_by_table = list(iter_table_collisions(scheme, rids))
        assert len(keys_by_table) == len(groups_by_table)
        for keys, groups in zip(keys_by_table, groups_by_table):
            expected: dict = {}
            for pos, key in enumerate(keys):
                expected.setdefault(key, []).append(pos)
            expected_groups = {
                frozenset(v) for v in expected.values() if len(v) >= 2
            }
            got_groups = {frozenset(g.tolist()) for g in groups}
            assert got_groups == expected_groups

    def test_collision_groups_have_no_singletons(self, vector_pool):
        scheme = HashingScheme([TableGroup(4, (PoolUse(vector_pool, 2),))])
        for groups in iter_table_collisions(scheme, np.arange(30)):
            assert all(len(g) >= 2 for g in groups)

    def test_multi_pool_keys_concatenate(self, vector_pool, shingle_pool):
        """AND construction: records match a bucket only if BOTH pools'
        slices agree."""
        group = TableGroup(3, (PoolUse(vector_pool, 2), PoolUse(shingle_pool, 2)))
        scheme = HashingScheme([group])
        rids = np.arange(12)
        and_keys = list(iter_table_keys(scheme, rids))
        only_vec = list(
            iter_table_keys(
                HashingScheme([TableGroup(3, (PoolUse(vector_pool, 2),))]),
                rids,
            )
        )
        for table_and, table_vec in zip(and_keys, only_vec):
            for i in range(len(rids)):
                for j in range(len(rids)):
                    if table_and[i] == table_and[j]:
                        assert table_vec[i] == table_vec[j]

    def test_incremental_reuse_across_schemes(self, vector_pool):
        """A bigger scheme over the same pool recomputes nothing."""
        small = HashingScheme([TableGroup(4, (PoolUse(vector_pool, 3),))])
        list(iter_table_keys(small, np.arange(10)))
        computed = vector_pool.hashes_computed
        big = HashingScheme([TableGroup(8, (PoolUse(vector_pool, 3),))])
        list(iter_table_keys(big, np.arange(10)))
        assert vector_pool.hashes_computed == computed + 10 * 12
