"""Tests for the §5.1 mixed scheme (z tables of w hashes plus one
remainder table of w' fresh hashes) and the PoolUse column offsets
that keep the remainder table independent."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.lsh.design import design_group
from repro.lsh.families import SignaturePool
from repro.lsh.hyperplanes import RandomHyperplaneFamily
from repro.lsh.probability import (
    collision_prob_curve,
    mixed_scheme_objective,
    mixed_scheme_prob,
)
from repro.lsh.scheme import HashingScheme, PoolUse, TableGroup
from tests.conftest import make_vector_store
from tests.lsh.keyref import iter_table_blocks, iter_table_keys
from tests.lsh.test_design import FakeComponent, linear_p


class TestMixedProbability:
    def test_reduces_to_pure_when_w_rem_huge(self):
        """A remainder table of astronomically many hashes never
        collides, so the mixed curve equals the pure curve."""
        x = np.linspace(0.01, 0.99, 20)
        pure = collision_prob_curve(linear_p, 4, 8, x)
        mixed = mixed_scheme_prob(linear_p, 4, 8, 4000, x)
        assert np.allclose(mixed, pure, atol=1e-9)

    def test_remainder_adds_collisions(self):
        x = np.linspace(0.0, 1.0, 30)
        pure = collision_prob_curve(linear_p, 4, 8, x)
        mixed = mixed_scheme_prob(linear_p, 4, 8, 2, x)
        assert np.all(mixed >= pure - 1e-12)

    def test_small_remainder_raises_objective(self):
        """A w'=1 table collides on almost everything, so the mixed
        objective is much larger — the optimizer must reject it."""
        from repro.lsh.probability import scheme_objective

        pure = scheme_objective(linear_p, 30, 70)
        mixed = mixed_scheme_objective(linear_p, 30, 70, 1)
        assert mixed > 2 * pure


class TestDesignWithRemainder:
    def test_tiny_remainder_rejected(self):
        # budget 810 = 8*101 + 2: the leftover-2 table would destroy
        # selectivity; the optimizer must not keep it.
        design = design_group([FakeComponent(15 / 180.0)], budget=810)
        if design.remainder_w:
            assert design.remainder_w > 4

    def test_budget_never_exceeded(self):
        for budget in (20, 130, 811, 2100):
            design = design_group([FakeComponent(0.2)], budget=budget)
            assert design.budget <= budget

    def test_remainder_tables_materialize(self):
        store, _ = make_vector_store(seed=8)
        pool = SignaturePool(RandomHyperplaneFamily(store, "vec", seed=8))
        comp = FakeComponent(0.1)
        comp.pool = pool
        design = design_group([comp], budget=100)
        groups = design.to_table_groups()
        if design.remainder_w:
            assert groups[-1].z == 1
            assert groups[-1].uses[0].w == design.remainder_w
            assert groups[-1].uses[0].offset == design.z * design.ws[0]
        else:
            assert len(groups) == 1


class TestPoolOffsets:
    def _pool(self):
        store, _ = make_vector_store(seed=9)
        return SignaturePool(RandomHyperplaneFamily(store, "vec", seed=9))

    def test_negative_offset_rejected(self):
        with pytest.raises(ConfigurationError):
            PoolUse(self._pool(), 2, offset=-1)

    def test_offset_tables_use_fresh_columns(self):
        """Two single-table groups over the same pool with different
        offsets must produce different bucket keys (different hash
        functions), while identical offsets reproduce identical keys."""
        pool = self._pool()
        rids = np.arange(30)
        base = HashingScheme([TableGroup(1, (PoolUse(pool, 4, offset=0),))])
        shifted = HashingScheme([TableGroup(1, (PoolUse(pool, 4, offset=4),))])
        again = HashingScheme([TableGroup(1, (PoolUse(pool, 4, offset=0),))])
        keys_base = next(iter(iter_table_keys(base, rids)))
        keys_shift = next(iter(iter_table_keys(shifted, rids)))
        keys_again = next(iter(iter_table_keys(again, rids)))
        assert keys_base == keys_again
        assert keys_base != keys_shift

    def test_offset_matches_manual_slice(self):
        pool = self._pool()
        rids = np.arange(10)
        scheme = HashingScheme([TableGroup(2, (PoolUse(pool, 3, offset=5),))])
        blocks = list(iter_table_blocks(scheme, rids))
        sigs = pool.signatures(rids, 5 + 2 * 3)
        assert np.array_equal(blocks[0], sigs[:, 5:8])
        assert np.array_equal(blocks[1], sigs[:, 8:11])
