"""Tests for the parent-pointer-tree oracle (Appendix B.1/B.2),
including property-based cross-checks against a plain union-find."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StructureError
from repro.structures import UnionFind
from tests.structures.parent_pointer_tree import ParentPointerForest


class TestBasics:
    def test_singleton(self):
        forest = ParentPointerForest()
        root = forest.make_singleton(7)
        assert root.size == 1
        assert list(ParentPointerForest.leaves(root)) == [7]

    def test_contains(self):
        forest = ParentPointerForest()
        forest.make_singleton(1)
        assert 1 in forest
        assert 2 not in forest

    def test_duplicate_singleton_rejected(self):
        forest = ParentPointerForest()
        forest.make_singleton(1)
        with pytest.raises(StructureError):
            forest.make_singleton(1)

    def test_union_merges_leaf_chains(self):
        forest = ParentPointerForest()
        r1 = forest.make_singleton(1)
        r2 = forest.make_singleton(2)
        merged = forest.union(r1, r2)
        assert merged.size == 2
        assert sorted(ParentPointerForest.leaves(merged)) == [1, 2]

    def test_union_same_root_noop(self):
        forest = ParentPointerForest()
        r1 = forest.make_singleton(1)
        assert forest.union(r1, r1) is r1

    def test_union_records_transitivity(self):
        forest = ParentPointerForest()
        for rid in range(4):
            forest.make_singleton(rid)
        forest.union_records(0, 1)
        forest.union_records(2, 3)
        forest.union_records(1, 2)
        assert forest.same_tree(0, 3)
        root = forest.find_root(0)
        assert root.size == 4
        assert sorted(ParentPointerForest.leaves(root)) == [0, 1, 2, 3]

    def test_roots_enumeration(self):
        forest = ParentPointerForest()
        for rid in range(5):
            forest.make_singleton(rid)
        forest.union_records(0, 1)
        roots = forest.roots()
        assert len(roots) == 4
        assert sorted(r.size for r in roots) == [1, 1, 1, 2]

    def test_size_constant_time_field(self):
        forest = ParentPointerForest()
        for rid in range(10):
            forest.make_singleton(rid)
        for rid in range(1, 10):
            forest.union_records(0, rid)
        assert forest.find_root(5).size == 10

    def test_merged_node_loses_leaf_pointers(self):
        forest = ParentPointerForest()
        r1 = forest.make_singleton(1)
        r2 = forest.make_singleton(2)
        forest.union(r1, r2)
        # Old roots must not silently iterate partial clusters.
        assert r1.first_leaf is None and r2.first_leaf is None

    def test_len_counts_records(self):
        forest = ParentPointerForest()
        for rid in (3, 5, 9):
            forest.make_singleton(rid)
        assert len(forest) == 3


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 40),
    edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80),
)
def test_matches_union_find(n, edges):
    """Property: components and sizes always agree with plain DSU."""
    forest = ParentPointerForest()
    uf = UnionFind(n)
    for rid in range(n):
        forest.make_singleton(rid)
    for a, b in edges:
        a, b = a % n, b % n
        forest.union_records(a, b)
        uf.union(a, b)
    comps_uf = {frozenset(c) for c in uf.components()}
    comps_tree = {
        frozenset(ParentPointerForest.leaves(r)) for r in forest.roots()
    }
    assert comps_uf == comps_tree
    # Sizes agree and leaf chains are complete.
    for root in forest.roots():
        leaves = list(ParentPointerForest.leaves(root))
        assert len(leaves) == root.size
        assert len(set(leaves)) == len(leaves)


@settings(max_examples=40, deadline=None)
@given(
    merges=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=40)
)
def test_leaf_chain_is_terminated(merges):
    """The leaf chain of every root ends exactly at its last leaf (no
    over-run into other trees)."""
    forest = ParentPointerForest()
    for rid in range(20):
        forest.make_singleton(rid)
    for a, b in merges:
        forest.union_records(a, b)
    for root in forest.roots():
        assert root.last_leaf.next_leaf is None
