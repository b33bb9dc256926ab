"""Tests for the connected-components kernel and the union-find
structures: the incremental :class:`UnionFind` and the leaf-chain
oracle kept in ``tests/``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures import UnionFind, component_labels, components
from tests.structures.cluster_union_find import ClusterUnionFind
from tests.structures.parent_pointer_tree import ParentPointerForest


class TestBasics:
    def test_initially_disjoint(self):
        uf = UnionFind(4)
        assert not uf.connected(0, 1)
        assert len(uf.components()) == 4

    def test_union_connects(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        assert uf.connected(0, 1)
        assert not uf.connected(0, 2)

    def test_union_idempotent(self):
        uf = UnionFind(3)
        root = uf.union(0, 1)
        assert uf.union(0, 1) == root

    def test_transitivity(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.connected(0, 2)

    def test_sizes_accumulate(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(0, 2)
        assert uf.size[uf.find(3)] == 4

    def test_components_partition(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(2, 3)
        comps = sorted(sorted(c) for c in uf.components())
        assert comps == [[0, 1], [2, 3], [4], [5]]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
)
def test_components_match_reference(n, edges):
    """Property: components equal a brute-force graph reachability."""
    uf = UnionFind(n)
    adj = {i: {i} for i in range(n)}
    for a, b in edges:
        a, b = a % n, b % n
        uf.union(a, b)
    # Brute force: repeated merging of overlapping sets.
    groups = [{i} for i in range(n)]
    for a, b in edges:
        a, b = a % n, b % n
        ga = next(g for g in groups if a in g)
        gb = next(g for g in groups if b in g)
        if ga is not gb:
            ga |= gb
            groups.remove(gb)
    assert {frozenset(c) for c in uf.components()} == {
        frozenset(g) for g in groups
    }


def _edge_arrays(n, edges):
    a = np.array([x % n for x, _ in edges], dtype=np.int64)
    b = np.array([y % n for _, y in edges], dtype=np.int64)
    return a, b


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
)
def test_union_edges_matches_sequential_unions(n, edges):
    """Property: the batched entry point is the exact
    sequential union order — identical parents and sizes, not merely
    identical components."""
    a, b = _edge_arrays(n, edges)
    batched = UnionFind(n)
    batched.union_edges(a, b)
    sequential = UnionFind(n)
    for x, y in zip(a.tolist(), b.tolist()):
        sequential.union(x, y)
    for x in range(n):  # normalize paths before comparing raw state
        batched.find(x)
        sequential.find(x)
    assert np.array_equal(batched.parent, sequential.parent)
    assert np.array_equal(batched.size, sequential.size)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
)
def test_cluster_union_find_matches_forest_replay(n, edges):
    """Property: ``ClusterUnionFind.union_edges``
    reproduces a ``ParentPointerForest`` replay of the same edge
    sequence byte for byte — membership, leaf order within each
    cluster, and cluster emission order."""
    a, b = _edge_arrays(n, edges)

    cuf = ClusterUnionFind(n)
    cuf.union_edges(a, b)

    forest = ParentPointerForest()
    for x in range(n):
        forest.make_singleton(x)
    for x, y in zip(a.tolist(), b.tolist()):
        if x != y:
            forest.union_records(x, y)
    expected = [
        np.fromiter(forest.leaves(root), dtype=np.int64)
        for root in forest.roots()
    ]

    actual = cuf.clusters()
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 25),
    edges=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=50),
    split=st.integers(0, 50),
)
def test_cluster_union_edges_batching_is_transparent(n, edges, split):
    """Splitting one edge stream across several ``union_edges`` calls
    (as the blocked strategy does, block by block) changes nothing."""
    a, b = _edge_arrays(n, edges)
    cut = min(split, a.size)

    whole = ClusterUnionFind(n)
    whole.union_edges(a, b)
    parts = ClusterUnionFind(n)
    parts.union_edges(a[:cut], b[:cut])
    for x, y in zip(a[cut:].tolist(), b[cut:].tolist()):
        parts.union(x, y)  # per-edge entry point on the tail

    got, want = parts.clusters(), whole.clusters()
    assert len(got) == len(want)
    for ga, wa in zip(got, want):
        assert np.array_equal(ga, wa)


def _uf_partition(n, a, b):
    """The :class:`UnionFind` partition in the canonical order."""
    uf = UnionFind(n)
    uf.union_edges(a, b)
    return sorted(sorted(c) for c in uf.components())


def assert_canonical(clusters):
    """Members ascending, clusters ascending by smallest member."""
    for c in clusters:
        assert c.dtype == np.int64
        assert (np.diff(c) > 0).all()
    firsts = [int(c[0]) for c in clusters]
    assert firsts == sorted(firsts)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=80),
    repeat=st.integers(1, 3),
)
def test_components_kernel_matches_union_find(n, edges, repeat):
    """Property: the kernel's partition equals :class:`UnionFind`'s,
    with repeated edges and self-loops, and comes out canonical; each
    label is the smallest member of its component."""
    a, b = _edge_arrays(n, edges)
    a, b = np.tile(a, repeat), np.tile(b, repeat)
    got = components(np.arange(n, dtype=np.int64), a, b)
    assert_canonical(got)
    assert [c.tolist() for c in got] == _uf_partition(n, a, b)
    labels = component_labels(n, a, b)
    for c in got:
        assert (labels[c] == c[0]).all()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
    seed=st.integers(0, 2**16),
)
def test_components_of_unsorted_rids_are_canonical(n, edges, seed):
    """Positions index ``rids`` in any order; the output is canonical in
    rid terms and matches the leaf-chain oracle's partition."""
    a, b = _edge_arrays(n, edges)
    rng = np.random.default_rng(seed)
    rids = rng.choice(10 * n, size=n, replace=False).astype(np.int64)
    got = components(rids, a, b)
    assert_canonical(got)
    cuf = ClusterUnionFind(n)
    cuf.union_edges(a, b)
    want = sorted(sorted(rids[part].tolist()) for part in cuf.clusters())
    assert [c.tolist() for c in got] == want


def test_components_without_edges():
    empty = np.zeros(0, dtype=np.int64)
    assert components(empty, empty, empty) == []
    got = components(np.array([7], dtype=np.int64), empty, empty)
    assert [c.tolist() for c in got] == [[7]]
    got = components(np.array([5, 2, 9], dtype=np.int64), empty, empty)
    assert [c.tolist() for c in got] == [[2], [5], [9]]
    assert component_labels(3, empty, empty).tolist() == [0, 1, 2]


def test_components_single_self_loop():
    loop = np.zeros(1, dtype=np.int64)
    got = components(np.array([4], dtype=np.int64), loop, loop)
    assert [c.tolist() for c in got] == [[4]]


N_LARGE = 100_000


def test_components_reversed_path_large():
    """A path whose edges run from the top id down: every hook lands on
    a chain that pointer jumping must collapse."""
    top = np.arange(N_LARGE - 1, 0, -1, dtype=np.int64)
    labels = component_labels(N_LARGE, top, top - 1)
    assert (labels == 0).all()
    got = components(np.arange(N_LARGE, dtype=np.int64), top, top - 1)
    assert len(got) == 1
    assert np.array_equal(got[0], np.arange(N_LARGE))


def test_components_star_large():
    """Every node joined to the largest id, plus one isolated node."""
    leaves = np.arange(1, N_LARGE - 1, dtype=np.int64)
    hub = np.full(leaves.size, N_LARGE - 1, dtype=np.int64)
    got = components(np.arange(N_LARGE, dtype=np.int64), hub, leaves)
    assert [c.size for c in got] == [1, N_LARGE - 1]
    assert got[0].tolist() == [0]
    assert np.array_equal(got[1], np.arange(1, N_LARGE))
