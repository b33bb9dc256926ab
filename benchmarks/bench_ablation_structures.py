"""Ablation: the Appendix-B data structures.

Benchmarks the parent-pointer forest (kept in ``tests/`` as an oracle)
and the plain array union-find against the vectorised components kernel
the program uses, on the same random merge workload, and the bin index
against sort-based largest-first selection — the operations Algorithm
1's inner loop is made of.
"""

import numpy as np

from repro.structures import BinIndex, UnionFind, components
from tests.structures.parent_pointer_tree import ParentPointerForest

N = 20_000
RNG = np.random.default_rng(7)
EDGES = RNG.integers(0, N, size=(N, 2))
SIZES = RNG.integers(1, 1 << 20, size=4000).tolist()


def test_parent_pointer_forest_merge(benchmark):
    def run():
        forest = ParentPointerForest()
        for rid in range(N):
            forest.make_singleton(rid)
        for a, b in EDGES:
            forest.union_records(int(a), int(b))
        return len(forest.roots())

    roots = benchmark(run)
    assert roots >= 1


def test_union_find_merge(benchmark):
    def run():
        uf = UnionFind(N)
        for a, b in EDGES:
            uf.union(int(a), int(b))
        return len(uf.components())

    comps = benchmark(run)
    assert comps >= 1


def test_components_kernel_merge(benchmark):
    rids = np.arange(N, dtype=np.int64)

    def run():
        return len(components(rids, EDGES[:, 0], EDGES[:, 1]))

    comps = benchmark(run)
    assert comps >= 1


def test_structures_agree(benchmark):
    def run():
        forest = ParentPointerForest()
        uf = UnionFind(N)
        for rid in range(N):
            forest.make_singleton(rid)
        for a, b in EDGES[:2000]:
            forest.union_records(int(a), int(b))
            uf.union(int(a), int(b))
        kernel = components(
            np.arange(N, dtype=np.int64), EDGES[:2000, 0], EDGES[:2000, 1]
        )
        return len(forest.roots()), len(uf.components()), len(kernel)

    forest_roots, uf_comps, kernel_comps = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert forest_roots == uf_comps == kernel_comps


def test_bin_index_pop_largest(benchmark):
    def run():
        bins = BinIndex()
        for i, size in enumerate(SIZES):
            bins.add(i, size)
        out = []
        while bins:
            out.append(bins.pop_largest()[0])
        return out

    out = benchmark(run)
    assert out == sorted(SIZES, reverse=True)


def test_sorted_list_pop_largest(benchmark):
    """The naive alternative the bin index replaces."""

    def run():
        items = list(enumerate(SIZES))
        out = []
        while items:
            items.sort(key=lambda pair: pair[1])
            _idx, size = items.pop()
            out.append(size)
        return out

    out = benchmark(run)
    assert out == sorted(SIZES, reverse=True)
