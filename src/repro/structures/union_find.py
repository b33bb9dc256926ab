"""Connected components over dense integer ids.

The outputs of a transitive hashing function (Definition 1) and of the
pairwise function ``P`` (Definition 2) are connected components, which
are sets.  :func:`components` computes them for a whole edge list in a
handful of NumPy passes (:func:`component_labels`) and emits them in
one canonical order: members in ascending id order, clusters by their
smallest member.  The paper's parent-pointer trees (App. B.2) keep a
leaf order only to make each merge O(1); nothing downstream depends on
that order, so no structure here reproduces it.

:class:`UnionFind` stays for the two callers that union incrementally,
edge batch by edge batch, across calls: the streaming front-end and
:class:`~repro.lsh.binindex.H1DeltaIndex`.
"""

from __future__ import annotations

import numpy as np

from ..types import IntArray


class UnionFind:
    """Union-find with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return int(root)

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra

    def union_edges(self, a: IntArray, b: IntArray) -> None:
        """Union every edge ``(a[i], b[i])`` in enumeration order.

        Equivalent to ``for x, y in zip(a, b): self.union(x, y)`` but
        without per-edge NumPy scalar boxing — the arrays are unpacked
        to native ints once and the sequential merges (inherently
        order-dependent for tie-breaking) run over plain lists.
        """
        for x, y in zip(a.tolist(), b.tolist()):
            self.union(x, y)

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def components(self) -> list[list[int]]:
        """All components as lists of member ids (unordered)."""
        groups: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())


def component_labels(n: int, a: IntArray, b: IntArray) -> IntArray:
    """Per node of ``0..n-1``: the smallest node of its connected
    component under the edges ``(a[i], b[i])``.

    Each round hooks every edge's larger root onto its smaller one, then
    pointer-jumps until each node points at a root.  Roots only ever
    point lower, so the forest stays acyclic and the surviving root of
    a component is its smallest member.  Edges inside one component
    drop out after every round; each round at least halves the roots
    that still have a crossing edge, so the loop runs O(log n) times.
    """
    labels = np.arange(n, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    # Every node starts as its own root, so the first round hooks the
    # endpoints themselves.
    la, lb = a, b
    while la.size:
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            hop = labels[labels]
            if (hop == labels).all():
                break
            labels = hop
        la = labels[a]
        lb = labels[b]
        cross = la != lb
        if not cross.any():
            break
        a, b = a[cross], b[cross]
        la, lb = la[cross], lb[cross]
    return labels


def components(rids: IntArray, a: IntArray, b: IntArray) -> list[IntArray]:
    """Connected components of ``rids`` under edges between positions
    ``(a[i], b[i])``, as ``int64`` rid arrays.

    Canonical order: members ascending, clusters by smallest member.
    Repeated edges and self-loops are harmless.
    """
    rids = np.asarray(rids, dtype=np.int64)
    n = int(rids.size)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if n > 1 and bool((rids[1:] < rids[:-1]).any()):
        # Label by rank so that the smallest position is the smallest rid.
        order = np.argsort(rids, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)
        rids = rids[order]
        a, b = rank[a], rank[b]
    else:
        rids = rids.copy()
    if a.size == 0:
        return list(rids.reshape(n, 1))
    labels = component_labels(n, a, b)
    if not labels.any():
        return [rids]
    order = np.argsort(labels, kind="stable")
    grouped = labels[order]
    cuts = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
    members = rids[order]
    bounds = [0, *cuts.tolist(), n]
    return [members[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
