"""The leaf-chain union-find: an oracle for the components kernel.

:class:`ClusterUnionFind` threads a leaf chain through each component,
mirroring the parent-pointer forest's merge rule exactly (larger side
keeps its leaves first; on ties the first edge endpoint's tree stays
left).  It reproduces a
:class:`~tests.structures.parent_pointer_tree.ParentPointerForest`
replay of an edge sequence byte for byte, and its partition must equal
:func:`repro.structures.union_find.components`.
"""

from __future__ import annotations

import numpy as np

from repro.types import IntArray


class ClusterUnionFind:
    """Union-find over ``0..n-1`` that tracks leaf chains per component.

    Reproduces the observable behaviour of running the same union
    sequence through a :class:`~tests.structures.parent_pointer_tree.
    ParentPointerForest` seeded with ``make_singleton`` in id order:

    * merging keeps the larger component's chain first; on equal sizes
      the component of the edge's *first* endpoint stays first (the
      forest swaps only on a strict ``root1.n_leaves < root2.n_leaves``);
    * :meth:`clusters` emits components ordered by their first-created
      member — i.e. by smallest id, matching ``roots()`` iteration over
      insertion-ordered leaves — with members in chain order.

    Internal state lives in Python lists rather than NumPy arrays: the
    merge loop is sequential by nature (each union's tie-break depends
    on sizes produced by earlier unions) and list indexing avoids the
    scalar boxing that dominates per-edge array access.
    """

    __slots__ = ("_parent", "_size", "_head", "_tail", "_next")

    def __init__(self, n: int) -> None:
        self._parent = list(range(n))
        self._size = [1] * n
        self._head = list(range(n))
        self._tail = list(range(n))
        self._next = [-1] * n

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        """Merge the components of ``a`` and ``b`` (no-op if same).

        ``a`` plays the forest's ``find_root(r1)`` role: its component
        stays left unless strictly smaller than ``b``'s.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        size = self._size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        size[ra] += size[rb]
        self._next[self._tail[ra]] = self._head[rb]
        self._tail[ra] = self._tail[rb]

    def union_edges(self, a: IntArray, b: IntArray) -> None:
        """Union every edge ``(a[i], b[i])`` in enumeration order."""
        parent = self._parent
        size = self._size
        head = self._head
        tail = self._tail
        nxt = self._next
        for x, y in zip(a.tolist(), b.tolist()):
            ra = x
            while parent[ra] != ra:
                ra = parent[ra]
            while parent[x] != ra:
                parent[x], x = ra, parent[x]
            rb = y
            while parent[rb] != rb:
                rb = parent[rb]
            while parent[y] != rb:
                parent[y], y = rb, parent[y]
            if ra == rb:
                continue
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
            nxt[tail[ra]] = head[rb]
            tail[ra] = tail[rb]

    def clusters(self) -> list[IntArray]:
        """All components, ordered by first-created member, each as an
        ``int64`` array of member ids in chain order."""
        n = len(self._parent)
        out: list[IntArray] = []
        seen = [False] * n
        nxt = self._next
        for x in range(n):
            root = self.find(x)
            if seen[root]:
                continue
            seen[root] = True
            members = np.empty(self._size[root], dtype=np.int64)
            cur = self._head[root]
            for i in range(self._size[root]):
                members[i] = cur
                cur = nxt[cur]
            out.append(members)
        return out
