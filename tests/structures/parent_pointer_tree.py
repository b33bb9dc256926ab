"""Parent-pointer trees (paper Appendix B.1 / B.2).

Each tree represents one cluster.  Leaves carry record ids and are
chained left-to-right (each leaf points at "the first leaf on the
right"); the root knows the first and last leaf and the total leaf
count, so that

* iterating a cluster's records is ``O(size)``,
* merging two clusters is ``O(1)`` pointer surgery plus a root lookup,
* a cluster's size is read in ``O(1)``.

The forest object owns the leaf-per-record mapping (Appendix B.2 case
analysis: "has the record been added to a tree yet?").  The program
computes the same partitions with the vectorised components kernel
(:func:`repro.structures.union_find.components`); the forest stays here
as an oracle for it and for the reference pairwise function.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import StructureError


class Node:
    """Internal node (or single-tree root).  Roots have ``parent is None``."""

    __slots__ = ("parent", "n_leaves", "first_leaf", "last_leaf")

    def __init__(self) -> None:
        self.parent: Node | None = None
        self.n_leaves = 0
        self.first_leaf: Leaf | None = None
        self.last_leaf: Leaf | None = None

    @property
    def size(self) -> int:
        return self.n_leaves


class Leaf:
    """Leaf node holding one record id."""

    __slots__ = ("parent", "rid", "next_leaf")

    def __init__(self, rid: int) -> None:
        self.parent: Node | None = None
        self.rid = rid
        self.next_leaf: Leaf | None = None


class ParentPointerForest:
    """A forest of parent-pointer trees over record ids.

    The forest starts empty; records enter it through
    :meth:`make_singleton` (Appendix B.2 case 1) and trees merge through
    :meth:`union` (cases 3/4, Figure 19).
    """

    def __init__(self) -> None:
        self._leaf_of: dict[int, Leaf] = {}

    # ------------------------------------------------------------------
    def __contains__(self, rid: int) -> bool:
        return rid in self._leaf_of

    def __len__(self) -> int:
        return len(self._leaf_of)

    def make_singleton(self, rid: int) -> Node:
        """Create a one-leaf tree for ``rid`` and return its root."""
        if rid in self._leaf_of:
            raise StructureError(f"record {rid} is already in the forest")
        leaf = Leaf(rid)
        root = Node()
        leaf.parent = root
        root.n_leaves = 1
        root.first_leaf = root.last_leaf = leaf
        self._leaf_of[rid] = leaf
        return root

    def find_root(self, rid: int) -> Node:
        """Root of the tree containing ``rid``.

        Applies path halving on internal nodes while walking, which
        keeps amortized lookups near-constant without changing any
        observable tree property.
        """
        leaf = self._leaf_of[rid]
        node = leaf.parent
        assert node is not None  # leaves always have a parent Node
        while node.parent is not None:
            if node.parent.parent is not None:
                node.parent = node.parent.parent
            node = node.parent
        return node

    def same_tree(self, r1: int, r2: int) -> bool:
        """True iff both records are currently in the same tree."""
        return self.find_root(r1) is self.find_root(r2)

    def union(self, root1: Node, root2: Node) -> Node:
        """Merge two distinct trees under a new root (Figure 19c).

        Returns the new root.  The larger tree is kept on the left so
        its leaves stay first in the chain (irrelevant semantically,
        but keeps chains deterministic for tests).
        """
        if root1 is root2:
            return root1
        if root1.n_leaves < root2.n_leaves:
            root1, root2 = root2, root1
        new_root = Node()
        root1.parent = new_root
        root2.parent = new_root
        new_root.n_leaves = root1.n_leaves + root2.n_leaves
        new_root.first_leaf = root1.first_leaf
        new_root.last_leaf = root2.last_leaf
        assert root1.last_leaf is not None  # roots of non-empty trees
        root1.last_leaf.next_leaf = root2.first_leaf
        # Old roots no longer need their leaf pointers; drop them so a
        # stale handle cannot silently iterate a partial cluster.
        root1.first_leaf = root1.last_leaf = None
        root2.first_leaf = root2.last_leaf = None
        return new_root

    def union_records(self, r1: int, r2: int) -> Node:
        """Merge the trees containing ``r1`` and ``r2`` (no-op if same)."""
        return self.union(self.find_root(r1), self.find_root(r2))

    # ------------------------------------------------------------------
    @staticmethod
    def leaves(root: Node) -> Iterator[int]:
        """Yield the record ids of a tree in chain order."""
        leaf = root.first_leaf
        if leaf is None and root.n_leaves:
            raise StructureError("cannot iterate a non-root (merged) node")
        count = 0
        while leaf is not None:
            yield leaf.rid
            count += 1
            if count > root.n_leaves:
                raise StructureError("leaf chain longer than recorded size")
            leaf = leaf.next_leaf
        if count != root.n_leaves:
            raise StructureError(
                f"leaf chain has {count} leaves, root records {root.n_leaves}"
            )

    def roots(self) -> list[Node]:
        """All distinct roots currently in the forest."""
        seen: set[int] = set()
        out: list[Node] = []
        for rid in self._leaf_of:
            root = self.find_root(rid)
            if id(root) not in seen:
                seen.add(id(root))
                out.append(root)
        return out

    def canonical_clusters(self) -> list[np.ndarray]:
        """Every tree as an ascending ``int64`` rid array, trees ordered
        by smallest rid: the partition in the program's output order."""
        clusters = [
            np.sort(np.fromiter(self.leaves(root), dtype=np.int64))
            for root in self.roots()
        ]
        clusters.sort(key=lambda c: int(c[0]))
        return clusters
