"""Log-size bin array (paper Appendix B.4).

Clusters are filed into bins by ``floor(log2(size))``; the largest
cluster is found by scanning the last non-empty bin.  Insertions are
O(1) and, because cluster sizes within one bin differ by at most 2x and
bins hold few clusters in practice, pop-largest is effectively O(1).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Generic, TypeVar

from ..errors import ConfigurationError

T = TypeVar("T")


class BinIndex(Generic[T]):
    """Size-binned collection supporting O(1)-ish pop-largest."""

    def __init__(self) -> None:
        # 64 bins cover any cluster size that fits in a machine word.
        # Each bin keeps its items and their sizes in parallel lists, so
        # the largest is found by a C-level max over plain ints.
        self._items: list[list[T]] = [[] for _ in range(64)]
        self._sizes: list[list[int]] = [[] for _ in range(64)]
        self._count = 0

    @staticmethod
    def _bin_of(size: int) -> int:
        if size < 1:
            raise ConfigurationError(f"cluster size must be >= 1, got {size}")
        return size.bit_length() - 1

    def add(self, item: T, size: int) -> None:
        """File ``item`` under ``size``."""
        b = self._bin_of(size)
        self._items[b].append(item)
        self._sizes[b].append(size)
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def _last_nonempty(self) -> int:
        for b in range(len(self._sizes) - 1, -1, -1):
            if self._sizes[b]:
                return b
        raise IndexError("pop from empty BinIndex")

    def peek_largest_size(self) -> int:
        """Size of the largest stored item (without removing it)."""
        return max(self._sizes[self._last_nonempty()])

    def pop_largest(self) -> tuple[int, T]:
        """Remove and return ``(size, item)`` for the largest item."""
        b = self._last_nonempty()
        items = self._items[b]
        sizes = self._sizes[b]
        best = sizes.index(max(sizes))
        # Swap-pop keeps removal O(1) within the bin.
        items[best], items[-1] = items[-1], items[best]
        sizes[best], sizes[-1] = sizes[-1], sizes[best]
        self._count -= 1
        return sizes.pop(), items.pop()

    def drain(self) -> Iterator[tuple[int, T]]:
        """Yield all remaining ``(size, item)`` pairs, largest first."""
        while self._count:
            yield self.pop_largest()
