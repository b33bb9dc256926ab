"""(w, z)-schemes and their multi-field generalizations as concrete
hash-table layouts (paper §3, Appendix A/B.2/C).

A :class:`HashingScheme` is a list of :class:`TableGroup`:

* a plain (w, z)-scheme is one group: ``z`` tables, each keyed by ``w``
  hash values from one pool;
* an AND construction (Appendix C.1) is one group whose per-table key
  concatenates ``w_f`` values from each field's pool;
* an OR construction (Appendix C.2) is several groups, one per branch.

Table ``j`` of a group reads pool columns ``[j*w, (j+1)*w)``; because a
later function in the sequence uses larger ``w`` and ``z`` over the
*same pools*, all previously computed hash values are reused
(incremental computation, Property 4).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import ConfigurationError
from ..obs.clock import monotonic
from ..types import AnyArray, ArrayLike, IntArray
from .families import SignaturePool

if TYPE_CHECKING:
    from ..obs.observer import RunObserver


@dataclass(frozen=True)
class PoolUse:
    """``w`` hash values per table drawn from ``pool``.

    ``offset`` shifts the column window: table ``j`` reads pool columns
    ``offset + [j*w, (j+1)*w)``.  Used by mixed schemes, whose
    remainder table must hash with functions *independent* of the main
    tables'.
    """

    pool: SignaturePool
    w: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ConfigurationError(f"w must be >= 1, got {self.w}")
        if self.offset < 0:
            raise ConfigurationError(f"offset must be >= 0, got {self.offset}")


@dataclass(frozen=True)
class TableGroup:
    """``z`` hash tables, each keyed by the concatenation of every
    pool's ``w`` values (AND across pools, OR across tables)."""

    z: int
    uses: tuple[PoolUse, ...]

    def __post_init__(self) -> None:
        if self.z < 1:
            raise ConfigurationError(f"z must be >= 1, got {self.z}")
        if not self.uses:
            raise ConfigurationError("table group needs at least one pool")

    @property
    def hashes_per_table(self) -> int:
        return sum(use.w for use in self.uses)

    @property
    def budget(self) -> int:
        """Total hash functions this group applies per record."""
        return self.z * self.hashes_per_table


class HashingScheme:
    """A concrete hashing layout: one or more OR'd table groups."""

    def __init__(self, groups: Iterable[TableGroup]) -> None:
        self.groups: tuple[TableGroup, ...] = tuple(groups)
        if not self.groups:
            raise ConfigurationError("scheme needs at least one table group")

    @property
    def budget(self) -> int:
        """Total hash functions applied per record by this scheme."""
        return sum(g.budget for g in self.groups)

    @property
    def table_count(self) -> int:
        return sum(g.z for g in self.groups)

    def layout_spec(self) -> list[dict[str, Any]]:
        """JSON-friendly structural description of this scheme.

        Used by index snapshots to verify that a scheme rebuilt on
        restore has exactly the captured table layout (pool names,
        per-table hash counts, offsets, table counts).
        """
        return [
            {
                "z": group.z,
                "uses": [
                    {"pool": use.pool.name, "w": use.w, "offset": use.offset}
                    for use in group.uses
                ],
            }
            for group in self.groups
        ]

    def iter_table_keys(self, rids: ArrayLike) -> Iterator[list[bytes]]:
        """Yield, for every table of every group, the per-record bucket
        keys (as ``bytes``) for the records in ``rids``.

        Signatures are fetched once per (group, pool) and sliced per
        table, so pool extension cost is paid exactly once.  The packed
        row representation (:meth:`table_key_rows`) is serialized with
        one ``tobytes`` call per table and byte-sliced per record —
        the per-row ``tobytes`` loop this replaces dominated streaming
        ingest for wide schemes.
        """
        rows, layout = self.table_key_rows(rids)
        for offset, nbytes in layout:
            buf = rows[:, offset : offset + nbytes].tobytes()
            yield [buf[i : i + nbytes] for i in range(0, len(buf), nbytes)]

    def iter_table_collisions(
        self,
        rids: ArrayLike,
        observer: RunObserver | None = None,
    ) -> Iterator[list[IntArray]]:
        """Yield, for every table, the bucket collision groups: arrays of
        *row positions* (indices into ``rids``) that share a bucket.

        Grouping is done with vectorized sorting rather than per-row
        dictionary inserts — the difference between O(m·z) Python-level
        work and z NumPy passes, which dominates deep-sequence
        functions and large LSH-X budgets.

        ``observer`` (an enabled
        :class:`~repro.obs.observer.RunObserver`) adds per-table
        grouping time and collision-group counts to the run metrics.
        """
        timed = observer is not None and observer.enabled
        started = 0.0
        for block in self._iter_table_blocks(rids):
            if timed:
                started = monotonic()
            void = block.view(
                np.dtype((np.void, block.dtype.itemsize * block.shape[1]))
            ).ravel()
            order = np.argsort(void, kind="stable")
            sorted_keys = void[order]
            change = np.empty(order.size, dtype=bool)
            change[0] = True
            change[1:] = sorted_keys[1:] != sorted_keys[:-1]
            starts = np.nonzero(change)[0]
            ends = np.r_[starts[1:], order.size]
            groups = [
                order[s:e] for s, e in zip(starts, ends) if e - s >= 2
            ]
            if timed:
                assert observer is not None
                observer.histogram("scheme.table_group_seconds").observe(
                    monotonic() - started
                )
                observer.counter("scheme.tables_processed").inc()
                observer.counter("scheme.collision_groups").inc(len(groups))
            yield groups

    def table_key_rows(
        self, rids: ArrayLike
    ) -> tuple[AnyArray, list[tuple[int, int]]]:
        """All tables' keys for ``rids`` packed into one uint8 matrix.

        Returns ``(rows, layout)``: ``rows[i]`` is record ``i``'s keys
        for every table concatenated as raw bytes, and ``layout`` holds
        each table's ``(offset, nbytes)`` span.  Byte-slicing a span
        recovers exactly the raw bytes of that table's typed key block,
        so grouping on the slices equals grouping on the blocks.
        """
        parts: list[AnyArray] = []
        layout: list[tuple[int, int]] = []
        offset = 0
        for block in self._iter_table_blocks(rids):
            # A C-contiguous uint8 view widens the last axis to
            # (m, w * itemsize) — the per-record raw bytes.
            part = block.view(np.uint8)
            layout.append((offset, int(part.shape[1])))
            offset += int(part.shape[1])
            parts.append(part)
        rows = parts[0] if len(parts) == 1 else np.hstack(parts)
        return np.ascontiguousarray(rows), layout

    def _iter_table_blocks(self, rids: ArrayLike) -> Iterator[AnyArray]:
        """Per-table contiguous key blocks of shape (m, hashes_per_table)."""
        rids = np.asarray(rids, dtype=np.int64)
        for group in self.groups:
            sigs = [
                np.ascontiguousarray(
                    use.pool.signatures(rids, use.offset + group.z * use.w)
                )
                for use in group.uses
            ]
            for j in range(group.z):
                parts = [
                    sig[:, use.offset + j * use.w : use.offset + (j + 1) * use.w]
                    for sig, use in zip(sigs, group.uses)
                ]
                block = parts[0] if len(parts) == 1 else np.hstack(parts)
                yield np.ascontiguousarray(block)
