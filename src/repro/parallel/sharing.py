"""Sharing a :class:`~repro.records.RecordStore` with shard workers.

On platforms whose multiprocessing start method is ``fork`` (Linux —
the production target), a shard worker inherits the parent's address
space, so the store's arrays are shared copy-on-write and nothing is
serialized (:func:`fork_available` says which case applies).

On spawn/forkserver platforms nothing is inherited, so the service
ships a :class:`StorePayload` — the store flattened to plain picklable
arrays — to the worker instead, and the worker rebuilds the store once
via the trusted no-copy constructor.

Stores backed by an on-disk columnar layout (:mod:`repro.storage`) have
a third, cheaper option on *every* start method: a :class:`DiskStoreRef`
— just ``(path, store_version, lo, hi)`` — which the worker resolves by
memory-mapping the layout itself.  No column bytes are pickled at all;
parent and workers share the same page-cache pages.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np

from ..errors import SnapshotError
from ..records import RecordStore, Schema, ShingleColumn
from ..types import FloatArray, IntArray


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass
class StorePayload:
    """A :class:`RecordStore` flattened to picklable parts.

    Shingle columns travel as ``(flat, lengths)`` pairs rather than a
    list of per-record arrays so the payload pickles as a handful of
    large buffers instead of thousands of small objects.
    """

    schema: Schema
    vectors: dict[str, FloatArray]
    shingle_flat: dict[str, IntArray]
    shingle_lengths: dict[str, IntArray]
    n: int

    @property
    def nbytes(self) -> int:
        """Column bytes this payload serializes (the pickle cost)."""
        total = 0
        for mat in self.vectors.values():
            total += int(mat.nbytes)
        for flat in self.shingle_flat.values():
            total += int(flat.nbytes)
        for lengths in self.shingle_lengths.values():
            total += int(lengths.nbytes)
        return total


@dataclass(frozen=True)
class DiskStoreRef:
    """A zero-copy handle to rows ``[lo, hi)`` of an on-disk layout.

    Resolving re-opens the layout with ``mmap_mode="r"`` and takes a
    :meth:`~repro.records.RecordStore.slice_view`, so shipping one of
    these to a worker transfers a path and three integers — never the
    columns.  Layouts are append-only: a layout whose ``store_version``
    has moved past ``store_version`` still holds the identical bytes
    for every row below ``hi``, so refs stay valid across rollovers.
    """

    path: str
    store_version: int
    lo: int
    hi: int


def payload_from_store(store: RecordStore) -> StorePayload:
    """Flatten ``store`` into a :class:`StorePayload`."""
    vectors: dict[str, FloatArray] = {}
    shingle_flat: dict[str, IntArray] = {}
    shingle_lengths: dict[str, IntArray] = {}
    for name in store.schema.names:
        kind = store.schema.kind_of(name)
        if kind.value == "vector":
            vectors[name] = store.vectors(name)
        else:
            column = store.shingle_sets(name)
            shingle_flat[name] = column.flat
            shingle_lengths[name] = np.ascontiguousarray(column.sizes())
    return StorePayload(
        schema=store.schema,
        vectors=vectors,
        shingle_flat=shingle_flat,
        shingle_lengths=shingle_lengths,
        n=len(store),
    )


def store_from_payload(payload: StorePayload) -> RecordStore:
    """Rebuild the :class:`RecordStore` a payload was made from.

    The arrays in the payload are exactly the validated columns of the
    source store, so this goes through the trusted constructor and the
    result is indistinguishable from the original for every batch
    accessor.
    """
    shingles: dict[str, ShingleColumn] = {}
    for name, flat in payload.shingle_flat.items():
        lengths = payload.shingle_lengths[name]
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        shingles[name] = ShingleColumn(
            offsets, np.ascontiguousarray(flat).astype(np.int64, copy=False)
        )
    return RecordStore._from_parts(
        payload.schema, dict(payload.vectors), shingles, payload.n
    )


def ref_from_store(store: RecordStore) -> DiskStoreRef | None:
    """A :class:`DiskStoreRef` for ``store``, or ``None`` when the
    store's columns live only in memory."""
    backing = store.backing
    if backing is None:
        return None
    return DiskStoreRef(
        backing.path, backing.store_version, backing.lo, backing.hi
    )


def store_from_ref(ref: DiskStoreRef) -> RecordStore:
    """Re-open the rows a :class:`DiskStoreRef` points at (mmap)."""
    from ..storage import StoreLayout  # records -> storage cycle guard

    layout = StoreLayout(ref.path)
    if layout.store_version < ref.store_version or layout.n < ref.hi:
        raise SnapshotError(
            f"layout at {ref.path} (version {layout.store_version}, "
            f"n={layout.n}) is older than the ref "
            f"(version {ref.store_version}, hi={ref.hi}); layouts are "
            "append-only, so this ref was made against different files"
        )
    return layout.open().slice_view(ref.lo, ref.hi)


def resolve_store_arg(
    store: RecordStore | StorePayload | DiskStoreRef,
) -> RecordStore:
    """Materialize any of the three transferable store shapes."""
    if isinstance(store, RecordStore):
        return store
    if isinstance(store, DiskStoreRef):
        return store_from_ref(store)
    return store_from_payload(store)
