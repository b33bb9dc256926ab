"""Hash-family protocol and the incremental signature pool.

Property 4 of the clustering-function sequence (incremental
computation) is implemented here: each record's hash values are cached
in a :class:`SignaturePool`, so a later function in the sequence — one
that needs more hash values for the same family — only pays for the
*new* columns.  The pool also keeps the work counters that the cost
model and the experiment harness read.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import SnapshotError
from ..obs.clock import monotonic
from ..records import RecordStore
from ..types import AnyArray, ArrayLike, FloatArray, IntArray

if TYPE_CHECKING:
    from ..obs.observer import RunObserver


class HashFamily(abc.ABC):
    """A locality-sensitive family producing integer hash values.

    Implementations must be *columnar*: hash function ``j`` is the
    ``j``-th column of the family's (conceptually infinite) function
    pool, so signatures extend deterministically as more columns are
    requested.
    """

    #: NumPy dtype of produced hash values.
    dtype: np.dtype[Any]

    def __init__(self, store: RecordStore, field: str) -> None:
        self.store = store
        self.field = field

    @abc.abstractmethod
    def compute(self, rids: IntArray, start: int, stop: int) -> AnyArray:
        """Hash values of functions ``[start, stop)`` for ``rids``.

        Returns an array of shape ``(len(rids), stop - start)``.
        """

    def collision_prob(self, x: ArrayLike) -> FloatArray:
        """``p(x)`` for this family; both paper families are ``1 - x``."""
        arr = np.asarray(x, dtype=np.float64)
        return np.clip(1.0 - arr, 0.0, 1.0)

    def export_state(self) -> dict[str, Any]:
        """Serializable family state: drawn parameters plus RNG lineage.

        The state must contain everything needed so that, on a family
        rebuilt over the *same store/field*, :meth:`import_state`
        reproduces both the already-drawn hash columns and every future
        draw (the RNG stream position).  Store-derived data (e.g.
        scrambled shingle sets) is *not* part of the state — it is
        rebuilt deterministically from the store.
        """
        raise SnapshotError(
            f"{type(self).__name__} does not support index snapshots"
        )

    def import_state(self, state: dict[str, Any]) -> None:
        """Adopt :meth:`export_state` output on a freshly built family."""
        raise SnapshotError(
            f"{type(self).__name__} does not support index snapshots"
        )

    @property
    def label(self) -> str:
        """Short family identifier used in metric names and reports."""
        return f"{type(self).__name__}[{self.field}]"


#: Width of the narrowest size class; class ``c`` holds rows of up to
#: ``MIN_WIDTH << c`` hash values.
MIN_WIDTH = 8

#: Records copied per slice when exporting a pool.
EXPORT_ROWS = 256


def _class_of(count: int) -> int:
    """Index of the narrowest size class whose rows hold ``count``
    values."""
    return max(0, (int(count) - 1) // MIN_WIDTH).bit_length()


class _SizeClass:
    """The rows of one size class: a ``(rows, width)`` value matrix
    that hands out fresh (zero) rows and grows by doubling, up to one
    row per record, plus each record's row in it (``-1``: none)."""

    def __init__(
        self, width: int, dtype: np.dtype[Any], n_records: int, rows: int
    ) -> None:
        self.width = width
        self.data: AnyArray = np.zeros((rows, width), dtype=dtype)
        self.used = 0
        self.slot_of: IntArray = np.full(n_records, -1, dtype=np.int64)

    def add(self, rids: IntArray) -> IntArray:
        """New rows for distinct ``rids``, which have none here yet."""
        stop = self.used + int(rids.size)
        if stop > self.data.shape[0]:
            rows = min(max(stop, 2 * self.data.shape[0]), self.slot_of.size)
            grown = np.zeros((rows, self.width), dtype=self.data.dtype)
            grown[: self.used] = self.data[: self.used]
            self.data = grown
        slots = np.arange(self.used, stop, dtype=np.int64)
        self.used = stop
        self.slot_of[rids] = slots
        return slots


def _by_class(cls: AnyArray) -> list[tuple[int, Any]]:
    """``(class, index)`` groups of a per-entry class array; one group
    indexed by ``slice(None)`` when every entry shares a class."""
    if cls.size == 0:
        return []
    first = int(cls[0])
    if bool((cls == first).all()):
        return [(first, slice(None))]
    return [(int(c), np.flatnonzero(cls == c)) for c in np.unique(cls)]


#: ``(class, rows in it, index into the request)`` read groups.
RowGroups = list[tuple[_SizeClass, IntArray, Any]]


class SignaturePool:
    """Per-record cache of hash values for one :class:`HashFamily`.

    ``signatures(rids, count)`` extends only the missing columns of
    only the requested records — this is exactly the
    incremental-computation property the adaptive algorithm exploits.

    Values are kept in *size classes*: a record's values are one
    contiguous row of the class whose width is the smallest power of
    two (at least :data:`MIN_WIDTH`) that holds its fill count.  An
    extension that still fits writes the row in place; one that does
    not copies only that record's values into a row of the wider class,
    so a growth never touches the records that did not grow.  The row
    left behind is completed to its class's width and kept: every record
    that passed through a class can still be read there.  The records
    one level reads were refined to that level together, so they all
    have a row in its class and reading them is one gather.
    """

    def __init__(self, family: HashFamily, name: str = "pool") -> None:
        self.family = family
        self.name = name
        n = len(family.store)
        self._filled: IntArray = np.zeros(n, dtype=np.int64)
        #: Class of each record's widest row, the one holding all its
        #: values; -1 while it has none.
        self._cls: AnyArray = np.full(n, -1, dtype=np.int8)
        self._classes: list[_SizeClass | None] = []
        #: Total hash values ever computed (work counter).
        self.hashes_computed = 0
        #: Wall-time spent in :meth:`HashFamily.compute` (only measured
        #: while an enabled observer is attached; see :attr:`observer`).
        self.hash_seconds = 0.0
        #: Optional :class:`~repro.obs.observer.RunObserver`; when set
        #: and enabled, :meth:`ensure` times hash computation and feeds
        #: per-pool counters/histograms into its metrics registry.
        self.observer: RunObserver | None = None

    def __len__(self) -> int:
        return int(self._filled.shape[0])

    def filled(self, rid: int) -> int:
        """How many hash values are cached for ``rid``."""
        return int(self._filled[rid])

    def _class(self, c: int) -> _SizeClass:
        found = self._classes[c]
        assert found is not None
        return found

    def _open_class(self, c: int, rows: int) -> _SizeClass:
        """Class ``c``, created with room for ``rows`` rows if absent."""
        while len(self._classes) <= c:
            self._classes.append(None)
        found = self._classes[c]
        if found is None:
            found = _SizeClass(
                MIN_WIDTH << c, self.family.dtype, len(self), rows
            )
            self._classes[c] = found
        return found

    def _write(
        self, rids: IntArray, level: int, count: int, values: AnyArray
    ) -> None:
        """Store columns ``[level, count)`` of ``rids`` (all at fill
        ``level``)."""
        dest = _class_of(count)
        grows = self._cls[rids] < dest
        if grows.any():
            movers, first = np.unique(rids[grows], return_index=True)
            moved = values[np.flatnonzero(grows)[first]]
            target = self._open_class(dest, int(movers.size))
            new = target.add(movers)
            for c, idx in _by_class(self._cls[movers]):
                if c < 0:
                    continue
                source = self._class(c)
                old = source.slot_of[movers[idx]]
                if level:
                    target.data[new[idx], :level] = source.data[old, :level]
                # Complete the row left behind, so it stays readable.
                source.data[old, level:] = moved[idx, : source.width - level]
            self._cls[movers] = dest
        for c, idx in _by_class(self._cls[rids]):
            found = self._class(c)
            found.data[found.slot_of[rids[idx]], level:count] = values[idx]

    def ensure(self, rids: ArrayLike, count: int) -> None:
        """Make sure every record in ``rids`` has ``count`` hash values."""
        rids = np.asarray(rids, dtype=np.int64)
        pending = rids[self._filled[rids] < count]
        if pending.size == 0:
            return
        obs = self.observer
        timed = obs is not None and obs.enabled
        before = 0
        started = 0.0
        if timed:
            before = self.hashes_computed
            started = monotonic()
        # Records arrive at a handful of distinct fill levels (one per
        # earlier budget), so batching by level keeps compute() calls few.
        levels = np.unique(self._filled[pending])
        for level in levels:
            batch = pending[self._filled[pending] == level]
            values = self.family.compute(batch, int(level), count)
            self._write(batch, int(level), count, values)
            self._filled[batch] = count
            self.hashes_computed += int(batch.size) * (count - int(level))
        if timed:
            assert obs is not None
            elapsed = monotonic() - started
            self.hash_seconds += elapsed
            obs.counter(f"hash.computed.{self.name}").inc(
                self.hashes_computed - before
            )
            obs.histogram(f"hash.seconds.{self.name}").observe(elapsed)

    def stats(self) -> dict[str, Any]:
        """Per-pool work summary for run reports."""
        return {
            "name": self.name,
            "family": self.family.label,
            "hashes_computed": int(self.hashes_computed),
            "seconds": float(self.hash_seconds),
            "bytes": sum(
                found.data.nbytes for found in self._classes if found is not None
            ),
            "filled_values": int(self._filled.sum()),
        }

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def export_columns(self) -> tuple[AnyArray, IntArray]:
        """The cached values as a dense ``(n, max fill)`` matrix, zero
        past each record's fill count, plus the per-record fill counts,
        for index snapshots (dtype-exact).  The arrays depend only on
        what is filled, never on how the pool grew."""
        n = len(self)
        width = int(self._filled.max()) if n else 0
        held = np.flatnonzero(self._cls >= 0)
        data = np.zeros((n, width), dtype=self.family.dtype)
        for c, idx in _by_class(self._cls[held]):
            found = self._class(c)
            rows = held[idx]
            cols = min(width, found.width)
            # In slices, so the gather's temporary copy stays small.
            for lo in range(0, rows.size, EXPORT_ROWS):
                part = rows[lo : lo + EXPORT_ROWS]
                data[part, :cols] = found.data[found.slot_of[part], :cols]
        return data, self._filled.copy()

    def import_columns(self, data: AnyArray, filled: ArrayLike) -> None:
        """Adopt snapshot columns on a freshly built (empty) pool.

        ``data``/``filled`` may cover only a *prefix* of this pool's
        records — the snapshot-then-extend-store case — in which case
        the remaining rows start empty.  Every record, the empty ones
        included, gets a row of one size class wide enough for the
        largest fill count, so a restored pool reads with one gather
        and records that arrive later fill in place.
        ``hashes_computed`` stays at its current value: restored values
        were paid for by the run that captured them, not by this one.
        """
        data = np.asarray(data)
        filled = np.asarray(filled, dtype=np.int64)
        n = len(self)
        rows = int(data.shape[0])
        if rows != filled.size or rows > n:
            raise SnapshotError(
                f"pool {self.name!r}: snapshot covers {rows} records "
                f"(fill counts: {filled.size}) but the store has {n}"
            )
        if data.dtype != self.family.dtype:
            raise SnapshotError(
                f"pool {self.name!r}: snapshot dtype {data.dtype} does not "
                f"match family dtype {self.family.dtype}"
            )
        capacity = int(data.shape[1])
        if filled.size and (filled.min() < 0 or filled.max() > capacity):
            raise SnapshotError(
                f"pool {self.name!r}: fill counts outside [0, {capacity}]"
            )
        self._filled = np.zeros(n, dtype=np.int64)
        self._filled[:rows] = filled
        self._cls = np.full(n, -1, dtype=np.int8)
        self._classes = []
        top = int(filled.max()) if filled.size else 0
        if top:
            c = _class_of(top)
            found = self._open_class(c, n)
            found.add(np.arange(n, dtype=np.int64))
            self._cls[:] = c
            cols = min(capacity, found.width)
            found.data[:rows, :cols] = data[:, :cols]

    def _rows(self, rids: IntArray, count: int) -> RowGroups:
        """Where to read columns ``[0, count)`` of filled ``rids``.

        One group when every record has a row in the narrowest class
        present that holds ``count`` values (the common case); else each
        record's widest row, grouped by class.
        """
        for c in range(_class_of(count), len(self._classes)):
            found = self._classes[c]
            if found is not None:
                slots = found.slot_of[rids]
                # A class with a row for every record needs no check.
                full = found.used == self._filled.size
                if full or not slots.size or slots.min() >= 0:
                    return [(found, slots, slice(None))]
                break
        groups: RowGroups = []
        for c, idx in _by_class(self._cls[rids]):
            found = self._class(c)
            groups.append((found, found.slot_of[rids[idx]], idx))
        return groups

    def _gather(self, rids: IntArray, start: int, stop: int) -> AnyArray:
        """Columns ``[start, stop)`` of filled records ``rids``."""
        if stop <= start:
            return np.zeros((rids.size, 0), dtype=self.family.dtype)
        groups = self._rows(rids, stop)
        if len(groups) == 1:
            found, slots, _ = groups[0]
            return found.data[slots, start:stop]
        out = np.empty((rids.size, stop - start), dtype=self.family.dtype)
        for found, slots, idx in groups:
            out[idx] = found.data[slots, start:stop]
        return out

    def signatures(
        self, rids: ArrayLike, count: int, start: int = 0
    ) -> AnyArray:
        """Hash values ``[start, count)`` of each record in ``rids``."""
        rids = np.asarray(rids, dtype=np.int64)
        self.ensure(rids, count)
        return self._gather(rids, start, count)

    def table_values(
        self,
        rids: IntArray,
        tables: IntArray,
        w: int,
        offset: int,
        z: int,
        positions: IntArray | None = None,
    ) -> AnyArray:
        """The ``w`` hash values table ``tables[i]`` of a ``z``-table
        layout reads for entry ``i`` — columns ``offset + [t * w,
        (t + 1) * w)`` — as a ``(len(tables), w)`` array.

        Entry ``i`` is record ``rids[positions[i]]`` (``rids[i]`` when
        ``positions`` is omitted), so row lookups run once per record,
        not once per entry.
        """
        count = offset + z * w
        self.ensure(rids, count)
        groups = self._rows(rids, count)
        if len(groups) == 1:
            found, rows, _ = groups[0]
            window = found.data[:, offset:count]
        else:
            # Records read from several classes: copy their windows into
            # one matrix, then read every entry from it.
            window = self._gather(rids, offset, count)
            rows = np.arange(rids.size, dtype=np.int64)
        if positions is not None:
            rows = rows[positions]
        # Each table's w values as one opaque item, so the gather copies
        # whole keys instead of indexing value by value.
        dtype = self.family.dtype
        item = np.dtype((np.void, w * dtype.itemsize))
        keys = window.view(item)[rows, tables]
        return keys.view(dtype).reshape(tables.size, w)
