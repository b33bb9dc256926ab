"""Record model: schemas, field kinds, and the column-oriented store.

The filtering algorithms in this package never look inside a record
directly — they go through distance metrics and hash families — so the
representation is optimized for *batch* access:

* vector fields are stored as a single ``(n, d)`` float64 matrix, which
  makes random-hyperplane hashing one matrix product;
* shingle-set fields are stored CSR-style (:class:`ShingleColumn`): one
  contiguous ``int64`` ``values`` array plus an ``offsets`` array, so a
  record's set is a zero-copy slice and whole-column operations
  (cardinalities, incidence matrices, persistence) are vectorized.

Both layouts are exactly what the on-disk columnar format
(:mod:`repro.storage`) memory-maps, so a store opened with
``mmap_mode="r"`` and an in-memory one are indistinguishable to every
consumer, and :meth:`RecordStore.slice_view` hands shard workers a
zero-copy window onto the same pages.

Records are addressed everywhere by their integer row id ``rid`` in
``range(len(store))``.
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any, overload

import numpy as np
import scipy.sparse as sp

from .errors import SchemaError
from .types import ArrayLike, FloatArray, IntArray


class FieldKind(enum.Enum):
    """The two physical field representations the library understands."""

    #: Dense real-valued vector (e.g., an RGB histogram). Compared with
    #: cosine distance and hashed with random hyperplanes.
    VECTOR = "vector"
    #: Set of integer shingle ids (e.g., token shingles of a title).
    #: Compared with Jaccard distance and hashed with minhash.
    SHINGLES = "shingles"


@dataclass(frozen=True)
class FieldSpec:
    """Declaration of a single record field."""

    name: str
    kind: FieldKind

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("field name must be non-empty")


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`FieldSpec` declarations."""

    fields: tuple[FieldSpec, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in schema: {names}")
        if not self.fields:
            raise SchemaError("schema must declare at least one field")

    @classmethod
    def single_vector(cls, name: str = "vec") -> Schema:
        """Schema with one dense vector field (the common image case)."""
        return cls((FieldSpec(name, FieldKind.VECTOR),))

    @classmethod
    def single_shingles(cls, name: str = "shingles") -> Schema:
        """Schema with one shingle-set field (the common text case)."""
        return cls((FieldSpec(name, FieldKind.SHINGLES),))

    def __iter__(self) -> Iterator[FieldSpec]:
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def kind_of(self, name: str) -> FieldKind:
        for f in self.fields:
            if f.name == name:
                return f.kind
        raise SchemaError(f"unknown field {name!r}; schema has {self.names}")


@dataclass(frozen=True)
class Record:
    """A lightweight per-row view handed out by :class:`RecordStore`."""

    rid: int
    values: dict[str, Any]

    def __getitem__(self, field_name: str) -> Any:
        return self.values[field_name]


@dataclass(frozen=True)
class StoreBacking:
    """Where a store's columns physically live on disk.

    Set on stores opened from a :class:`repro.storage.StoreLayout`
    (``mmap_mode="r"``) and propagated through :meth:`RecordStore.
    slice_view` / contiguous :meth:`RecordStore.take`, so shard workers
    can be handed a tiny ``(path, version, lo, hi)`` reference and
    re-open the mapping themselves instead of receiving pickled
    columns.
    """

    #: Layout directory of the backing columns.
    path: str
    #: Layout ``store_version`` the columns were opened at.  Layouts
    #: are append-only, so any row below ``hi`` is immutable across
    #: later versions.
    store_version: int
    #: Half-open row range of the layout this store views.
    lo: int
    hi: int


def _as_sorted_ids(values: Iterable[int]) -> IntArray:
    """Coerce a shingle collection into a sorted, unique int64 array."""
    arr = np.asarray(sorted(set(int(v) for v in values)), dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise SchemaError("shingle ids must be non-negative integers")
    return arr


class ShingleColumn(Sequence[IntArray]):
    """CSR-style storage of one shingle-set field.

    Row ``i`` is ``values[offsets[i] : offsets[i + 1]]`` — a sorted,
    unique ``int64`` id array.  Two deliberate freedoms make zero-copy
    views possible:

    * ``offsets`` need not start at zero, and
    * ``values`` may extend beyond the column's span;

    a slice ``column[lo:hi]`` is then just ``offsets[lo : hi + 1]``
    over the *same* ``values`` array — no bytes move, which is what
    makes :meth:`RecordStore.slice_view` free and lets memory-mapped
    columns be windowed per shard without touching the pages.

    The class implements the read-only sequence protocol
    (``len``/index/slice/iterate), so existing consumers written
    against ``list[IntArray]`` keep working unchanged.
    """

    __slots__ = ("offsets", "values")

    def __init__(self, offsets: IntArray, values: IntArray) -> None:
        self.offsets = offsets
        self.values = values

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sets(cls, sets: Sequence[IntArray]) -> ShingleColumn:
        """Build a zero-based column from per-row sorted id arrays."""
        offsets = np.zeros(len(sets) + 1, dtype=np.int64)
        if len(sets):
            np.cumsum([s.size for s in sets], out=offsets[1:])
        if int(offsets[-1]):
            values = np.concatenate(sets).astype(np.int64, copy=False)
        else:
            values = np.zeros(0, dtype=np.int64)
        return cls(offsets, values)

    @classmethod
    def concat(cls, columns: Sequence[ShingleColumn]) -> ShingleColumn:
        """One zero-based column holding every input's rows in order."""
        sizes = [col.sizes() for col in columns]
        n = sum(s.size for s in sizes)
        offsets = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(np.concatenate(sizes), out=offsets[1:])
        flats = [col.flat for col in columns if col.flat.size]
        values = (
            np.concatenate(flats) if flats else np.zeros(0, dtype=np.int64)
        )
        return cls(offsets, values)

    # ------------------------------------------------------------------
    # sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.offsets.size - 1

    @overload
    def __getitem__(self, index: int) -> IntArray: ...
    @overload
    def __getitem__(self, index: slice) -> ShingleColumn: ...

    def __getitem__(self, index: int | slice) -> IntArray | ShingleColumn:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise SchemaError("shingle columns only support step-1 slices")
            stop = max(start, stop)
            return ShingleColumn(
                self.offsets[start : stop + 1], self.values
            )
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"row {index} out of range [0, {len(self)})")
        return self.values[int(self.offsets[i]) : int(self.offsets[i + 1])]

    def __iter__(self) -> Iterator[IntArray]:
        offsets, values = self.offsets, self.values
        for i in range(len(self)):
            yield values[int(offsets[i]) : int(offsets[i + 1])]

    def __eq__(self, other: object) -> bool:
        """Sequence equality: same rows, element-wise.

        Keeps assertions written against the old ``list[IntArray]``
        representation (``column == [arr, ...]``) meaningful.
        """
        if isinstance(other, ShingleColumn):
            return bool(
                np.array_equal(self.rebased_offsets(), other.rebased_offsets())
                and np.array_equal(self.flat, other.flat)
            )
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(self, other)
            )
        return NotImplemented  # type: ignore[return-value]

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("ShingleColumn is unhashable (mutable arrays)")

    # ------------------------------------------------------------------
    # vectorized whole-column views
    # ------------------------------------------------------------------
    @property
    def flat(self) -> IntArray:
        """The column's span of ``values`` — every row, concatenated."""
        return self.values[int(self.offsets[0]) : int(self.offsets[-1])]

    def sizes(self) -> IntArray:
        """Per-row cardinalities (vectorized)."""
        return np.diff(self.offsets)

    def rebased_offsets(self) -> IntArray:
        """Zero-based offsets matching :attr:`flat` (copies ``n + 1``
        ints; never the values)."""
        return self.offsets - self.offsets[0]

    @property
    def nbytes(self) -> int:
        """Bytes this column would occupy serialized (span + offsets)."""
        return int(self.flat.nbytes) + int(self.offsets.nbytes)

    # ------------------------------------------------------------------
    def take(self, rids: IntArray) -> ShingleColumn:
        """A new zero-based column of ``rids``' rows, in order.

        One vectorized gather — no per-row Python objects and no
        re-validation (the rows are already sorted and unique).
        """
        rids = np.asarray(rids, dtype=np.int64)
        lengths = self.sizes()[rids]
        offsets = np.zeros(rids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        if total:
            starts = self.offsets[:-1][rids]
            shift = np.repeat(starts - offsets[:-1], lengths)
            values = self.values[shift + np.arange(total, dtype=np.int64)]
        else:
            values = np.zeros(0, dtype=np.int64)
        return ShingleColumn(offsets, values)

    def validate(self) -> None:
        """Check the CSR invariants without copying row data.

        Raises :class:`SchemaError` unless offsets are monotone, values
        are non-negative, and every row is strictly increasing (sorted
        and duplicate-free).  Vectorized: adopting an already-columnar
        input costs one pass instead of a per-row re-sort.
        """
        offsets = np.asarray(self.offsets)
        if offsets.ndim != 1 or offsets.size < 1:
            raise SchemaError("shingle offsets must be a 1-D array")
        if offsets.size > 1 and np.any(np.diff(offsets) < 0):
            raise SchemaError("shingle offsets must be non-decreasing")
        if int(offsets[0]) < 0 or int(offsets[-1]) > self.values.shape[0]:
            raise SchemaError("shingle offsets exceed the values array")
        flat = self.flat
        if flat.size and int(flat.min()) < 0:
            raise SchemaError("shingle ids must be non-negative integers")
        if flat.size > 1:
            rising = np.ones(flat.size, dtype=bool)
            rising[1:] = np.diff(flat) > 0
            row_starts = self.rebased_offsets()[:-1]
            rising[row_starts[row_starts < flat.size]] = True
            if not rising.all():
                raise SchemaError(
                    "shingle rows must be sorted and duplicate-free"
                )


def _coerce_shingle_column(col: Any) -> ShingleColumn:
    """Validated :class:`ShingleColumn` from any accepted column input.

    An existing :class:`ShingleColumn` (or an ``(offsets, values)``
    pair) is adopted after the vectorized invariant check; anything
    else goes through the per-row sort/dedup coercion.
    """
    if isinstance(col, ShingleColumn):
        col.validate()
        return col
    if (
        isinstance(col, tuple)
        and len(col) == 2
        and isinstance(col[0], np.ndarray)
    ):
        column = ShingleColumn(
            np.asarray(col[0], dtype=np.int64),
            np.asarray(col[1], dtype=np.int64),
        )
        column.validate()
        return column
    return ShingleColumn.from_sets([_as_sorted_ids(v) for v in col])


class RecordStore:
    """Column-oriented container for the dataset ``R``.

    Parameters
    ----------
    schema:
        Field declarations.
    columns:
        Mapping from field name to column data: a ``(n, d)`` array for
        ``VECTOR`` fields; for ``SHINGLES`` fields a sequence of
        shingle-id collections, an existing :class:`ShingleColumn`, or
        an ``(offsets, values)`` array pair.  All columns must agree on
        ``n``.
    """

    def __init__(self, schema: Schema, columns: dict[str, Any]) -> None:
        self.schema = schema
        missing = set(schema.names) - set(columns)
        extra = set(columns) - set(schema.names)
        if missing or extra:
            raise SchemaError(
                f"columns do not match schema (missing={sorted(missing)}, "
                f"unexpected={sorted(extra)})"
            )
        self._vectors: dict[str, FloatArray] = {}
        self._shingles: dict[str, ShingleColumn] = {}
        self._csr_cache: dict[str, sp.csr_matrix] = {}
        self._sizes_cache: dict[str, IntArray] = {}
        #: Per-field packed layouts (see :mod:`repro.kernels.packed`).
        #: Derived data: rebuilt on demand, so it is never serialized
        #: or snapshotted.
        self._packed_cache: dict[str, Any] = {}
        #: On-disk backing of the columns, when memory-mapped.
        self.backing: StoreBacking | None = None
        sizes: set[int] = set()
        for spec in schema:
            col = columns[spec.name]
            if spec.kind is FieldKind.VECTOR:
                mat = np.ascontiguousarray(np.asarray(col, dtype=np.float64))
                if mat.ndim != 2:
                    raise SchemaError(
                        f"vector field {spec.name!r} must be 2-D, got shape {mat.shape}"
                    )
                self._vectors[spec.name] = mat
                sizes.add(int(mat.shape[0]))
            else:
                column = _coerce_shingle_column(col)
                self._shingles[spec.name] = column
                sizes.add(len(column))
        if len(sizes) != 1:
            raise SchemaError(f"columns have inconsistent row counts: {sorted(sizes)}")
        self._n = sizes.pop()

    @classmethod
    def _from_parts(
        cls,
        schema: Schema,
        vectors: dict[str, FloatArray],
        shingles: dict[str, ShingleColumn],
        n: int,
        backing: StoreBacking | None = None,
    ) -> RecordStore:
        """Trusted constructor: adopt already-validated columns without
        copying.  Used by :meth:`take`/:meth:`concat`/:meth:`slice_view`,
        the parallel layer, and :mod:`repro.storage` — the columns are
        exactly what ``__init__`` would have produced, so re-validation
        would only duplicate every shingle array.
        """
        store = cls.__new__(cls)
        store.schema = schema
        store._vectors = vectors
        store._shingles = shingles
        store._csr_cache = {}
        store._sizes_cache = {}
        store._packed_cache = {}
        store._n = n
        store.backing = backing
        return store

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __getitem__(self, rid: int) -> Record:
        if not 0 <= rid < self._n:
            raise IndexError(f"rid {rid} out of range [0, {self._n})")
        values: dict[str, Any] = {}
        for name, mat in self._vectors.items():
            values[name] = mat[rid]
        for name, column in self._shingles.items():
            values[name] = column[rid]
        return Record(rid, values)

    def __iter__(self) -> Iterator[Record]:
        return (self[i] for i in range(self._n))

    @property
    def rids(self) -> IntArray:
        """All record ids as an int64 array."""
        return np.arange(self._n, dtype=np.int64)

    # ------------------------------------------------------------------
    # batch accessors used by hash families and pairwise engines
    # ------------------------------------------------------------------
    def vectors(self, field_name: str) -> FloatArray:
        """The full ``(n, d)`` matrix of a vector field."""
        try:
            return self._vectors[field_name]
        except KeyError:
            raise SchemaError(f"{field_name!r} is not a vector field") from None

    def shingle_sets(self, field_name: str) -> ShingleColumn:
        """A shingle field's rows as a :class:`ShingleColumn`.

        Supports the read-only sequence protocol, so call sites written
        against a ``list`` of per-row arrays work unchanged; the
        vectorized views (``flat``, ``sizes()``) are the fast paths.
        """
        try:
            return self._shingles[field_name]
        except KeyError:
            raise SchemaError(f"{field_name!r} is not a shingles field") from None

    def shingle_csr(self, field_name: str) -> sp.csr_matrix:
        """Binary ``(n, vocab)`` incidence matrix of a shingle field.

        Built lazily and cached; used for vectorized pairwise Jaccard.
        """
        if field_name not in self._csr_cache:
            column = self.shingle_sets(field_name)
            indptr = column.rebased_offsets()
            if indptr[-1]:
                raw = column.flat
                # Ids can come from 32-bit hashes; compact them so the
                # matrix width is the number of *distinct* shingles.
                vocab_ids, indices = np.unique(raw, return_inverse=True)
                vocab = int(vocab_ids.size)
            else:
                indices = np.zeros(0, dtype=np.int64)
                vocab = 1
            data = np.ones(int(indptr[-1]), dtype=np.float64)
            self._csr_cache[field_name] = sp.csr_matrix(
                (data, indices, indptr), shape=(self._n, vocab)
            )
        return self._csr_cache[field_name]

    def set_sizes(self, field_name: str) -> IntArray:
        """Per-record shingle-set cardinalities.

        Cached: pairwise engines ask for this on every one-to-many /
        block call — it must not sit on the per-row hot path.  With the
        columnar layout this is one vectorized ``diff`` even cold.
        """
        if field_name not in self._sizes_cache:
            self._sizes_cache[field_name] = np.ascontiguousarray(
                self.shingle_sets(field_name).sizes()
            )
        return self._sizes_cache[field_name]

    # ------------------------------------------------------------------
    # dataset manipulation
    # ------------------------------------------------------------------
    def take(self, rids: ArrayLike) -> RecordStore:
        """A new store holding only ``rids`` (in the given order).

        Goes through the trusted constructor — rows are already
        validated, so nothing is re-sorted or re-checked.  A contiguous
        ascending ``rids`` range degenerates to :meth:`slice_view`
        (zero-copy); arbitrary ``rids`` gather once per column.
        """
        rids = np.asarray(rids, dtype=np.int64)
        if rids.size and (
            int(rids[-1]) - int(rids[0]) == rids.size - 1
            and bool(np.all(np.diff(rids) == 1))
        ):
            return self.slice_view(int(rids[0]), int(rids[-1]) + 1)
        vectors = {name: mat[rids] for name, mat in self._vectors.items()}
        shingles = {
            name: column.take(rids) for name, column in self._shingles.items()
        }
        return RecordStore._from_parts(
            self.schema, vectors, shingles, int(rids.size)
        )

    def slice_view(self, lo: int, hi: int) -> RecordStore:
        """Zero-copy view of the contiguous row range ``[lo, hi)``.

        Vector matrices are sliced (NumPy views), shingle columns are
        re-windowed over the same ``values`` array, and the on-disk
        :attr:`backing` (when present) is translated to the sub-range —
        shard workers, snapshots, and fork/spawn payloads all share the
        parent's pages through this.
        """
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= self._n:
            raise SchemaError(
                f"slice [{lo}, {hi}) out of range for store of {self._n} rows"
            )
        vectors = {name: mat[lo:hi] for name, mat in self._vectors.items()}
        shingles = {
            name: column[lo:hi] for name, column in self._shingles.items()
        }
        backing = None
        if self.backing is not None:
            backing = StoreBacking(
                self.backing.path,
                self.backing.store_version,
                self.backing.lo + lo,
                self.backing.lo + hi,
            )
        return RecordStore._from_parts(
            self.schema, vectors, shingles, hi - lo, backing=backing
        )

    def concat(self, other: RecordStore) -> RecordStore:
        """A new store with ``other``'s rows appended after this one's.

        Column data is concatenated through the trusted constructor —
        both inputs are validated stores, so no row is re-sorted and no
        shingle array is copied more than the one unavoidable
        concatenation.
        """
        if other.schema != self.schema:
            raise SchemaError("cannot concat stores with different schemas")
        vectors = {
            name: np.vstack([mat, other._vectors[name]])
            for name, mat in self._vectors.items()
        }
        shingles = {
            name: ShingleColumn.concat([column, other._shingles[name]])
            for name, column in self._shingles.items()
        }
        return RecordStore._from_parts(
            self.schema, vectors, shingles, self._n + other._n
        )

    #: Rows hashed per :meth:`content_fingerprint` chunk.  Bounds the
    #: transient buffer to a few MiB regardless of store size.
    _FINGERPRINT_CHUNK_ROWS = 8192

    def content_fingerprint(self, limit: int | None = None) -> str:
        """SHA-256 over the schema and the first ``limit`` rows' bytes.

        Index snapshots use this to verify that a snapshot is restored
        onto the store it was captured from.  Because the digest covers
        row prefixes field by field, a store extended with
        :meth:`concat` satisfies
        ``extended.content_fingerprint(limit=len(original)) ==
        original.content_fingerprint()`` — the relaxed check behind
        snapshot-then-extend restores.

        Hashing walks fixed-size row chunks (the digest is identical to
        hashing each column in one piece), so peak memory stays flat on
        memory-mapped million-record stores instead of materializing a
        second copy of every matrix.
        """
        n = self._n if limit is None else min(int(limit), self._n)
        chunk = self._FINGERPRINT_CHUNK_ROWS
        digest = hashlib.sha256()
        digest.update(f"n={n}".encode())
        for spec in self.schema:
            digest.update(f"|{spec.name}:{spec.kind.value}".encode())
            if spec.kind is FieldKind.VECTOR:
                mat = self._vectors[spec.name]
                digest.update(f":{mat.shape[1] if mat.ndim == 2 else 0}".encode())
                for lo in range(0, n, chunk):
                    hi = min(lo + chunk, n)
                    digest.update(np.ascontiguousarray(mat[lo:hi]).tobytes())
            else:
                column = self._shingles[spec.name]
                for lo in range(0, n, chunk):
                    hi = min(lo + chunk, n)
                    digest.update(_length_prefixed_rows(column, lo, hi))
        return digest.hexdigest()


def _length_prefixed_rows(column: ShingleColumn, lo: int, hi: int) -> bytes:
    """Rows ``[lo, hi)`` serialized as ``[size_i][ids_i]...`` int64 words.

    Byte-for-byte the stream ``np.int64(row.size).tobytes() +
    row.tobytes()`` concatenated over the rows — the shingle half of
    :meth:`RecordStore.content_fingerprint` — built with one vectorized
    scatter instead of a Python loop per row.
    """
    rows = hi - lo
    offsets = column.offsets[lo : hi + 1] - column.offsets[lo]
    sizes = np.diff(offsets)
    flat = column.values[int(column.offsets[lo]) : int(column.offsets[hi])]
    buf = np.empty(int(offsets[-1]) + rows, dtype=np.int64)
    row_index = np.arange(rows, dtype=np.int64)
    buf[offsets[:-1] + row_index] = sizes
    if flat.size:
        positions = (
            np.arange(flat.size, dtype=np.int64)
            + np.repeat(row_index, sizes)
            + 1
        )
        buf[positions] = flat
    return buf.tobytes()
