"""The two hot kernels and their shared semantics.

Per-record minhash signature blocks and set-intersection verification
are the two operations the paper's cost model prices (hash values per
record for each ``H_i``, pair evaluations for ``P``).  This module owns
their *semantics* — the scrambled minhash input convention (splitmix64
over ids, ``EMPTY_SENTINEL`` for empty sets) and the exact float
epilogue of every Jaccard shape — and :class:`KernelBackend`, the one
implementation, which evaluates them over the bit-packed
:class:`~repro.kernels.packed.PackedField` layout:

* signature blocks of batches larger than the vocabulary gather from
  per-chunk hash tables (``(vocab * a) >> 32`` as uint32, built once
  per call) and fold rows with in-place ``np.minimum``; smaller batches
  multiply their own scrambled ids.  Right-shift is order-preserving,
  so either way the result equals ``min(hashes) >> 32`` bit for bit;
* intersections are exact integer counts — ``bitwise_and`` + popcount
  over dense bitset rows for small vocabularies, a vectorized
  searchsorted merge over sorted ids otherwise — feeding the shared
  float epilogue :func:`_finish_distances`.

The pure-NumPy reference implementation (padded multiply-hash batches,
``intersect1d`` pair loops) lives in ``tests/kernels/reference.py`` as
the bit-identity oracle these kernels are tested against.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

import numpy as np

from ..types import AnyArray, FloatArray, IntArray

if TYPE_CHECKING:
    from ..records import RecordStore
    from .packed import PackedField

#: Pseudo-element hashed for empty sets, so two empty sets (Jaccard
#: distance 0 by convention) always collide.
EMPTY_SENTINEL = np.uint64((1 << 63) - 59)

#: Hash columns are materialized in chunks to bound temporary memory.
_CHUNK = 128
#: Records are processed in batches so the (batch, set, chunk) work
#: array stays within a few tens of megabytes.
_BATCH = 256
#: Vocabularies up to this size may hash through per-chunk tables
#: (table bytes = vocab × chunk × 4, so 8 MiB at the limit).  Above it,
#: building a table costs about as much as hashing the sets directly —
#: vocab approaches total set volume, so the multiply count is the same
#: and the gathers are pure overhead — and the broadcast multiply path
#: is used instead (measured: parity with the reference, while forced
#: tables at vocab ≈ 93k were 0.5-1.3×).  Below it, tables are used
#: only when the rows to hash hold at least ``vocab`` codes: a table
#: costs one multiply per vocabulary entry, so smaller batches multiply
#: their own codes directly (measured on Cora fields: the two paths
#: cross at about that volume; one record hashed 13-81× faster direct).
_TABLE_VOCAB_LIMIT = 16384
#: Pair-list intersections run over chunks of this many pairs, bounding
#: the transient AND/popcount arrays.
_PAIR_CHUNK = 1 << 16
#: ``jaccard_pairwise`` / ``jaccard_block_matrix`` use bitset popcount
#: only up to this many result cells; beyond it the CSR sparse product
#: reads less memory per pair and wins (measured crossover; counts are
#: exact integers either way, so the choice never changes results).
_MATRIX_POPCOUNT_CELLS = 4096

#: ``np.bitwise_count`` landed in NumPy 2.0; older installs fall back
#: to an 8-bit lookup table over the bytes of each word.  Module-level
#: so tests can force the LUT path.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_POP_LUT = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)


def _splitmix64(x: AnyArray) -> AnyArray:
    """The splitmix64 finalizer: a fixed bijective scrambler of uint64."""
    with np.errstate(over="ignore"):
        z = x + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def jaccard_distance(a: AnyArray, b: AnyArray) -> float:
    """Jaccard distance of two sorted shingle-id arrays."""
    if a.size == 0 and b.size == 0:
        return 0.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return 1.0 - inter / union


def _finish_distances(inter: FloatArray, union: FloatArray) -> FloatArray:
    """Shared float epilogue: exact integer counts to float distances.

    Every Jaccard shape produces *exact* integer intersection/union
    counts in float64, so routing them all through this one expression
    makes the float outputs bit-identical across shapes and against the
    reference oracle (elementwise IEEE ops do not depend on array shape
    or chunking).  An empty union (two empty sets) is similarity 1 by
    convention, hence distance 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        sim = np.where(union > 0.0, inter / union, 1.0)
    return np.asarray(1.0 - sim, dtype=np.float64)


def _csr_pairwise(
    store: RecordStore, field: str, rids: IntArray, chunk: int
) -> FloatArray:
    """Row-chunked ``csr @ csr.T`` distance matrix.

    The full product densified all at once, so transients peaked at
    several times the m×m output; chunked rows bound every intermediate
    to O(chunk · m).  Intersection counts are exact integers, so the
    chunked floats equal the one-shot ones bit for bit.
    """
    rids = np.asarray(rids, dtype=np.int64)
    m = int(rids.size)
    csr = store.shingle_csr(field)[rids]
    csr_t = csr.T
    sizes = np.asarray(csr.sum(axis=1), dtype=np.float64).ravel()
    dist = np.empty((m, m), dtype=np.float64)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        inter = np.asarray((csr[lo:hi] @ csr_t).todense(), dtype=np.float64)
        union = sizes[lo:hi, None] + sizes[None, :] - inter
        dist[lo:hi] = _finish_distances(inter, union)
    np.fill_diagonal(dist, 0.0)
    return dist


def _csr_block_matrix(
    store: RecordStore, field: str, rids_a: IntArray, rids_b: IntArray
) -> FloatArray:
    """Rectangular CSR-product distance matrix."""
    rids_a = np.asarray(rids_a, dtype=np.int64)
    rids_b = np.asarray(rids_b, dtype=np.int64)
    csr = store.shingle_csr(field)
    inter = np.asarray(
        (csr[rids_a] @ csr[rids_b].T).todense(), dtype=np.float64
    )
    sizes = store.set_sizes(field)
    union = sizes[rids_a][:, None] + sizes[rids_b][None, :] - inter
    return _finish_distances(inter, union)


def _popcount_rows(words: AnyArray) -> IntArray:
    """Per-row popcount sum of an ``(..., n_words)`` uint64 array."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
    # Byte order is irrelevant: popcount sums over all bytes of the row.
    as_bytes = words.view(np.uint8)
    return _POP_LUT[as_bytes].sum(axis=-1, dtype=np.int64)


def _high32(hashed: AnyArray, axis: int) -> AnyArray:
    """``min`` of the high 32 bits of uint64 hashes along ``axis``.

    Equals ``(hashed.min(axis) >> 32).astype(uint32)`` — right-shift is
    monotone, so the minimum commutes with truncation — but on
    little-endian hosts the uint32 view reads half the bytes.
    """
    if sys.byteorder == "little":
        high = hashed.view(np.uint32)[..., 1::2]
        return np.ascontiguousarray(high.min(axis=axis))
    return (hashed.min(axis=axis) >> np.uint64(32)).astype(np.uint32)


def _chunk_table(vocab: AnyArray, a: AnyArray) -> AnyArray:
    """``(vocab, len(a))`` uint32 table of high multiply-hash halves.

    Built per call and dropped afterwards: the signature loop is
    chunk-outer, so each table is built once per call anyway, and
    building one costs far less than the memory a cache of them held.
    """
    with np.errstate(over="ignore"):
        full = vocab[:, None] * a[None, :]
    return (full >> np.uint64(32)).astype(np.uint32)


def _merge_counts(
    target: IntArray, flat: IntArray, lengths: IntArray
) -> FloatArray:
    """Per-row counts of ``target`` hits in concatenated sorted rows.

    One binary-search pass over the concatenation, then a
    cumulative-sum split back into per-row totals.  Exact integers.
    """
    slots = np.searchsorted(target, flat)
    hits = target[np.minimum(slots, target.size - 1)] == flat
    csum = np.concatenate([[0], np.cumsum(hits)])
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    return (csum[offsets + lengths] - csum[offsets]).astype(np.float64)


class KernelBackend:
    """The kernel entry points, evaluated over a
    :class:`~repro.kernels.packed.PackedField`.

    Stateless; every caller goes through the :data:`KERNELS` instance,
    so the five methods below are the single place signature and
    Jaccard work happens (``perfbench/tracer.py`` attributes their time
    to the ``kernels.*`` layers by this class name).
    """

    # ------------------------------------------------------------------
    # hot kernel 1: minhash signature blocks
    # ------------------------------------------------------------------
    def minhash_block(
        self,
        packed: PackedField,
        rids: IntArray,
        multipliers: AnyArray,
        start: int,
        stop: int,
        bits: int | None,
    ) -> AnyArray:
        """Signature columns ``[start, stop)`` for ``rids``.

        Returns a ``(len(rids), stop - start)`` uint32 array holding,
        per record and multiplier, the high 32 bits of the minimum
        multiply-hash over the record's scrambled shingle ids (empty
        sets hash the scrambled ``EMPTY_SENTINEL``), masked to the low
        ``bits`` bits when b-bit minhashing is enabled.
        """
        rids = np.asarray(rids, dtype=np.int64)
        m = int(rids.size)
        out = np.empty((m, stop - start), dtype=np.uint32)
        if m == 0:
            return out
        vocab = packed.vocab
        codes_mh, offsets_mh, sizes_mh = packed.minhash_rows()
        sizes = sizes_mh[rids]
        starts_all = offsets_mh[rids]
        order = np.argsort(sizes, kind="stable")
        use_tables = vocab.size <= min(_TABLE_VOCAB_LIMIT, int(sizes.sum()))
        # Batch preparation is hoisted out of the hash-chunk loop so that
        # loop can run outermost: each per-chunk table is then built
        # exactly once per call.
        preps: list[tuple[IntArray, int, AnyArray, list[IntArray]]] = []
        for b_lo in range(0, m, _BATCH):
            batch = order[b_lo : b_lo + _BATCH]
            bsizes = sizes[batch]
            starts = starts_all[batch]
            # Cap the padded width at the batch's 95th-percentile set
            # size: one huge set hashes row-by-row instead of re-padding
            # the whole batch (padding repeats a member, so mins are
            # unchanged either way).
            cut = max(1, -(-batch.size * 95 // 100))  # ceil(0.95 * m)
            width = int(bsizes[cut - 1])
            head = int(np.searchsorted(bsizes, width, side="right"))
            span = np.minimum(
                np.arange(width, dtype=np.int64), bsizes[:head, None] - 1
            )
            codes = codes_mh[starts[:head, None] + span]  # (head, width)
            tail = [
                codes_mh[int(starts[i]) : int(starts[i]) + int(bsizes[i])]
                for i in range(head, batch.size)
            ]
            if use_tables:
                # (width, head): contiguous per-multiplier rows for the
                # gather-and-fold loop below.
                body = np.ascontiguousarray(codes.T)
            else:
                body = vocab[codes]  # (head, width) uint64 values
            preps.append((batch, head, body, tail))
        for lo in range(start, stop, _CHUNK):
            hi = min(lo + _CHUNK, stop)
            a = multipliers[lo:hi]
            table = _chunk_table(vocab, a) if use_tables else None
            for batch, head, body, tail in preps:
                vals = np.empty((batch.size, hi - lo), dtype=np.uint32)
                if table is not None:
                    mins = table[body[0]]  # fancy index: a fresh copy
                    for k in range(1, body.shape[0]):
                        np.minimum(mins, table[body[k]], out=mins)
                    vals[:head] = mins
                    for pos, tcodes in enumerate(tail):
                        vals[head + pos] = table[tcodes].min(axis=0)
                else:
                    with np.errstate(over="ignore"):
                        hashed = body[:, :, None] * a[None, None, :]
                        vals[:head] = _high32(hashed, axis=1)
                        for pos, tcodes in enumerate(tail):
                            row = vocab[tcodes][:, None] * a[None, :]
                            vals[head + pos] = _high32(row, axis=0)
                if bits is not None:
                    vals &= np.uint32((1 << bits) - 1)
                out[batch, lo - start : hi - start] = vals
        return out

    # ------------------------------------------------------------------
    # hot kernel 2: pair-list Jaccard verification
    # ------------------------------------------------------------------
    def jaccard_block(
        self, packed: PackedField, rids_a: IntArray, rids_b: IntArray
    ) -> FloatArray:
        """Jaccard distances for the pair list ``zip(rids_a, rids_b)``."""
        rids_a = np.asarray(rids_a, dtype=np.int64)
        rids_b = np.asarray(rids_b, dtype=np.int64)
        inter = _pair_intersections(packed, rids_a, rids_b)
        sizes = packed.sizes
        union = sizes[rids_a] + sizes[rids_b] - inter
        return _finish_distances(inter, union)

    # ------------------------------------------------------------------
    # matrix / one-to-many shapes used by ``JaccardDistance``
    # ------------------------------------------------------------------
    def jaccard_pairwise(
        self, packed: PackedField, rids: IntArray, chunk: int = 256
    ) -> FloatArray:
        """Full ``(m, m)`` distance matrix with a zero diagonal.

        ``chunk`` bounds the row-block height of intermediate products;
        it affects peak memory only, never the float results.
        """
        rids = np.asarray(rids, dtype=np.int64)
        m = int(rids.size)
        if m * m <= _MATRIX_POPCOUNT_CELLS and packed.bitset is not None:
            rows = packed.bitset[rids]
            inter = np.empty((m, m), dtype=np.float64)
            for i in range(m):
                inter[i] = _popcount_rows(rows[i] & rows)
            sizes = packed.sizes[rids].astype(np.float64)
            union = sizes[:, None] + sizes[None, :] - inter
            dist = _finish_distances(inter, union)
            np.fill_diagonal(dist, 0.0)
            return dist
        return _csr_pairwise(packed.store, packed.field, rids, chunk)

    def jaccard_one_to_many(
        self, packed: PackedField, rid: int, rids: IntArray
    ) -> FloatArray:
        """Distances from ``rid`` to each record in ``rids``."""
        rids = np.asarray(rids, dtype=np.int64)
        if rids.size == 0:
            return np.zeros(0, dtype=np.float64)
        sizes = packed.sizes
        bitset = packed.bitset
        if bitset is not None:
            inter = _popcount_rows(bitset[rids] & bitset[int(rid)]).astype(
                np.float64
            )
        else:
            column = packed.store.shingle_sets(packed.field)
            target = column[int(rid)]
            lengths = sizes[rids]
            if target.size and int(lengths.sum()):
                flat = column.take(rids).flat
                inter = _merge_counts(target, flat, lengths)
            else:
                inter = np.zeros(rids.size, dtype=np.float64)
        union = sizes[rids] + sizes[int(rid)] - inter
        return _finish_distances(inter, union)

    def jaccard_block_matrix(
        self, packed: PackedField, rids_a: IntArray, rids_b: IntArray
    ) -> FloatArray:
        """Rectangular ``(len(rids_a), len(rids_b))`` distance matrix."""
        rids_a = np.asarray(rids_a, dtype=np.int64)
        rids_b = np.asarray(rids_b, dtype=np.int64)
        cells = int(rids_a.size) * int(rids_b.size)
        if cells <= _MATRIX_POPCOUNT_CELLS and packed.bitset is not None:
            rows_a = packed.bitset[rids_a]
            rows_b = packed.bitset[rids_b]
            inter = np.empty((rids_a.size, rids_b.size), dtype=np.float64)
            for i in range(int(rids_a.size)):
                inter[i] = _popcount_rows(rows_a[i] & rows_b)
            sizes = packed.sizes
            union = (
                sizes[rids_a][:, None] + sizes[rids_b][None, :] - inter
            )
            return _finish_distances(inter, union)
        return _csr_block_matrix(packed.store, packed.field, rids_a, rids_b)


def _pair_intersections(
    packed: PackedField, rids_a: IntArray, rids_b: IntArray
) -> FloatArray:
    """Exact ``|A ∩ B|`` per pair, as float64."""
    n_pairs = int(rids_a.size)
    inter = np.empty(n_pairs, dtype=np.float64)
    bitset = packed.bitset
    if bitset is not None:
        for lo in range(0, n_pairs, _PAIR_CHUNK):
            hi = min(lo + _PAIR_CHUNK, n_pairs)
            anded = bitset[rids_a[lo:hi]] & bitset[rids_b[lo:hi]]
            inter[lo:hi] = _popcount_rows(anded)
        return inter
    # Sorted ids: group the pair list by its left record and run one
    # vectorized searchsorted merge per group — the flat concatenation
    # of each group's right rows comes from the column's batched
    # gather, so no per-row Python assembly.
    column = packed.store.shingle_sets(packed.field)
    sizes = packed.sizes
    order = np.argsort(rids_a, kind="stable")
    sorted_a = rids_a[order]
    uniq, group_starts = np.unique(sorted_a, return_index=True)
    bounds = np.concatenate([group_starts, [n_pairs]])
    for g in range(uniq.size):
        idx = order[bounds[g] : bounds[g + 1]]
        target = column[int(uniq[g])]
        group_b = rids_b[idx]
        lengths = sizes[group_b]
        if target.size == 0 or not int(lengths.sum()):
            inter[idx] = 0.0
            continue
        flat = column.take(group_b).flat
        inter[idx] = _merge_counts(target, flat, lengths)
    return inter


#: The instance every caller evaluates kernels through.
KERNELS = KernelBackend()
