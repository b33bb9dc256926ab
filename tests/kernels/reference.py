"""The pure-NumPy reference kernels: the bit-identity oracle.

These are the simple implementations the production kernels in
:mod:`repro.kernels` replaced (padded multiply-hash batches,
``intersect1d`` pair loops, CSR products); every production kernel must
reproduce their outputs bit for bit.  They share the production
semantics helpers (splitmix64 scrambling, ``EMPTY_SENTINEL``, the float
epilogue, the CSR products) and read only the raw store through the
``packed`` argument's ``store``/``field``, never its packed layout, so
they check the layout as well as the kernels.

:func:`use_reference_kernels` swaps them in for the production
:class:`~repro.kernels.KernelBackend` methods, so a whole run — design,
hashing, ``P``, forked workers, snapshot restore, streaming — can be
replayed on the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import KernelBackend
from repro.kernels.base import (
    _BATCH,
    _CHUNK,
    EMPTY_SENTINEL,
    _csr_block_matrix,
    _csr_pairwise,
    _finish_distances,
    _splitmix64,
    jaccard_distance,
)


def mixed_sets(store, field):
    """Each row's ids scrambled through splitmix64 (the minhash input);
    empty rows scramble the ``EMPTY_SENTINEL`` pseudo-element."""
    return [
        _splitmix64(np.asarray(s, dtype=np.uint64))
        if s.size
        else _splitmix64(np.array([EMPTY_SENTINEL], dtype=np.uint64))
        for s in store.shingle_sets(field)
    ]


def _padded_spans(rows):
    """Rows as one padded ``(head, width)`` array plus the oversized tail.

    Each head row is padded with its own first element — padding with a
    member leaves multiply-hash minima unchanged.  The width is capped
    at the batch's 95th-percentile row size; rows wider than the cap
    are returned separately and hashed row by row.  ``rows`` arrive
    sorted ascending by size, so the tail is a suffix.
    """
    sizes = np.array([r.size for r in rows], dtype=np.int64)
    cut = max(1, -(-len(rows) * 95 // 100))  # ceil(0.95 * m)
    width = int(sizes[cut - 1])
    head_count = int(np.searchsorted(sizes, width, side="right"))
    padded = np.empty((head_count, width), dtype=np.uint64)
    for row, ids in enumerate(rows[:head_count]):
        padded[row, : ids.size] = ids
        padded[row, ids.size :] = ids[0]
    return padded, rows[head_count:]


class ReferenceKernels:
    """Reference implementations of the five kernel entry points, with
    the production signatures."""

    def minhash_block(self, packed, rids, multipliers, start, stop, bits):
        sets = mixed_sets(packed.store, packed.field)
        rids = np.asarray(rids, dtype=np.int64)
        out = np.empty((rids.size, stop - start), dtype=np.uint32)
        # Process records in set-size order so each batch's padded width
        # tracks its largest member instead of the global maximum.
        order = np.argsort([sets[int(r)].size for r in rids], kind="stable")
        for b_lo in range(0, rids.size, _BATCH):
            batch = order[b_lo : b_lo + _BATCH]
            rows = [sets[int(r)] for r in rids[batch]]
            padded, tail = _padded_spans(rows)
            head_count = padded.shape[0]
            mins = np.empty((len(rows), _CHUNK), dtype=np.uint64)
            for lo in range(start, stop, _CHUNK):
                hi = min(lo + _CHUNK, stop)
                a = multipliers[lo:hi]
                with np.errstate(over="ignore"):
                    hashed = padded[:, :, None] * a[None, None, :]
                    mins[:head_count, : hi - lo] = hashed.min(axis=1)
                    for pos, ids in enumerate(tail):
                        mins[head_count + pos, : hi - lo] = (
                            ids[:, None] * a[None, :]
                        ).min(axis=0)
                values = (mins[:, : hi - lo] >> np.uint64(32)).astype(np.uint32)
                if bits is not None:
                    values &= np.uint32((1 << bits) - 1)
                out[batch, lo - start : hi - start] = values
        return out

    def jaccard_block(self, packed, rids_a, rids_b):
        sets = packed.store.shingle_sets(packed.field)
        out = np.empty(len(rids_a), dtype=np.float64)
        for i in range(len(rids_a)):
            out[i] = jaccard_distance(sets[int(rids_a[i])], sets[int(rids_b[i])])
        return out

    def jaccard_pairwise(self, packed, rids, chunk=256):
        return _csr_pairwise(packed.store, packed.field, rids, chunk)

    def jaccard_one_to_many(self, packed, rid, rids):
        rids = np.asarray(rids, dtype=np.int64)
        sets = packed.store.shingle_sets(packed.field)
        target = sets[int(rid)]
        sizes = packed.store.set_sizes(packed.field)
        lengths = sizes[rids]
        if rids.size == 0:
            return np.zeros(0, dtype=np.float64)
        if target.size and int(lengths.sum()):
            flat = np.concatenate([sets[int(r)] for r in rids.tolist()])
            slots = np.searchsorted(target, flat)
            hits = target[np.minimum(slots, target.size - 1)] == flat
            csum = np.concatenate([[0], np.cumsum(hits)])
            offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
            inter = (csum[offsets + lengths] - csum[offsets]).astype(np.float64)
        else:
            inter = np.zeros(rids.size, dtype=np.float64)
        union = lengths + sizes[int(rid)] - inter
        return _finish_distances(inter, union)

    def jaccard_block_matrix(self, packed, rids_a, rids_b):
        return _csr_block_matrix(packed.store, packed.field, rids_a, rids_b)


#: The kernel entry points :func:`use_reference_kernels` replaces.
ENTRY_POINTS = (
    "minhash_block",
    "jaccard_block",
    "jaccard_pairwise",
    "jaccard_one_to_many",
    "jaccard_block_matrix",
)


def use_reference_kernels(monkeypatch):
    """Route every production kernel call to :class:`ReferenceKernels`
    for the rest of the test.  Fork-started workers inherit the patch."""
    for name in ENTRY_POINTS:
        monkeypatch.setattr(KernelBackend, name, getattr(ReferenceKernels, name))
