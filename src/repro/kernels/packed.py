"""The bit-packed layout of one shingle field, built on first use.

Each piece is derived the first time a kernel needs it and then kept on
the :class:`PackedField`, which is cached on the store per field
(:func:`packed_field`):

* the field's shingle ids are scrambled through splitmix64 and
  compacted to dense int32 *codes* into a sorted ``vocab`` of distinct
  scrambled ids (splitmix64 is a bijection, so intersections over codes
  equal intersections over raw ids) — needed by both kernels;
* a second CSR layout splices the scrambled ``EMPTY_SENTINEL`` code
  into empty rows — the minhash input convention, built by the first
  signature block;
* for small vocabularies every row additionally becomes a dense uint64
  bitset (``ceil(vocab / 64)`` words) for ``bitwise_and`` + popcount
  intersection counts — built by the first Jaccard shape that reads
  it, so hashing-only paths never allocate it.  Large vocabularies
  stay in sorted-id form and intersect by vectorized merge.

Packed layouts are derived data: worker processes rebuild (or inherit
copy-on-write) the store and re-pack deterministically, so nothing here
is ever pickled or snapshotted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..types import AnyArray, IntArray
from .base import EMPTY_SENTINEL, _splitmix64

if TYPE_CHECKING:
    from ..records import RecordStore

#: Vocabularies up to this size get dense bitset rows; above it the
#: per-row word count would dwarf typical set sizes and merge-based
#: intersection wins.
_BITSET_VOCAB_LIMIT = 4096


class PackedField:
    """Packed representation of one shingle field (see module docs)."""

    __slots__ = ("store", "field", "sizes", "_vocab", "_codes", "_minhash", "_bitset")

    def __init__(self, store: RecordStore, field: str) -> None:
        self.store = store
        self.field = field
        self.sizes: IntArray = np.ascontiguousarray(
            store.shingle_sets(field).sizes()
        )
        self._vocab: AnyArray | None = None
        self._codes: IntArray | None = None
        self._minhash: tuple[IntArray, IntArray, IntArray] | None = None
        self._bitset: AnyArray | None = None

    def _encoded(self) -> tuple[AnyArray, IntArray]:
        """``(vocab, codes)``: the sorted distinct scrambled ids, the
        sentinel's included, and every shingle's code into them,
        row-concatenated, with the sentinel's code appended last."""
        if self._vocab is None or self._codes is None:
            column = self.store.shingle_sets(self.field)
            mixed = _splitmix64(column.flat.astype(np.uint64))
            sentinel = _splitmix64(np.array([EMPTY_SENTINEL], dtype=np.uint64))
            self._vocab, inv = np.unique(
                np.concatenate([mixed, sentinel]), return_inverse=True
            )
            self._codes = inv.astype(np.int32)
        return self._vocab, self._codes

    @property
    def vocab(self) -> AnyArray:
        """Sorted distinct scrambled ids, the sentinel's included."""
        return self._encoded()[0]

    def minhash_rows(self) -> tuple[IntArray, IntArray, IntArray]:
        """``(codes, offsets, sizes)`` of the minhash input rows: every
        record's codes, with the sentinel's code spliced into empty
        rows so two empty sets always share a minimum."""
        if self._minhash is None:
            all_codes = self._encoded()[1]
            codes = all_codes[:-1]
            sizes = self.sizes
            offsets = self.store.shingle_sets(self.field).rebased_offsets()
            empty = sizes == 0
            if empty.any():
                codes = np.insert(codes, offsets[:-1][empty], all_codes[-1])
                sizes = np.where(empty, 1, sizes)
                offsets = np.zeros(sizes.size + 1, dtype=np.int64)
                np.cumsum(sizes, out=offsets[1:])
            self._minhash = (codes, offsets, sizes)
        return self._minhash

    @property
    def bitset(self) -> AnyArray | None:
        """``(n, words)`` uint64 membership rows for small vocabularies,
        built on first read; ``None`` when the vocabulary is too large."""
        if self._bitset is None and self.vocab.size <= _BITSET_VOCAB_LIMIT:
            words = (int(self.vocab.size) + 63) // 64
            bitset = np.zeros((self.sizes.size, words), dtype=np.uint64)
            codes = self._encoded()[1][:-1]
            if codes.size:
                # True rows only — empty rows stay all-zero, so their
                # intersection counts are genuinely zero.
                rows = np.repeat(
                    np.arange(self.sizes.size, dtype=np.int64), self.sizes
                )
                np.bitwise_or.at(
                    bitset,
                    (rows, codes >> 6),
                    np.uint64(1) << (codes & 63).astype(np.uint64),
                )
            self._bitset = bitset
        return self._bitset


def packed_field(store: RecordStore, field: str) -> PackedField:
    """The :class:`PackedField` of ``field``, cached on ``store`` so
    every family and distance over the same field shares one layout."""
    packed = store._packed_cache.get(field)
    if packed is None:
        packed = PackedField(store, field)
        store._packed_cache[field] = packed
    return packed
