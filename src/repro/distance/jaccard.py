"""Jaccard distance for shingle-set fields.

``d(A, B) = 1 - |A ∩ B| / |A ∪ B|``, which the minhash family collides
on with probability exactly ``p(x) = 1 - x`` (the Jaccard similarity).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..kernels import KERNELS, jaccard_distance, packed_field
from ..records import FieldKind, RecordStore
from ..rngutil import SeedLike
from ..types import ArrayLike, FloatArray
from .base import FieldDistance

if TYPE_CHECKING:
    from ..lsh.minhash import MinHashFamily

__all__ = ["JaccardDistance", "jaccard_distance"]


class JaccardDistance(FieldDistance):
    """Jaccard distance over one shingle-set field.

    ``minhash_bits`` opts into b-bit minhashing (Li & König, the
    paper's [22]): signatures keep only the low ``minhash_bits`` bits
    per hash, so the collision curve flattens to
    ``(1 - x) + x * 2^-bits`` — the scheme designer compensates with
    more hashes per table automatically.
    """

    def __init__(self, field: str = "shingles", minhash_bits: int | None = None) -> None:
        self.field = field
        self.minhash_bits = minhash_bits

    @property
    def kind(self) -> FieldKind:
        return FieldKind.SHINGLES

    def distance(self, store: RecordStore, r1: int, r2: int) -> float:
        sets = store.shingle_sets(self.field)
        return jaccard_distance(sets[r1], sets[r2])

    #: Row-chunk height for ``pairwise``: bounds every intermediate of
    #: the kernel's matrix product to O(chunk · m) while the output is
    #: written in place.  Intersection counts are exact integers, so
    #: the chunked floats equal the one-shot ones bit for bit.
    _PAIRWISE_CHUNK = 256

    def pairwise(self, store: RecordStore, rids: ArrayLike) -> FloatArray:
        return KERNELS.jaccard_pairwise(
            packed_field(store, self.field),
            np.asarray(rids, dtype=np.int64),
            self._PAIRWISE_CHUNK,
        )

    def one_to_many(self, store: RecordStore, rid: int, rids: ArrayLike) -> FloatArray:
        return KERNELS.jaccard_one_to_many(
            packed_field(store, self.field),
            int(rid),
            np.asarray(rids, dtype=np.int64),
        )

    def pairs(
        self, store: RecordStore, rids_a: ArrayLike, rids_b: ArrayLike
    ) -> FloatArray:
        return KERNELS.jaccard_block(
            packed_field(store, self.field),
            np.asarray(rids_a, dtype=np.int64),
            np.asarray(rids_b, dtype=np.int64),
        )

    def block(
        self, store: RecordStore, rids_a: ArrayLike, rids_b: ArrayLike
    ) -> FloatArray:
        return KERNELS.jaccard_block_matrix(
            packed_field(store, self.field),
            np.asarray(rids_a, dtype=np.int64),
            np.asarray(rids_b, dtype=np.int64),
        )

    def collision_prob(self, x: ArrayLike) -> FloatArray:
        arr = np.asarray(x, dtype=np.float64)
        base = np.clip(1.0 - arr, 0.0, 1.0)
        if self.minhash_bits is None:
            return base
        return base + (1.0 - base) * 2.0**-self.minhash_bits

    def make_family(self, store: RecordStore, seed: SeedLike) -> MinHashFamily:
        from ..lsh.minhash import MinHashFamily

        return MinHashFamily(store, self.field, seed=seed, bits=self.minhash_bits)

    def __repr__(self) -> str:
        if self.minhash_bits is not None:
            return (
                f"JaccardDistance(field={self.field!r}, "
                f"minhash_bits={self.minhash_bits})"
            )
        return f"JaccardDistance(field={self.field!r})"
