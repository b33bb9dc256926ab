"""Cosine (normalized-angle) distance for dense vector fields.

The paper measures cosine distance as the angle between two vectors and
normalizes it by 180 degrees (Example 5), so the distance of two
records at angle ``theta`` is ``x = theta / 180`` and the random
hyperplane family collides with probability ``p(x) = 1 - x``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..records import FieldKind, RecordStore
from ..rngutil import SeedLike
from ..types import ArrayLike, FloatArray
from .base import FieldDistance

if TYPE_CHECKING:
    from ..lsh.hyperplanes import RandomHyperplaneFamily

#: Angles are normalized by a straight angle (paper Example 5).
DEGREES_FULL = 180.0


def degrees_to_normalized(theta_degrees: float) -> float:
    """Convert an angle threshold in degrees to normalized distance."""
    return float(theta_degrees) / DEGREES_FULL


def normalized_to_degrees(x: float) -> float:
    """Convert a normalized distance back to degrees."""
    return float(x) * DEGREES_FULL


class CosineDistance(FieldDistance):
    """Normalized-angle distance over one dense vector field."""

    def __init__(self, field: str = "vec") -> None:
        self.field = field

    @property
    def kind(self) -> FieldKind:
        return FieldKind.VECTOR

    # ------------------------------------------------------------------
    def _unit_rows(self, mat: FloatArray) -> FloatArray:
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        # Zero vectors are kept as-is; their angle to anything is 90deg
        # by the arccos(0) convention below.
        norms[norms == 0.0] = 1.0
        return mat / norms

    def distance(self, store: RecordStore, r1: int, r2: int) -> float:
        return float(self.pairs(store, [r1], [r2])[0])

    def pairs(
        self, store: RecordStore, rids_a: ArrayLike, rids_b: ArrayLike
    ) -> FloatArray:
        mat = store.vectors(self.field)
        ua = self._unit_rows(mat[np.asarray(rids_a, dtype=np.int64)])
        ub = self._unit_rows(mat[np.asarray(rids_b, dtype=np.int64)])
        cos = np.clip(np.einsum("ij,ij->i", ua, ub), -1.0, 1.0)
        return np.arccos(cos) / np.pi

    def pairwise(self, store: RecordStore, rids: ArrayLike) -> FloatArray:
        rids = np.asarray(rids, dtype=np.int64)
        u = self._unit_rows(store.vectors(self.field)[rids])
        cos = np.clip(u @ u.T, -1.0, 1.0)
        dist = np.arccos(cos) / np.pi
        np.fill_diagonal(dist, 0.0)
        return dist

    def one_to_many(self, store: RecordStore, rid: int, rids: ArrayLike) -> FloatArray:
        rids = np.asarray(rids, dtype=np.int64)
        mat = store.vectors(self.field)
        u = self._unit_rows(mat[rids])
        v = self._unit_rows(mat[[rid]])[0]
        cos = np.clip(u @ v, -1.0, 1.0)
        return np.arccos(cos) / np.pi

    def block(
        self, store: RecordStore, rids_a: ArrayLike, rids_b: ArrayLike
    ) -> FloatArray:
        mat = store.vectors(self.field)
        ua = self._unit_rows(mat[np.asarray(rids_a, dtype=np.int64)])
        ub = self._unit_rows(mat[np.asarray(rids_b, dtype=np.int64)])
        cos = np.clip(ua @ ub.T, -1.0, 1.0)
        return np.arccos(cos) / np.pi

    def make_family(self, store: RecordStore, seed: SeedLike) -> RandomHyperplaneFamily:
        from ..lsh.hyperplanes import RandomHyperplaneFamily

        return RandomHyperplaneFamily(store, self.field, seed=seed)

    def __repr__(self) -> str:
        return f"CosineDistance(field={self.field!r})"
