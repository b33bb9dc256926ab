"""Normalized Euclidean distance with the p-stable projection family.

An extension beyond the paper's two metrics (the LSH literature the
paper builds on — Indyk & Motwani; Datar et al.'s p-stable schemes —
covers Euclidean data, and image/embedding workloads often use it).

Distances are normalized by a caller-supplied ``scale`` (distances at
or beyond ``scale`` clamp to 1), so thresholds live in ``[0, 1]`` like
every other :class:`FieldDistance`.  The matching family hashes
``h(v) = floor((a . v + b) / r)`` with Gaussian ``a`` and uniform
``b``; its collision probability at normalized distance ``x`` is the
standard p-stable curve

    p(x) = 1 - 2 Phi(-1/c) - (2 c / sqrt(2 pi)) (1 - exp(-1 / (2 c^2)))

with ``c = x * scale / r`` — monotonically decreasing with ``p(0)=1``,
exactly what the scheme-design programs need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.stats import norm

from ..errors import ConfigurationError
from ..records import FieldKind, RecordStore
from ..rngutil import SeedLike
from ..types import ArrayLike, FloatArray
from .base import FieldDistance

if TYPE_CHECKING:
    from ..lsh.pstable import PStableFamily


def pstable_collision_prob(c: ArrayLike) -> FloatArray:
    """Collision probability of one p-stable hash at ratio ``c = d/r``."""
    c = np.asarray(c, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = np.where(c > 0.0, 1.0 / np.maximum(c, 1e-300), np.inf)
        term1 = 2.0 * norm.cdf(-inv)
        term2 = (
            2.0 * c / np.sqrt(2.0 * np.pi) * (1.0 - np.exp(-0.5 * inv**2))
        )
        prob = 1.0 - term1 - term2
    return np.clip(np.where(c <= 0.0, 1.0, prob), 0.0, 1.0)


class EuclideanDistance(FieldDistance):
    """Euclidean distance over a vector field, normalized by ``scale``.

    ``bucket_width`` is the p-stable quantization width ``r`` in
    *normalized* units (default 0.5: records at half the scale apart
    land in the same bucket with probability ~0.5).
    """

    def __init__(
        self, field: str = "vec", scale: float = 1.0, bucket_width: float = 0.5
    ) -> None:
        if scale <= 0.0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        if bucket_width <= 0.0:
            raise ConfigurationError(
                f"bucket_width must be positive, got {bucket_width}"
            )
        self.field = field
        self.scale = float(scale)
        self.bucket_width = float(bucket_width)

    @property
    def kind(self) -> FieldKind:
        return FieldKind.VECTOR

    # ------------------------------------------------------------------
    def distance(self, store: RecordStore, r1: int, r2: int) -> float:
        return float(self.pairs(store, [r1], [r2])[0])

    def pairs(
        self, store: RecordStore, rids_a: ArrayLike, rids_b: ArrayLike
    ) -> FloatArray:
        mat = store.vectors(self.field)
        diff = mat[np.asarray(rids_a, dtype=np.int64)] - mat[
            np.asarray(rids_b, dtype=np.int64)
        ]
        return np.minimum(np.linalg.norm(diff, axis=1) / self.scale, 1.0)

    def pairwise(self, store: RecordStore, rids: ArrayLike) -> FloatArray:
        rids = np.asarray(rids, dtype=np.int64)
        mat = store.vectors(self.field)[rids]
        sq = np.sum(mat**2, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (mat @ mat.T), 0.0)
        dist = np.sqrt(d2) / self.scale
        np.fill_diagonal(dist, 0.0)
        return np.minimum(dist, 1.0)

    def one_to_many(self, store: RecordStore, rid: int, rids: ArrayLike) -> FloatArray:
        rids = np.asarray(rids, dtype=np.int64)
        mat = store.vectors(self.field)
        diff = mat[rids] - mat[rid]
        return np.minimum(np.linalg.norm(diff, axis=1) / self.scale, 1.0)

    def block(
        self, store: RecordStore, rids_a: ArrayLike, rids_b: ArrayLike
    ) -> FloatArray:
        rids_a = np.asarray(rids_a, dtype=np.int64)
        rids_b = np.asarray(rids_b, dtype=np.int64)
        mat = store.vectors(self.field)
        a, b = mat[rids_a], mat[rids_b]
        d2 = np.maximum(
            np.sum(a**2, axis=1)[:, None]
            + np.sum(b**2, axis=1)[None, :]
            - 2.0 * (a @ b.T),
            0.0,
        )
        return np.minimum(np.sqrt(d2) / self.scale, 1.0)

    # ------------------------------------------------------------------
    def collision_prob(self, x: ArrayLike) -> FloatArray:
        arr = np.asarray(x, dtype=np.float64)
        return pstable_collision_prob(arr / self.bucket_width)

    def make_family(self, store: RecordStore, seed: SeedLike) -> PStableFamily:
        from ..lsh.pstable import PStableFamily

        return PStableFamily(
            store,
            self.field,
            bucket_width=self.bucket_width * self.scale,
            seed=seed,
        )

    def __repr__(self) -> str:
        return (
            f"EuclideanDistance(field={self.field!r}, scale={self.scale}, "
            f"bucket_width={self.bucket_width})"
        )
