"""P-stable (Gaussian projection) LSH family for Euclidean distance.

Hash function ``j`` is ``h_j(v) = floor((a_j . v + b_j) / r)`` with
``a_j ~ N(0, I)`` and ``b_j ~ U(0, r)`` (Datar et al.); ``r`` is the
absolute bucket width.  Bucket indices are folded into uint32 for
signature storage (a 2^-32 false-collision rate, same convention as
minhash).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import ConfigurationError, SnapshotError
from ..records import RecordStore
from ..rngutil import SeedLike, make_rng, rng_from_state, rng_state, spawn
from ..types import AnyArray, ArrayLike, FloatArray, IntArray
from .families import HashFamily


class PStableFamily(HashFamily):
    """Quantized Gaussian projections over one dense vector field."""

    dtype = np.dtype(np.uint32)

    def __init__(
        self,
        store: RecordStore,
        field: str,
        bucket_width: float,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(store, field)
        if bucket_width <= 0.0:
            raise ConfigurationError(
                f"bucket_width must be positive, got {bucket_width}"
            )
        self.bucket_width = float(bucket_width)
        # Separate streams for directions and offsets keep column j's
        # parameters independent of how requests were chunked.
        self._dir_rng, self._off_rng = spawn(make_rng(seed), 2)
        dim = store.vectors(field).shape[1]
        self._directions: FloatArray = np.zeros((dim, 0), dtype=np.float64)
        self._offsets: FloatArray = np.zeros(0, dtype=np.float64)

    @property
    def dim(self) -> int:
        return int(self._directions.shape[0])

    def _ensure_params(self, count: int) -> None:
        have = self._directions.shape[1]
        if count <= have:
            return
        extra = count - have
        # (extra, dim) then transpose: prefix-stable draws regardless of
        # how requests are chunked (same convention as hyperplanes).
        directions = self._dir_rng.standard_normal((extra, self.dim)).T
        offsets = self._off_rng.uniform(0.0, self.bucket_width, size=extra)
        self._directions = np.hstack([self._directions, directions])
        self._offsets = np.concatenate([self._offsets, offsets])

    def compute(self, rids: IntArray, start: int, stop: int) -> AnyArray:
        self._ensure_params(stop)
        vectors = self.store.vectors(self.field)[np.asarray(rids, dtype=np.int64)]
        projections = vectors @ self._directions[:, start:stop]
        buckets = np.floor(
            (projections + self._offsets[start:stop]) / self.bucket_width
        ).astype(np.int64)
        return (buckets & 0xFFFFFFFF).astype(np.uint32)

    def export_state(self) -> dict[str, Any]:
        return {
            "kind": "pstable",
            "field": self.field,
            "bucket_width": self.bucket_width,
            "dir_rng": rng_state(self._dir_rng),
            "off_rng": rng_state(self._off_rng),
            "directions": self._directions.copy(),
            "offsets": self._offsets.copy(),
        }

    def import_state(self, state: dict[str, Any]) -> None:
        if state.get("kind") != "pstable" or state.get("field") != self.field:
            raise SnapshotError(
                f"snapshot state {state.get('kind')!r}[{state.get('field')!r}] "
                f"does not match family pstable[{self.field!r}]"
            )
        width = float(state.get("bucket_width", 0.0))
        if not np.isclose(width, self.bucket_width):
            raise SnapshotError(
                f"snapshot bucket_width {width} does not match family "
                f"bucket_width {self.bucket_width}"
            )
        directions = np.asarray(state["directions"], dtype=np.float64)
        if directions.shape[0] != self.dim:
            raise SnapshotError(
                f"snapshot directions have dim {directions.shape[0]} but the "
                f"store field {self.field!r} has dim {self.dim}"
            )
        self._directions = directions
        self._offsets = np.asarray(state["offsets"], dtype=np.float64)
        self._dir_rng = rng_from_state(state["dir_rng"])
        self._off_rng = rng_from_state(state["off_rng"])

    def collision_prob(self, x: ArrayLike) -> FloatArray:
        from ..distance.euclidean import pstable_collision_prob

        # ``x`` arrives in the caller's normalized units; families are
        # always created through EuclideanDistance.make_family, which
        # passes an absolute bucket width matched to the normalization.
        return pstable_collision_prob(np.asarray(x, dtype=np.float64))
