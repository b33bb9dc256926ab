"""Random-hyperplane family for cosine distance (paper Example 2,
Appendix A, Example 6).

Hash function ``j`` is a random hyperplane through the origin; the hash
value is which side of the plane the record's vector falls on.  For two
vectors at normalized angle ``x = theta/180`` the single-function
collision probability is exactly ``p(x) = 1 - x``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import SnapshotError
from ..records import RecordStore
from ..rngutil import SeedLike, make_rng, rng_from_state, rng_state
from ..types import AnyArray, FloatArray, IntArray
from .families import HashFamily


class RandomHyperplaneFamily(HashFamily):
    """Sign-of-projection hashes over one dense vector field."""

    dtype = np.dtype(np.uint8)

    def __init__(self, store: RecordStore, field: str, seed: SeedLike = None) -> None:
        super().__init__(store, field)
        self._rng = make_rng(seed)
        dim = store.vectors(field).shape[1]
        self._planes: FloatArray = np.zeros((dim, 0), dtype=np.float64)

    @property
    def dim(self) -> int:
        return int(self._planes.shape[0])

    def _ensure_planes(self, count: int) -> None:
        have = self._planes.shape[1]
        if count <= have:
            return
        # Drawn as (extra, dim) and transposed: NumPy fills row-major,
        # so hyperplane j is the same no matter how requests were
        # chunked — the columnar-determinism contract of HashFamily.
        extra = self._rng.standard_normal((count - have, self.dim)).T
        self._planes = np.hstack([self._planes, extra])

    def compute(self, rids: IntArray, start: int, stop: int) -> AnyArray:
        self._ensure_planes(stop)
        vectors = self.store.vectors(self.field)[np.asarray(rids, dtype=np.int64)]
        projections = vectors @ self._planes[:, start:stop]
        return (projections >= 0.0).astype(np.uint8)

    def export_state(self) -> dict[str, Any]:
        return {
            "kind": "hyperplane",
            "field": self.field,
            "rng": rng_state(self._rng),
            "planes": self._planes.copy(),
        }

    def import_state(self, state: dict[str, Any]) -> None:
        if state.get("kind") != "hyperplane" or state.get("field") != self.field:
            raise SnapshotError(
                f"snapshot state {state.get('kind')!r}[{state.get('field')!r}] "
                f"does not match family hyperplane[{self.field!r}]"
            )
        planes = np.asarray(state["planes"], dtype=np.float64)
        if planes.shape[0] != self.dim:
            raise SnapshotError(
                f"snapshot hyperplanes have dim {planes.shape[0]} but the "
                f"store field {self.field!r} has dim {self.dim}"
            )
        self._planes = planes
        self._rng = rng_from_state(state["rng"])
