"""Minhash family for Jaccard distance (Broder et al., paper §8).

Hash function ``j`` ranks shingle ids by the multiply hash
``h_j(s) = (a_j * s) mod 2^64`` with an odd multiplier ``a_j`` — an
exact bijection (permutation) of the 64-bit id space — and keeps the
record's minimum.  Two sets then agree on one minhash with probability
(very close to) their Jaccard similarity, i.e. ``p(x) = 1 - x`` on the
normalized Jaccard distance.  Multiply hashing is not perfectly
min-wise independent, but it is the standard engineering choice: one
vector multiply per hash keeps the family an order of magnitude faster
than modular universal hashing, and the empirical collision curve
matches ``1 - x`` to within sampling noise (see
``tests/lsh/test_minhash.py``).

Stored signature values are the high 32 bits of the winning hash —
equality of full hashes is equality of ids (bijection), and the
32-bit truncation adds only a ``2^-32`` false-collision rate.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import ConfigurationError, SnapshotError
from ..kernels import KERNELS, packed_field
from ..kernels.base import EMPTY_SENTINEL, _splitmix64
from ..records import RecordStore
from ..rngutil import SeedLike, make_rng, rng_from_state, rng_state
from ..types import AnyArray, ArrayLike, FloatArray, IntArray
from .families import HashFamily

__all__ = ["EMPTY_SENTINEL", "MinHashFamily", "_splitmix64"]


class MinHashFamily(HashFamily):
    """Minwise hashing over one shingle-set field.

    ``bits`` enables *b-bit minhashing* (Li & König, the paper's [22]):
    only the lowest ``bits`` bits of each minhash are stored, shrinking
    signatures at the price of random collisions — the collision
    probability becomes ``(1 - x) + x * 2^-bits`` and the scheme
    designer accounts for it automatically through
    :meth:`collision_prob`.

    Signatures come from :meth:`repro.kernels.KernelBackend.minhash_block`
    over the field's packed layout, which the first :meth:`compute`
    builds (construction packs nothing) and the store caches for every
    family and distance over the same field.
    """

    dtype = np.dtype(np.uint32)

    def __init__(
        self,
        store: RecordStore,
        field: str,
        seed: SeedLike = None,
        bits: int | None = None,
    ) -> None:
        super().__init__(store, field)
        if bits is not None and not 1 <= int(bits) <= 32:
            raise ConfigurationError(f"bits must be in [1, 32], got {bits}")
        self.bits = int(bits) if bits is not None else None
        self._rng = make_rng(seed)
        self._a: AnyArray = np.zeros(0, dtype=np.uint64)

    def _ensure_params(self, count: int) -> None:
        have = self._a.size
        if count <= have:
            return
        extra = count - have
        # Odd multipliers are bijections of the uint64 ring.
        a = self._rng.integers(0, 1 << 63, size=extra, dtype=np.uint64) * 2 + 1
        self._a = np.concatenate([self._a, a])

    def compute(self, rids: IntArray, start: int, stop: int) -> AnyArray:
        self._ensure_params(stop)
        return KERNELS.minhash_block(
            packed_field(self.store, self.field),
            rids,
            self._a,
            start,
            stop,
            self.bits,
        )

    def export_state(self) -> dict[str, Any]:
        return {
            "kind": "minhash",
            "field": self.field,
            "bits": self.bits,
            "rng": rng_state(self._rng),
            "a": self._a.copy(),
        }

    def import_state(self, state: dict[str, Any]) -> None:
        if state.get("kind") != "minhash" or state.get("field") != self.field:
            raise SnapshotError(
                f"snapshot state {state.get('kind')!r}[{state.get('field')!r}] "
                f"does not match family minhash[{self.field!r}]"
            )
        if state.get("bits") != self.bits:
            raise SnapshotError(
                f"snapshot b-bit width {state.get('bits')!r} does not match "
                f"family bits {self.bits!r}"
            )
        self._a = np.asarray(state["a"], dtype=np.uint64)
        self._rng = rng_from_state(state["rng"])

    @property
    def label(self) -> str:
        if self.bits is None:
            return f"minhash[{self.field}]"
        return f"minhash{self.bits}bit[{self.field}]"

    def collision_prob(self, x: ArrayLike) -> FloatArray:
        arr = np.asarray(x, dtype=np.float64)
        base = np.clip(1.0 - arr, 0.0, 1.0)
        if self.bits is None:
            return base
        # b-bit minhash: a true minhash collision, or a random low-bit
        # collision of two different minima.
        return base + (1.0 - base) * 2.0**-self.bits
