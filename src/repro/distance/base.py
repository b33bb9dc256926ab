"""Base interface for per-field distance metrics.

A :class:`FieldDistance` knows three things about one record field:

1. how to compute the *normalized* distance (in ``[0, 1]``) between two
   records, both one pair at a time and as a full pairwise matrix;
2. the collision-probability curve ``p(x)`` of the matching LSH family
   (the probability that one random hash function agrees on two records
   at distance ``x`` — paper §5.1);
3. which hash family implements that curve (used by the scheme
   designer to build transitive hashing functions).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from ..records import FieldKind, RecordStore
from ..rngutil import SeedLike
from ..types import ArrayLike, FloatArray

if TYPE_CHECKING:
    from ..lsh.families import HashFamily


class FieldDistance(abc.ABC):
    """A normalized distance metric over one record field."""

    #: Name of the record field this metric reads.
    field: str

    @property
    @abc.abstractmethod
    def kind(self) -> FieldKind:
        """The physical field kind this metric applies to."""

    @abc.abstractmethod
    def distance(self, store: RecordStore, r1: int, r2: int) -> float:
        """Normalized distance in ``[0, 1]`` between records ``r1``, ``r2``."""

    @abc.abstractmethod
    def pairwise(self, store: RecordStore, rids: ArrayLike) -> FloatArray:
        """Symmetric ``(m, m)`` matrix of distances among ``rids``."""

    @abc.abstractmethod
    def one_to_many(
        self, store: RecordStore, rid: int, rids: ArrayLike
    ) -> FloatArray:
        """Distances from record ``rid`` to each record in ``rids``."""

    @abc.abstractmethod
    def block(
        self, store: RecordStore, rids_a: ArrayLike, rids_b: ArrayLike
    ) -> FloatArray:
        """``(len(rids_a), len(rids_b))`` matrix of cross distances."""

    def pairs(
        self, store: RecordStore, rids_a: ArrayLike, rids_b: ArrayLike
    ) -> FloatArray:
        """Distances for the pair list ``zip(rids_a, rids_b)``.

        The default evaluates :meth:`distance` per pair; the in-repo
        metrics override it with a vectorized kernel and define
        :meth:`distance` as its one-pair case.  Either way each element
        equals the scalar :meth:`distance` bit for bit, so rules built
        on this surface decide exactly as their per-pair forms.
        """
        rids_a = np.asarray(rids_a, dtype=np.int64)
        rids_b = np.asarray(rids_b, dtype=np.int64)
        out = np.empty(rids_a.size, dtype=np.float64)
        for i in range(int(rids_a.size)):
            out[i] = self.distance(store, int(rids_a[i]), int(rids_b[i]))
        return out

    def collision_prob(self, x: ArrayLike) -> FloatArray:
        """``p(x)``: probability one hash function collides at distance ``x``.

        Both families used in the paper (random hyperplanes for cosine,
        minhash for Jaccard) have the linear curve ``p(x) = 1 - x`` on
        the normalized distance; subclasses may override.
        """
        arr = np.asarray(x, dtype=np.float64)
        return np.clip(1.0 - arr, 0.0, 1.0)

    @abc.abstractmethod
    def make_family(self, store: RecordStore, seed: SeedLike) -> HashFamily:
        """Instantiate the LSH :class:`~repro.lsh.families.HashFamily`."""

    def validate(self, store: RecordStore) -> None:
        """Raise :class:`~repro.errors.SchemaError` if the field is absent
        or of the wrong kind."""
        actual = store.schema.kind_of(self.field)
        if actual is not self.kind:
            from ..errors import SchemaError

            raise SchemaError(
                f"distance over field {self.field!r} expects kind "
                f"{self.kind.value}, store has {actual.value}"
            )
