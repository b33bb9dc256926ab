"""Hash-family protocol and the incremental signature pool.

Property 4 of the clustering-function sequence (incremental
computation) is implemented here: each record's hash values are cached
in a :class:`SignaturePool`, so a later function in the sequence — one
that needs more hash values for the same family — only pays for the
*new* columns.  The pool also keeps the work counters that the cost
model and the experiment harness read.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import SnapshotError
from ..obs.clock import monotonic
from ..records import RecordStore
from ..types import AnyArray, ArrayLike, FloatArray, IntArray

if TYPE_CHECKING:
    from ..obs.observer import RunObserver
    from ..parallel.pool import ExecutionPool


class HashFamily(abc.ABC):
    """A locality-sensitive family producing integer hash values.

    Implementations must be *columnar*: hash function ``j`` is the
    ``j``-th column of the family's (conceptually infinite) function
    pool, so signatures extend deterministically as more columns are
    requested.
    """

    #: NumPy dtype of produced hash values.
    dtype: np.dtype[Any]

    def __init__(self, store: RecordStore, field: str) -> None:
        self.store = store
        self.field = field

    @abc.abstractmethod
    def compute(self, rids: IntArray, start: int, stop: int) -> AnyArray:
        """Hash values of functions ``[start, stop)`` for ``rids``.

        Returns an array of shape ``(len(rids), stop - start)``.
        """

    def collision_prob(self, x: ArrayLike) -> FloatArray:
        """``p(x)`` for this family; both paper families are ``1 - x``."""
        arr = np.asarray(x, dtype=np.float64)
        return np.clip(1.0 - arr, 0.0, 1.0)

    def parallel_payload(self, count: int) -> dict[str, Any] | None:
        """Picklable description of this family's first ``count`` hash
        functions, for dispatching ``compute`` to worker processes.

        Parameters are drawn *here in the parent* (never in workers) so
        the R1 randomness funnel and columnar determinism are
        unaffected by chunking.  The default ``None`` marks a family as
        serial-only — its signature batches are computed in-process.
        """
        return None

    def adopt_params(self, params: dict[str, Any]) -> None:
        """Adopt parent-drawn parameters inside a worker process.

        Only families that return a :meth:`parallel_payload` need to
        implement this; ``params`` is that payload's ``"params"`` dict.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is serial-only (no parallel payload)"
        )

    def export_state(self) -> dict[str, Any]:
        """Serializable family state: drawn parameters plus RNG lineage.

        The state must contain everything needed so that, on a family
        rebuilt over the *same store/field*, :meth:`import_state`
        reproduces both the already-drawn hash columns and every future
        draw (the RNG stream position).  Store-derived data (e.g.
        scrambled shingle sets) is *not* part of the state — it is
        rebuilt deterministically from the store.
        """
        raise SnapshotError(
            f"{type(self).__name__} does not support index snapshots"
        )

    def import_state(self, state: dict[str, Any]) -> None:
        """Adopt :meth:`export_state` output on a freshly built family."""
        raise SnapshotError(
            f"{type(self).__name__} does not support index snapshots"
        )

    @property
    def label(self) -> str:
        """Short family identifier used in metric names and reports."""
        return f"{type(self).__name__}[{self.field}]"


class SignaturePool:
    """Per-record cache of hash values for one :class:`HashFamily`.

    The pool owns a ``(n, capacity)`` value matrix plus a per-record
    fill count.  ``signatures(rids, count)`` extends only the missing
    columns of only the requested records — this is exactly the
    incremental-computation property the adaptive algorithm exploits.
    """

    def __init__(self, family: HashFamily, name: str = "pool") -> None:
        self.family = family
        self.name = name
        n = len(family.store)
        self._filled: IntArray = np.zeros(n, dtype=np.int64)
        self._data: AnyArray = np.zeros((n, 0), dtype=family.dtype)
        #: Total hash values ever computed (work counter).
        self.hashes_computed = 0
        #: Wall-time spent in :meth:`HashFamily.compute` (only measured
        #: while an enabled observer is attached; see :attr:`observer`).
        self.hash_seconds = 0.0
        #: Optional :class:`~repro.obs.observer.RunObserver`; when set
        #: and enabled, :meth:`ensure` times hash computation and feeds
        #: per-pool counters/histograms into its metrics registry.
        self.observer: RunObserver | None = None
        #: Optional :class:`~repro.parallel.pool.ExecutionPool`; when
        #: set, :meth:`ensure` offers each per-level batch to it and
        #: falls back to in-process compute when the pool declines
        #: (serial pool, batch below threshold, serial-only family).
        self.executor: ExecutionPool | None = None

    def __len__(self) -> int:
        return int(self._filled.shape[0])

    @property
    def capacity(self) -> int:
        return int(self._data.shape[1])

    def filled(self, rid: int) -> int:
        """How many hash values are cached for ``rid``."""
        return int(self._filled[rid])

    def _grow(self, needed: int) -> None:
        if needed <= self.capacity:
            return
        new_cap = max(needed, max(8, self.capacity * 2))
        grown = np.zeros((len(self), new_cap), dtype=self._data.dtype)
        if self.capacity:
            grown[:, : self.capacity] = self._data
        self._data = grown

    def ensure(self, rids: ArrayLike, count: int) -> None:
        """Make sure every record in ``rids`` has ``count`` hash values."""
        rids = np.asarray(rids, dtype=np.int64)
        self._grow(count)
        pending = rids[self._filled[rids] < count]
        if pending.size == 0:
            return
        obs = self.observer
        timed = obs is not None and obs.enabled
        before = 0
        started = 0.0
        if timed:
            before = self.hashes_computed
            started = monotonic()
        # Records arrive at a handful of distinct fill levels (one per
        # earlier budget), so batching by level keeps compute() calls few.
        levels = np.unique(self._filled[pending])
        for level in levels:
            batch = pending[self._filled[pending] == level]
            values = None
            if self.executor is not None:
                values = self.executor.compute_signatures(
                    self.family, batch, int(level), count
                )
            if values is None:
                values = self.family.compute(batch, int(level), count)
            self._data[batch, int(level):count] = values
            self._filled[batch] = count
            self.hashes_computed += int(batch.size) * (count - int(level))
        if timed:
            assert obs is not None
            elapsed = monotonic() - started
            self.hash_seconds += elapsed
            obs.counter(f"hash.computed.{self.name}").inc(
                self.hashes_computed - before
            )
            obs.histogram(f"hash.seconds.{self.name}").observe(elapsed)

    def stats(self) -> dict[str, Any]:
        """Per-pool work summary for run reports."""
        return {
            "name": self.name,
            "family": self.family.label,
            "hashes_computed": int(self.hashes_computed),
            "seconds": float(self.hash_seconds),
        }

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def export_columns(self) -> tuple[AnyArray, IntArray]:
        """Copies of the cached value matrix and the per-record fill
        counts, for index snapshots (dtype-exact)."""
        return self._data.copy(), self._filled.copy()

    def import_columns(self, data: AnyArray, filled: ArrayLike) -> None:
        """Adopt snapshot columns on a freshly built (empty) pool.

        ``data``/``filled`` may cover only a *prefix* of this pool's
        records — the snapshot-then-extend-store case — in which case
        the remaining rows start empty.  ``hashes_computed`` stays at
        its current value: restored values were paid for by the run
        that captured them, not by this one.
        """
        data = np.asarray(data)
        filled = np.asarray(filled, dtype=np.int64)
        n = len(self)
        rows = int(data.shape[0])
        if rows != filled.size or rows > n:
            raise SnapshotError(
                f"pool {self.name!r}: snapshot covers {rows} records "
                f"(fill counts: {filled.size}) but the store has {n}"
            )
        if data.dtype != self.family.dtype:
            raise SnapshotError(
                f"pool {self.name!r}: snapshot dtype {data.dtype} does not "
                f"match family dtype {self.family.dtype}"
            )
        capacity = int(data.shape[1])
        if filled.size and (filled.min() < 0 or filled.max() > capacity):
            raise SnapshotError(
                f"pool {self.name!r}: fill counts outside [0, {capacity}]"
            )
        self._data = np.zeros((n, capacity), dtype=self.family.dtype)
        self._data[:rows] = data
        self._filled = np.zeros(n, dtype=np.int64)
        self._filled[:rows] = filled

    def signatures(self, rids: ArrayLike, count: int) -> AnyArray:
        """The first ``count`` hash values of each record in ``rids``."""
        rids = np.asarray(rids, dtype=np.int64)
        self.ensure(rids, count)
        return self._data[rids, :count]

    def table_values(
        self, rids: IntArray, tables: IntArray, w: int, offset: int, z: int
    ) -> AnyArray:
        """The ``w`` hash values table ``tables[i]`` of a ``z``-table
        layout reads for record ``rids[i]`` — columns ``offset +
        [t * w, (t + 1) * w)`` — as a ``(len(rids), w)`` array."""
        count = offset + z * w
        self.ensure(rids, count)
        # Each table's w values as one opaque item, so the gather copies
        # whole keys instead of indexing value by value.
        dtype = self._data.dtype
        item = np.dtype((np.void, w * dtype.itemsize))
        by_table = self._data[:, offset:count].view(item)
        return by_table[rids, tables].view(dtype).reshape(rids.size, w)
