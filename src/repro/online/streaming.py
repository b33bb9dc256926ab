"""Streaming adaptive LSH (paper §9: "we believe that adaLSH can offer
large performance gains in online settings, where ... input records
arrive dynamically").

:class:`StreamingTopK` keeps the *first* (cheapest) hashing function's
tables alive across insertions: each arriving record pays only the
``H_1`` budget (20 hashes by default) at ingest time, maintaining
coarse clusters incrementally.  A ``top_k(k)`` query hands the current
coarse clusters to the adaptive refinement loop
(:meth:`~repro.core.adaptive.AdaptiveLSH.refine`), which — thanks to
the shared signature pools — only computes the *additional* hash
functions needed by records in still-ambiguous, large clusters.
Repeated queries therefore get cheaper as the pools warm up, and —
because the wrapped method's
:class:`~repro.core.pairmemo.PairVerdictMemo` lives across refines —
pairs verified by one query are never re-evaluated by the next.

The coarse partition (records sharing an ``H_1`` bucket key are
connected) lives in a union-find plus the method's **delta index**
(:class:`~repro.lsh.binindex.H1DeltaIndex`): per-table sorted
``(fingerprint, rid)`` arrays that emit candidate pairs from touched
buckets only.  Both are partition state, held whatever the bin index's
byte budget.  They are exportable: a successor stream over an extended
store adopts them (:class:`StreamCarry`) and ingests just the new
records instead of re-grouping everything.

Storage note: records live in a regular :class:`RecordStore` created up
front; "arrival" is the ``insert`` call.  This decouples stream order
from storage layout without changing any algorithmic property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.adaptive import AdaptiveLSH
from ..core.config import AdaptiveConfig
from ..core.result import FilterResult
from ..distance.rules import MatchRule
from ..errors import ConfigurationError
from ..lsh.binindex import H1DeltaIndex
from ..obs.observer import RunObserver
from ..records import RecordStore
from ..structures.union_find import UnionFind
from ..types import ArrayLike, BoolArray, IntArray


@dataclass
class StreamCarry:
    """Warm streaming state exported by :meth:`StreamingTopK.carry_state`
    and adopted by a successor stream over an *extended* store.

    Valid because every piece is append-stable: the union-find arrays
    and inserted mask cover a prefix of the extended store's ids, and
    the delta-index fingerprints are pure functions of key bytes that a
    prefix-preserving store extension leaves bit-identical.
    """

    n_records: int
    parent: IntArray
    size: IntArray
    inserted: BoolArray
    h1_state: dict[str, Any]


class StreamingTopK:
    """Incremental top-k filtering over a stream of records.

    Construct either with ``(store, rule, config=...)`` — a fresh
    adaptive method is built — or with ``method=`` to wrap an existing
    (possibly snapshot-restored) :class:`AdaptiveLSH` instance, which
    is how :class:`~repro.serve.ResolverSession` reuses warm pools
    after a store extension.  ``carry=`` additionally adopts a
    predecessor stream's :class:`StreamCarry`; check :attr:`carried`
    to learn whether only the new records still need inserting.
    """

    def __init__(
        self,
        store: RecordStore,
        rule: MatchRule | None = None,
        config: AdaptiveConfig | None = None,
        observer: RunObserver | None = None,
        method: AdaptiveLSH | None = None,
        carry: StreamCarry | None = None,
    ) -> None:
        if method is not None:
            if config is not None:
                raise ConfigurationError(
                    "pass either method= or config= to StreamingTopK, not both"
                )
            if method.store is not store:
                raise ConfigurationError(
                    "method= must wrap the same store passed to StreamingTopK"
                )
            self._adaptive = method
        else:
            if rule is None:
                raise ConfigurationError(
                    "StreamingTopK needs a rule (or a prepared method=)"
                )
            self._adaptive = AdaptiveLSH(
                store, rule, config=config, observer=observer
            )
        self.store = store
        self._uf = UnionFind(len(store))
        self._inserted = np.zeros(len(store), dtype=bool)
        self._delta: H1DeltaIndex | None = None
        #: True when a ``carry=`` state was adopted — the caller only
        #: needs to insert records beyond ``carry.n_records``.
        self.carried = False
        if carry is not None:
            if carry.n_records > len(store):
                raise ConfigurationError(
                    "carry state covers more records than the store holds"
                )
            self._adopt_carry(carry)

    @property
    def n_seen(self) -> int:
        return int(self._inserted.sum())

    @property
    def method(self) -> AdaptiveLSH:
        """The underlying adaptive method (shared pools and designs)."""
        return self._adaptive

    @property
    def delta_index(self) -> H1DeltaIndex | None:
        """The ``H_1`` delta index, or ``None`` before the first insert
        (or carried state) prepared the method."""
        return self._delta

    def _ensure_ready(self) -> H1DeltaIndex:
        if self._delta is None:
            self._adaptive.prepare()
            h1 = self._adaptive._functions[0]
            self._delta = self._adaptive.bin_index.h1_delta(h1.scheme)
        return self._delta

    def _adopt_carry(self, carry: StreamCarry) -> None:
        """Adopt a predecessor's partition and delta-index state.

        Falls back to a cold start (``carried`` stays False) when the
        carried arrays do not match the ``H_1`` table layout — the
        caller then re-inserts everything, which is always correct.
        """
        if not self._ensure_ready().adopt_state(carry.h1_state):
            return
        n_old = int(carry.n_records)
        self._uf.parent[:n_old] = carry.parent
        self._uf.size[:n_old] = carry.size
        self._inserted[:n_old] = carry.inserted
        self.carried = True

    def carry_state(self) -> StreamCarry | None:
        """Exportable warm state for a successor stream, or ``None``
        before anything was inserted (the successor then re-inserts
        everything)."""
        if self._delta is None:
            return None
        return StreamCarry(
            n_records=len(self.store),
            parent=self._uf.parent.copy(),
            size=self._uf.size.copy(),
            inserted=self._inserted.copy(),
            h1_state=self._delta.export_state(),
        )

    # ------------------------------------------------------------------
    def insert(self, rid: int) -> None:
        """Ingest one record: ``H_1`` hashes plus table maintenance."""
        self._ingest(self._checked(np.array([int(rid)], dtype=np.int64)))

    def insert_many(self, rids: ArrayLike) -> None:
        """Ingest a batch (hash computation is batched across records)."""
        self._ingest(self._checked(np.asarray(rids, dtype=np.int64)))

    def _checked(self, rids: IntArray) -> IntArray:
        """``rids`` when every id is in range, appears once and is not
        inserted yet; otherwise the whole batch is rejected before any
        state changes."""
        n = len(self.store)
        if rids.size and (int(rids.min()) < 0 or int(rids.max()) >= n):
            raise ConfigurationError(
                f"record ids must lie in [0, {n}), got {rids.min()}..{rids.max()}"
            )
        if np.unique(rids).size != rids.size:
            raise ConfigurationError("batch contains a record id more than once")
        if self._inserted[rids].any():
            raise ConfigurationError("batch contains already-inserted records")
        return rids

    def _ingest(self, fresh: IntArray) -> None:
        self._ensure_ready().insert(fresh, self._uf)
        self._inserted[fresh] = True

    # ------------------------------------------------------------------
    def current_clusters(self) -> list[IntArray]:
        """Coarse (H_1-level) clusters of the records seen so far.

        A pure function of the partition: groups are listed by first
        occurrence (ascending smallest member), members ascending, then
        stably sorted by size descending, without per-record ``find``
        calls.
        """
        seen = np.nonzero(self._inserted)[0].astype(np.int64)
        if seen.size == 0:
            return []
        parent = self._uf.parent
        roots = parent[seen]
        while True:
            hop = parent[roots]
            if np.array_equal(hop, roots):
                break
            roots = hop
        uniq, inverse = np.unique(roots, return_inverse=True)
        first_pos = np.full(uniq.size, seen.size, dtype=np.int64)
        np.minimum.at(
            first_pos, inverse, np.arange(seen.size, dtype=np.int64)
        )
        emit_order = np.argsort(first_pos, kind="stable")
        member_order = np.argsort(inverse, kind="stable")
        members = seen[member_order]
        bounds = np.zeros(uniq.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(inverse, minlength=uniq.size), out=bounds[1:])
        clusters = [
            members[int(bounds[g]) : int(bounds[g + 1])]
            for g in emit_order.tolist()
        ]
        clusters.sort(key=lambda c: int(c.size), reverse=True)
        return clusters

    def top_k(self, k: int) -> FilterResult:
        """Adaptive refinement of the current coarse clusters."""
        self._ensure_ready()
        if self.n_seen == 0:
            raise ConfigurationError("no records inserted yet")
        initial = [(c, 1) for c in self.current_clusters()]
        return self._adaptive.refine(initial, k)
