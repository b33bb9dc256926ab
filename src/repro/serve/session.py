"""A long-lived serving session over one store and one prepared method.

:class:`ResolverSession` is the serving-side counterpart of the
one-shot :func:`~repro.core.adaptive.adaptive_filter`: it owns a
:class:`~repro.records.RecordStore` plus one prepared (cold) or
restored (warm) :class:`~repro.core.adaptive.AdaptiveLSH`, and answers
repeated ``top_k`` queries against them.  Signature pools, the bin
index and the pair-verdict memo live for the session, so every query
after the first pays only its marginal hashing.

Queries are memoized in a small LRU keyed by ``(k, store_version)``;
``insert_records``/``extend_store`` bump ``store_version`` (invalidating
the cache) and re-seat the warm pools onto the extended store through a
snapshot round-trip, after which queries refine coarse clusters through
a :class:`~repro.online.StreamingTopK` front-end (§9).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from typing import Any

from ..core.adaptive import AdaptiveLSH
from ..core.config import AdaptiveConfig
from ..core.result import FilterResult
from ..distance.rules import MatchRule
from ..errors import ConfigurationError
from ..obs import DISABLED, RunObserver
from ..obs.report import RunReport
from ..online.streaming import StreamingTopK
from ..records import RecordStore
from .snapshot import IndexSnapshot

#: Default number of memoized FilterResults per session.
DEFAULT_CACHE_SIZE = 8


class ResolverSession:
    """Long-lived top-k entity-resolution session.

    Parameters
    ----------
    store, rule:
        The dataset and match rule (cold start).  Alternatively pass a
        prepared ``method=`` — :meth:`from_snapshot` does — and omit
        ``rule``.
    config, observer:
        Forwarded to :class:`AdaptiveLSH` on a cold start.
    cache_size:
        Capacity of the per-session LRU of recent
        :class:`FilterResult`s, keyed by ``(k, store_version)``.
    """

    def __init__(
        self,
        store: RecordStore,
        rule: MatchRule | None = None,
        config: AdaptiveConfig | None = None,
        observer: RunObserver | None = None,
        method: AdaptiveLSH | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if method is not None:
            if config is not None:
                raise ConfigurationError(
                    "pass either method= or config= to ResolverSession, not both"
                )
            if method.store is not store:
                raise ConfigurationError(
                    "method= must wrap the same store passed to ResolverSession"
                )
            self._method = method
        else:
            if rule is None:
                raise ConfigurationError(
                    "ResolverSession needs a rule (or a prepared method=)"
                )
            self._method = AdaptiveLSH(
                store, rule, config=config, observer=observer
            )
        if cache_size < 1:
            raise ConfigurationError(
                f"cache_size must be >= 1, got {cache_size}"
            )
        self._store = store
        self.cache_size = int(cache_size)
        #: Bumped by every :meth:`extend_store`; part of the cache key.
        self.store_version = 0
        self._stream: StreamingTopK | None = None
        self._cache: OrderedDict[tuple[int, int], FilterResult] = OrderedDict()
        self._queries = 0
        self._cache_hits = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(
        cls,
        snapshot: IndexSnapshot | Any,
        store: RecordStore,
        observer: RunObserver | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> ResolverSession:
        """Warm-start a session from an :class:`IndexSnapshot` or a path.

        The restored method skips design, calibration, and all
        already-captured hashing; its queries are bit-identical to the
        cold run the snapshot came from.
        """
        if not isinstance(snapshot, IndexSnapshot):
            snapshot = IndexSnapshot.load(snapshot)
        method = snapshot.restore(store, observer=observer)
        return cls(store, method=method, cache_size=cache_size)

    @classmethod
    def from_layout(
        cls,
        path: Any,
        rule: MatchRule | None = None,
        config: AdaptiveConfig | None = None,
        observer: RunObserver | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> ResolverSession:
        """Serve an on-disk columnar layout (:mod:`repro.storage`).

        The store is opened with ``mmap_mode="r"`` — columns fault in
        on first touch and the session never holds a private copy.
        ``rule`` may be omitted when the layout was written with a rule
        spec (dataset layouts are), in which case the stored rule is
        used.
        """
        from ..io import rule_from_spec
        from ..storage import StoreLayout

        layout = path if isinstance(path, StoreLayout) else StoreLayout(path)
        if rule is None:
            spec = layout.extras.get("rule")
            if not spec:
                raise ConfigurationError(
                    f"layout at {layout.path} stores no rule spec; pass rule="
                )
            rule = rule_from_spec(spec)
        return cls(
            layout.open(),
            rule,
            config=config,
            observer=observer,
            cache_size=cache_size,
        )

    # ------------------------------------------------------------------
    @property
    def store(self) -> RecordStore:
        """The current (possibly extended) record store."""
        return self._store

    @property
    def method(self) -> AdaptiveLSH:
        """The underlying adaptive method serving this session."""
        return self._method

    @property
    def warm_started(self) -> bool:
        """True when the current method was restored from a snapshot."""
        return self._method.warm_started

    @property
    def last_report(self) -> RunReport | None:
        """The :class:`RunReport` of the most recent uncached query."""
        return self._method.last_report

    def serving_stats(self) -> dict[str, Any]:
        """Session counters: queries answered, cache hits, warm/cold."""
        return {
            "queries": self._queries,
            "cache_hits": self._cache_hits,
            "warm_start": self._method.warm_started,
            "store_version": self.store_version,
            "cached_results": len(self._cache),
            "bin_index": self._method.bin_index.stats(),
        }

    # ------------------------------------------------------------------
    def top_k(self, k: int) -> FilterResult:
        """The top-``k`` clusters of the current store.

        Results are served from the session LRU when the same ``k`` was
        already answered for the current ``store_version``; otherwise
        the query runs on the warm method (or, after a store extension,
        through the streaming refine front-end).
        """
        k = int(k)
        self._queries += 1
        key = (k, self.store_version)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache_hits += 1
            self._cache.move_to_end(key)
            cached.info["serving"] = self._serving_info(cache_hit=True)
            return cached
        if self._stream is not None:
            result = self._stream.top_k(k)
        else:
            result = self._method.run(k)
        result.info["serving"] = self._serving_info(cache_hit=False)
        report = self._method.last_report
        if report is not None:
            report.serving = dict(result.info["serving"])
        self._cache[key] = result
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return result

    def batch_top_k(self, ks: Sequence[int]) -> list[FilterResult]:
        """Answer several ``k`` values, returned in the requested order.

        Evaluation happens largest-``k`` first: deeper queries warm the
        pools past what shallower ones need, so the smaller ``k`` runs
        reuse a superset of the cached signatures.
        """
        order = sorted(range(len(ks)), key=lambda i: -int(ks[i]))
        results: dict[int, FilterResult] = {}
        for i in order:
            results[i] = self.top_k(int(ks[i]))
        return [results[i] for i in range(len(ks))]

    def _serving_info(self, cache_hit: bool) -> dict[str, Any]:
        stats = self.serving_stats()
        stats["cache_hit"] = cache_hit
        return stats

    # ------------------------------------------------------------------
    def insert_records(self, records: RecordStore | dict[str, Any]) -> None:
        """Append records (a store, or schema-shaped columns) and
        re-seat the warm index onto the extended store."""
        if not isinstance(records, RecordStore):
            records = RecordStore(self._store.schema, records)
        self.extend_store(records)

    def extend_store(self, new_records: RecordStore) -> None:
        """Append ``new_records`` to the store without losing warm state.

        The current prepared state is captured, the store is extended,
        and the snapshot is restored (``strict=False``) onto the
        extension — family parameters, designs, the cost model, and all
        existing signature columns carry over; only the new records
        hash lazily.  Queries then go through a
        :class:`~repro.online.StreamingTopK` front-end whose refine
        loop shares the restored pools.

        Streaming state is carried too: the previous front-end's
        partition and sorted ``H_1`` bucket arrays transfer
        (:meth:`~repro.online.StreamingTopK.carry_state`) and only the
        *new* records are ingested — delta candidate pairs come from
        touched buckets instead of a full re-group.
        """
        if len(new_records) == 0:
            return
        snapshot = IndexSnapshot.capture(self._method)
        n_before = len(self._store)
        carry = self._stream.carry_state() if self._stream is not None else None
        extended = self._store.concat(new_records)
        observer = self._method.obs if self._method.obs is not DISABLED else None
        pair_memo = self._method.pair_memo
        self._method.close()
        self._method = snapshot.restore(extended, observer=observer, strict=False)
        # Carry remembered pair verdicts across the re-seat: the old
        # store is a byte-identical prefix of the extension, so the
        # memo's re-bind keeps every verdict and later refines skip
        # re-verifying pairs this session already resolved.
        self._method.adopt_pair_memo(pair_memo)
        self._store = extended
        self.store_version += 1
        stream = StreamingTopK(extended, method=self._method, carry=carry)
        if stream.carried:
            stream.insert_many(extended.rids[n_before:])
        else:
            stream.insert_many(extended.rids)
        self._stream = stream

    # ------------------------------------------------------------------
    def snapshot(self, path: Any | None = None) -> IndexSnapshot:
        """Capture the session's current prepared state; write it to
        ``path`` when given."""
        snap = IndexSnapshot.capture(self._method)
        if path is not None:
            snap.save(path)
        return snap

    def close(self) -> None:
        """Release the method's resources (none today; kept as the
        lifecycle API)."""
        self._method.close()

    def __enter__(self) -> ResolverSession:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
