"""Record-range sharding and the deterministic cross-shard top-k merge.

A service generation partitions its store into contiguous record
ranges (one :class:`~repro.serve.ResolverSession` per range) with a
deterministic partitioner
(:func:`repro.parallel.partition.chunk_spans`), so a given
``(n_records, n_shards)`` always produces the same shard layout.

Every helper here is a pure function of its inputs.  That is the
load-harness bit-identity contract: the service's worker processes,
the inline thread backend, and the in-process oracle all route their
shard queries through :func:`clamped_top_k` and combine them through
:func:`merge_shard_top_k`, so any divergence between a served response
and the oracle is a real serving-layer bug, not tie-break noise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..core.config import AdaptiveConfig, config_with
from ..core.result import FilterResult
from ..errors import ResolvableExceededError
from ..parallel.partition import chunk_spans
from .session import ResolverSession

if TYPE_CHECKING:
    from ..distance.rules import MatchRule
    from ..records import RecordStore

#: Fewest records per shard; tiny stores collapse to fewer shards.
MIN_SHARD_RECORDS = 8


def shard_spans(n_records: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous half-open record ranges covering ``[0, n_records)``.

    At most ``n_shards`` near-equal spans, each at least
    :data:`MIN_SHARD_RECORDS` long (small stores produce fewer shards
    rather than degenerate ones).
    """
    return chunk_spans(n_records, n_shards, MIN_SHARD_RECORDS)


def clamped_top_k(
    session: ResolverSession, k: int
) -> tuple[FilterResult | None, int]:
    """``session.top_k(k)``, clamped to what the shard can resolve.

    A shard holding fewer than ``k`` final clusters raises
    :class:`ResolvableExceededError`; the error carries the exact
    resolvable count, so one retry at that depth always succeeds.
    Returns ``(result, effective_k)`` — ``(None, 0)`` for a shard with
    nothing to resolve.
    """
    effective = min(int(k), len(session.store))
    while effective >= 1:
        try:
            return session.top_k(effective), effective
        except ResolvableExceededError as exc:
            if exc.resolvable < 1:
                return None, 0
            effective = exc.resolvable
    return None, 0


def shard_response(
    result: FilterResult | None, effective_k: int, offset: int
) -> dict[str, Any]:
    """Wire-shaped view of one shard's clamped top-k answer.

    Record ids are translated to the global id space (shard stores are
    contiguous slices, so global id = local id + span start) and sorted
    within each cluster: member order is discovery order inside a
    session, which depends on the shard layout, so the wire format
    canonicalizes it (cluster identity is a set).  The payload is plain
    ints/lists — picklable for process workers and JSON-ready for the
    HTTP layer.
    """
    if result is None:
        return {
            "clusters": [],
            "resolvable": 0,
            "hashes_computed": 0,
            "pairs_compared": 0,
        }
    return {
        "clusters": [
            sorted(int(rid) + offset for rid in cluster.rids)
            for cluster in result.clusters
        ],
        "resolvable": int(effective_k),
        "hashes_computed": int(result.counters.hashes_computed),
        "pairs_compared": int(result.counters.pairs_compared),
    }


def merge_shard_top_k(
    shard_results: list[dict[str, Any]], k: int
) -> dict[str, Any]:
    """Combine per-shard top-k answers into the global top-k.

    Candidates are every shard's clusters (already shard-locally
    largest-first); the global order is size-descending with a full
    lexicographic record-id tie-break, so the merge is a pure function
    of the candidate set — independent of shard arrival order.

    A shard query asks each shard for depth ``k``, and record ranges
    are disjoint, so every global top-k cluster that is contained in a
    single shard is among the candidates.  (Entities straddling a shard
    boundary are resolved per shard — the documented approximation of
    range sharding; see ``docs/SERVING.md``.)
    """
    candidates: list[list[int]] = []
    hashes = 0
    pairs = 0
    for res in shard_results:
        candidates.extend(res["clusters"])
        hashes += int(res["hashes_computed"])
        pairs += int(res["pairs_compared"])
    candidates.sort(key=lambda cluster: (-len(cluster), cluster))
    return {
        "clusters": candidates[: int(k)],
        "resolvable": len(candidates),
        "hashes_computed": hashes,
        "pairs_compared": pairs,
    }


# ----------------------------------------------------------------------
# The synchronous facade
# ----------------------------------------------------------------------
class ShardedIndex:
    """Record-range-sharded adaLSH index with the cross-shard merge.

    The synchronous, in-process face of the sharding layer: the store
    is partitioned by :func:`shard_spans`, and each shard owns a full
    :class:`~repro.serve.ResolverSession` over a zero-copy
    :meth:`~repro.records.RecordStore.slice_view` of its range — so the
    LSH bin index, the MinHash/Hyperplane signature pools, and the
    cross-round pair-verdict memo are all sharded by record range as a
    consequence, with no global structures to synchronize.  Queries run
    Largest-First independently per shard and combine through
    :func:`merge_shard_top_k`, the same pure merge the async service,
    its worker processes, and the :class:`~repro.serve.service.
    ShardOracle` use — responses here are the bit-identity reference
    for all of them.

    With a memory-mapped store (:meth:`repro.storage.StoreLayout.open`)
    the shards never copy column data at all: ``n_shards=1`` over an
    in-memory store and ``n_shards=1`` over the mmap open of the same
    rows return byte-identical responses, and multi-shard runs agree
    with the single-shard path whenever no entity straddles a span
    boundary (the documented range-sharding approximation).

    Parameters
    ----------
    store, rule:
        The records to index and the match rule.
    n_shards:
        Requested shard count; tiny stores collapse to fewer (see
        :data:`MIN_SHARD_RECORDS`).  :attr:`spans` has the final
        layout.
    config:
        Base :class:`~repro.core.config.AdaptiveConfig`; shard ``i``
        runs with ``seed = config.seed + i`` (generation-0 service
        shards use the same derivation).
    """

    def __init__(
        self,
        store: RecordStore,
        rule: MatchRule,
        n_shards: int = 1,
        config: AdaptiveConfig | None = None,
    ) -> None:
        if config is None:
            config = AdaptiveConfig(cost_model="analytic")
        self.spans = shard_spans(len(store), int(n_shards))
        self.sessions = [
            ResolverSession(
                store.slice_view(lo, hi),
                rule,
                config=config_with(config, seed=int(config.seed or 0) + i),
            )
            for i, (lo, hi) in enumerate(self.spans)
        ]

    @property
    def n_shards(self) -> int:
        """Actual shard count (may be below the requested one)."""
        return len(self.sessions)

    def top_k(self, k: int) -> dict[str, Any]:
        """Merged top-``k`` across every shard (wire-shaped dict)."""
        results = [
            shard_response(*clamped_top_k(session, int(k)), offset=lo)
            for session, (lo, _hi) in zip(self.sessions, self.spans)
        ]
        merged = merge_shard_top_k(results, int(k))
        merged["k"] = int(k)
        merged["n_shards"] = self.n_shards
        return merged

    def shard_stats(self) -> list[dict[str, Any]]:
        """Per-shard serving stats, plus each shard's record span."""
        out = []
        for session, (lo, hi) in zip(self.sessions, self.spans):
            stats = dict(session.serving_stats())
            stats["span"] = [int(lo), int(hi)]
            out.append(stats)
        return out

    def close(self) -> None:
        for session in self.sessions:
            session.close()

    def __enter__(self) -> ShardedIndex:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
