"""Result types shared by the filtering methods: clusters, work
counters, and the :class:`FilterResult` that every method returns."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..types import IntArray

#: Source tag for clusters produced by the pairwise computation P.
SOURCE_PAIRWISE = "P"


@dataclass
class Cluster:
    """A cluster of record ids plus which function produced it.

    ``source`` is the 1-based sequence number of the transitive hashing
    function that produced the cluster, or :data:`SOURCE_PAIRWISE`.
    """

    rids: IntArray
    source: int | str

    @property
    def size(self) -> int:
        return int(self.rids.size)

    def is_final(self, last_level: int) -> bool:
        """Final clusters are outcomes of ``H_L`` or ``P`` (§4.1)."""
        return self.source == SOURCE_PAIRWISE or self.source == last_level


@dataclass
class WorkCounters:
    """Implementation-independent work performed by a filtering run.

    ``pairs_charged`` is the conservative cost-model view of pairwise
    work (all pairs of every set handed to ``P``); ``pairs_compared``
    counts distance evaluations actually performed after the
    transitive-closure skipping optimization.
    """

    hashes_computed: int = 0
    pairs_compared: int = 0
    pairs_charged: int = 0
    table_inserts: int = 0
    rounds: int = 0
    #: records whose deepest processing was sequence function i (1-based
    #: index into the list; index 0 = only H_1 was applied).
    records_per_level: dict[int, int] = field(default_factory=dict)

    def merge_pool_counts(self, pools: Iterable[Any]) -> None:
        """Refresh ``hashes_computed`` from the signature pools."""
        self.hashes_computed = sum(p.hashes_computed for p in pools)


@dataclass
class FilterResult:
    """Output of a filtering method (the paper's Figure 1 stage)."""

    #: Top-k clusters, largest first, as arrays of record ids.
    clusters: list[Cluster]
    #: Union of all cluster members.
    output_rids: IntArray
    #: Work performed.
    counters: WorkCounters
    #: Wall-clock execution time in seconds (FilteringTime).
    wall_time: float
    #: Free-form per-method metadata (designs used, budgets, ...).
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.clusters)

    @property
    def output_size(self) -> int:
        return int(self.output_rids.size)

    # -- typed views over the documented ``info`` keys (docs/API.md) ----
    @property
    def parallel_stats(self) -> dict[str, Any] | None:
        """Execution-pool statistics (``info["parallel"]``), or ``None``
        when the producing run was serial."""
        return self.info.get("parallel")

    @property
    def designed_sequence(self) -> list[str] | None:
        """Human-readable per-level designs (``info["designs"]``), or
        ``None`` for methods that do not design a sequence."""
        return self.info.get("designs")

    @property
    def serving_stats(self) -> dict[str, Any] | None:
        """Serving-session counters (``info["serving"]``), or ``None``
        outside a :class:`~repro.serve.ResolverSession`."""
        return self.info.get("serving")

    @property
    def pair_memo_stats(self) -> dict[str, Any] | None:
        """Pair-verdict memo statistics (``info["memoized_pairs"]``),
        or ``None`` when memoization was disabled."""
        return self.info.get("memoized_pairs")

    @property
    def bin_index_stats(self) -> dict[str, Any] | None:
        """Fingerprint bin-index statistics (``info["bin_index"]``),
        or ``None`` when the bin index was disabled."""
        return self.info.get("bin_index")

    @staticmethod
    def from_clusters(
        clusters: Sequence[Cluster],
        counters: WorkCounters,
        wall_time: float,
        info: dict[str, Any] | None = None,
    ) -> FilterResult:
        """Build a result from raw rid arrays, ordering by size."""
        ordered = sorted(clusters, key=lambda c: c.size, reverse=True)
        if ordered:
            union = np.unique(np.concatenate([c.rids for c in ordered]))
        else:
            union = np.zeros(0, dtype=np.int64)
        return FilterResult(
            clusters=ordered,
            output_rids=union,
            counters=counters,
            wall_time=wall_time,
            info=info or {},
        )
