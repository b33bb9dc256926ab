"""The Pairs baseline (paper §6.1.1): the pairwise computation function
``P`` applied to the whole dataset, followed by picking the ``k``
largest connected components."""

from __future__ import annotations

import time

from ..core.pairwise_fn import PairwiseComputation
from ..core.result import SOURCE_PAIRWISE, Cluster, FilterResult, WorkCounters
from ..distance.rules import MatchRule
from ..errors import ConfigurationError
from ..records import RecordStore


class PairsBaseline:
    """Exact transitive closure over all record pairs."""

    name = "Pairs"

    def __init__(self, store: RecordStore, rule: MatchRule):
        self.store = store
        self.rule = rule
        self._pairwise = PairwiseComputation(store, rule)

    def run(self, k: int) -> FilterResult:
        """Compute all components and return the ``k`` largest."""
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        counters = WorkCounters()
        started = time.perf_counter()
        parts = self._pairwise.apply(self.store.rids, counters)
        wall = time.perf_counter() - started
        clusters = [Cluster(part, SOURCE_PAIRWISE) for part in parts]
        clusters.sort(key=lambda c: c.rank_key)
        info: dict[str, object] = {
            "method": self.name,
            "components": len(clusters),
        }
        return FilterResult.from_clusters(
            clusters[:k],
            counters,
            wall,
            info=info,
        )
