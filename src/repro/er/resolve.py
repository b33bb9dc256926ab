"""Entity resolution over a (filtered) record set.

The paper's *benchmark ER algorithm* (§6.2.2) "computes all the
pairwise similarities in the whole or reduced dataset"; its cost is
therefore ``C(n, 2)`` pair comparisons.  :func:`resolve` actually runs
that algorithm (transitive closure over the match graph) and
:func:`benchmark_er_pairs` gives the pair count used for time
accounting in the speedup metrics.
"""

from __future__ import annotations

import numpy as np

from ..core.pairwise_fn import PairwiseComputation
from ..distance.rules import MatchRule
from ..records import RecordStore


def resolve(
    store: RecordStore,
    rule: MatchRule,
    rids=None,
) -> list[np.ndarray]:
    """Cluster ``rids`` (default: all records) by transitive closure of
    the match rule; returns all components, largest first."""
    if rids is None:
        rids = store.rids
    rids = np.asarray(rids, dtype=np.int64)
    parts = PairwiseComputation(store, rule).apply(rids)
    parts.sort(key=lambda p: p.size, reverse=True)
    return parts


def benchmark_er_pairs(n: int) -> int:
    """Pair comparisons the benchmark ER algorithm performs on ``n``
    records."""
    return n * (n - 1) // 2
