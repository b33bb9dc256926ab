"""LSH-X blocking baselines (paper §6.1.1 and Appendix E.1).

``LSH-X`` applies the same number ``X`` of hash functions on *every*
record (choosing the (w, z)-scheme with the paper's own optimization
program under budget ``X``), clusters records sharing buckets, and then
verifies candidate clusters with the pairwise function ``P``.  Per the
paper, the comparison against adaLSH uses three optimizations:

1. early termination — stop verifying once ``k`` verified clusters are
   larger than every cluster not yet verified;
2. the same vectorised ``P`` as adaLSH (shared
   :class:`~repro.core.pairwise_fn.PairwiseComputation` implementation);
3. the same data structures as adaLSH (fingerprint bin index, size bins).

``LSH-X-nP`` (Appendix E.1) skips verification entirely and trusts the
bucket graph — fast but error-prone, which Figure 20 quantifies.
"""

from __future__ import annotations

import time

from ..core.pairwise_fn import PairwiseComputation
from ..core.result import SOURCE_PAIRWISE, Cluster, FilterResult, WorkCounters
from ..core.transitive import TransitiveHashingFunction
from ..distance.rules import MatchRule
from ..errors import ConfigurationError
from ..lsh.binindex import SchemeBinIndex
from ..lsh.design import DEFAULT_EPSILON, build_design_context, design_scheme
from ..records import RecordStore
from ..rngutil import make_rng
from ..structures.bin_index import BinIndex


class LSHBlocking:
    """The LSH-X / LSH-X-nP baseline.

    Parameters
    ----------
    n_hashes:
        ``X`` — hash functions applied to every record.
    verify:
        ``True`` for LSH-X (pairwise verification with early
        termination), ``False`` for LSH-X-nP.
    """

    def __init__(
        self,
        store: RecordStore,
        rule: MatchRule,
        n_hashes: int,
        verify: bool = True,
        epsilon: float = DEFAULT_EPSILON,
        seed=None,
    ):
        if n_hashes < 1:
            raise ConfigurationError(f"n_hashes must be >= 1, got {n_hashes}")
        self.store = store
        self.rule = rule
        self.n_hashes = int(n_hashes)
        self.verify = verify
        self.epsilon = epsilon
        self._rng = make_rng(seed)
        self._pairwise = PairwiseComputation(store, rule)
        self._prepared = False

    @property
    def name(self) -> str:
        return f"LSH{self.n_hashes}{'' if self.verify else 'nP'}"

    def prepare(self) -> None:
        """Design the single (w, z)-scheme for budget ``X`` (idempotent)."""
        if self._prepared:
            return
        self._ctx = build_design_context(self.store, self.rule, seed=self._rng)
        self._design = design_scheme(self._ctx, self.n_hashes, epsilon=self.epsilon)
        self._function = TransitiveHashingFunction(
            1, self._design, SchemeBinIndex(len(self.store)).level(1)
        )
        self._pools = [
            comp.pool for branch in self._ctx.branches for comp in branch
        ]
        self._prepared = True

    # ------------------------------------------------------------------
    def run(self, k: int) -> FilterResult:
        """Filter the dataset and return the top-``k`` clusters."""
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.prepare()
        baseline_hashes = sum(p.hashes_computed for p in self._pools)
        counters = WorkCounters()
        started = time.perf_counter()
        # Stage 1: hash every record, cluster by shared buckets.
        candidates = [
            Cluster(part, 1)
            for part in self._function.apply(self.store.rids, counters)
        ]
        if self.verify:
            finals = self._verify(candidates, k, counters)
        else:
            finals = sorted(candidates, key=lambda c: c.rank_key)[:k]
        wall = time.perf_counter() - started
        counters.merge_pool_counts(self._pools)
        counters.hashes_computed -= baseline_hashes
        return FilterResult.from_clusters(
            finals,
            counters,
            wall,
            info={
                "method": self.name,
                "n_hashes": self.n_hashes,
                "design": self._design.describe(),
                "verified": self.verify,
            },
        )

    def _verify(self, candidates, k, counters) -> list:
        """Stage 2: verify candidate clusters with ``P``, largest first,
        stopping early per optimization (1)."""
        bins = BinIndex()
        for cluster in candidates:
            bins.add(cluster, cluster.size)
        verified: list[Cluster] = []
        while bins:
            if len(verified) >= k:
                kth = sorted(
                    (c.size for c in verified), reverse=True
                )[k - 1]
                if kth >= bins.peek_largest_size():
                    break
            _size, cluster = bins.pop_largest()
            counters.rounds += 1
            for part in self._pairwise.apply(cluster.rids, counters):
                verified.append(Cluster(part, SOURCE_PAIRWISE))
        verified.sort(key=lambda c: c.rank_key)
        return verified[:k]
