"""Adaptive LSH — Algorithm 1 of the paper.

The algorithm maintains a pool of clusters.  Each round it selects the
largest cluster that is not yet *final* (finals are outcomes of the
last hashing function ``H_L`` or of the pairwise function ``P``),
decides between applying the next hashing function in the sequence or
jumping to ``P`` (Line 5 cost-model gate), and files the resulting
subclusters back.  It terminates when the ``k`` largest clusters are
all final and returns them.

Largest-First selection is provably cost-optimal (Theorems 1-2); the
``selection`` parameter exists so the ablation benchmarks can compare
against deliberately suboptimal strategies.

The *incremental mode* of §4.2 is :meth:`AdaptiveLSH.iter_clusters`,
which yields each final cluster the moment it is known to be the next
largest — by Theorem 2 the time-to-k'-th-cluster is optimal for every
``k' < k``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from ..distance.rules import MatchRule
from ..errors import ConfigurationError, ResolvableExceededError, SnapshotError
from ..lsh.binindex import SchemeBinIndex
from ..lsh.design import DesignContext, SchemeDesign, design_sequence
from ..lsh.families import SignaturePool
from ..obs import DISABLED, RoundEvent, RunObserver, RunReport
from ..obs.clock import monotonic
from ..records import RecordStore
from ..rngutil import SeedLike, keyed_rng, make_rng, stable_seed
from ..structures.bin_index import BinIndex
from ..types import IntArray
from .budget import exponential_budgets
from .config import SELECTIONS, AdaptiveConfig
from .cost import CostModel
from .pairmemo import MATCH, NO_MATCH, UNKNOWN, PairVerdictMemo, pack_pair_keys
from .pairwise_fn import PairwiseComputation
from .result import SOURCE_PAIRWISE, Cluster, FilterResult, WorkCounters
from .transitive import TransitiveHashingFunction

_SELECTIONS = SELECTIONS


class AdaptiveLSH:
    """The adaLSH filtering method.

    Parameters
    ----------
    store, rule:
        The dataset and the match rule (distance metric(s) + threshold(s)).
    config:
        An :class:`~repro.core.config.AdaptiveConfig` holding every
        tuning knob (budgets, epsilon, seed, cost model, selection,
        jump policy, caching); defaults apply when
        omitted.  This is the only construction surface — the
        pre-config keyword arguments were removed after a deprecation
        cycle.
    observer:
        A :class:`~repro.obs.RunObserver` to collect spans, metrics and
        round events into.  After :meth:`run`, :attr:`last_report`
        holds the serializable :class:`~repro.obs.RunReport` of the
        run.

    Notes
    -----
    One query runs in one process; the shard service
    (:mod:`repro.serve`) is the only parallelism.  :meth:`close` and the
    context-manager protocol are the lifecycle surface and currently
    release nothing.

    A prepared instance can be frozen to disk with
    :class:`~repro.serve.IndexSnapshot` and warm-started later through
    :meth:`adopt_prepared_state`, skipping design, calibration, and
    initial hashing entirely.
    """

    _ctx: DesignContext
    _designs: list[SchemeDesign]
    _functions: list[TransitiveHashingFunction]
    _pools: list[SignaturePool]
    _pool_baseline: int
    _level_of: IntArray
    cost_model: CostModel

    def __init__(
        self,
        store: RecordStore,
        rule: MatchRule,
        config: AdaptiveConfig | None = None,
        observer: RunObserver | None = None,
    ) -> None:
        if config is None:
            config = AdaptiveConfig()
        elif not isinstance(config, AdaptiveConfig):
            raise ConfigurationError(
                "config must be an AdaptiveConfig (the legacy keyword "
                f"arguments were removed), got {type(config).__name__}"
            )
        cfg = config
        #: The resolved :class:`AdaptiveConfig` this instance runs with.
        self.config = cfg
        self.store = store
        self.rule = rule
        self.budgets = (
            list(cfg.budgets) if cfg.budgets is not None else exponential_budgets()
        )
        self.epsilon = cfg.epsilon
        self.selection = cfg.selection
        self._rng = make_rng(cfg.seed)
        #: Seeds the lookahead density samples, keyed per cluster.
        self._lookahead_seed = stable_seed(cfg.seed)
        self._noise_factor = cfg.noise_factor
        self._analytic_pair_cost = cfg.analytic_pair_cost
        self._cost_model_spec = cfg.cost_model
        #: Cross-round pair-verdict memo shared by the pairwise function
        #: and the lookahead density sampler.
        self._pair_memo = PairVerdictMemo(max_bytes=cfg.pair_memo_bytes)
        self._pairwise = PairwiseComputation(store, rule, memo=self._pair_memo)
        #: Persistent fingerprint bin index: every level's grouping and
        #: the streaming delta candidates.
        self._bin_index = SchemeBinIndex(len(store))
        self._prepared = False
        #: True when prepared state was adopted from a snapshot instead
        #: of being designed/calibrated by this instance.
        self.warm_started = False
        self.jump_policy = cfg.jump_policy
        self._lookahead_samples = cfg.lookahead_samples
        self._lookahead_density = cfg.lookahead_density
        # Observability: a caller-supplied RunObserver wins; otherwise
        # the shared no-op observer keeps the hot paths branch-only.
        self.obs = observer if observer is not None else DISABLED
        #: :class:`~repro.obs.report.RunReport` of the latest
        #: :meth:`run`/:meth:`refine` (``None`` when observability is
        #: off or before the first run).
        self.last_report: RunReport | None = None

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Design the function sequence and the cost model (idempotent).

        Done lazily so constructing the object is cheap; the first
        :meth:`run` pays for scheme design once, and later runs (other
        ``k`` values, incremental mode) reuse designs and hash pools.
        """
        if self._prepared:
            return
        if len(self.store) == 0:
            raise ConfigurationError(
                "cannot filter an empty record store: no clusters exist"
            )
        with self.obs.span("adaLSH.prepare"):
            self._prepare()

    def _prepare(self) -> None:
        self._ctx, self._designs = design_sequence(
            self.store,
            self.rule,
            self.budgets,
            epsilon=self.epsilon,
            seed=self._rng,
        )
        self.cost_model = self._resolve_cost_model()
        self._install_prepared_state()

    def _resolve_cost_model(self) -> CostModel:
        spec = self._cost_model_spec
        if isinstance(spec, CostModel):
            return spec
        if spec == "analytic":
            return CostModel.from_budgets(
                [d.spent_budget for d in self._designs],
                cost_p=self._analytic_pair_cost,
                noise_factor=self._noise_factor,
            )
        if spec == "calibrate":
            return CostModel.calibrate(
                self.store,
                self.rule,
                self._designs,
                noise_factor=self._noise_factor,
                seed=self._rng,
            )
        raise ConfigurationError(  # pragma: no cover - guarded by AdaptiveConfig
            f"cost_model must be 'calibrate', 'analytic', or a CostModel, "
            f"got {spec!r}"
        )

    def _install_prepared_state(self) -> None:
        """Wire functions, pools, observer, and bin index from
        ``self._ctx`` / ``self._designs`` / ``self.cost_model`` — the
        shared tail of cold :meth:`_prepare` and warm
        :meth:`adopt_prepared_state`."""
        self._functions = [
            TransitiveHashingFunction(
                level + 1, design, self._bin_index.level(level + 1)
            )
            for level, design in enumerate(self._designs)
        ]
        self._pools = [
            comp.pool for branch in self._ctx.branches for comp in branch
        ]
        # Hand the hot-path collaborators the run observer; with the
        # shared no-op observer this only sets an attribute once.
        self._pairwise.observer = self.obs
        self._bin_index.observer = self.obs
        for pool in self._pools:
            pool.observer = self.obs
        self._pair_memo.observer = self.obs
        # Establish (or re-validate) the memo's (store, rule) binding;
        # remembered verdicts survive exactly when both fingerprints
        # still match.
        self._pair_memo.bind(self.store, self.rule)
        self._prepared = True

    def adopt_prepared_state(
        self,
        ctx: DesignContext,
        designs: Sequence[SchemeDesign],
        cost_model: CostModel,
        rng: SeedLike = None,
        lookahead_seed: int | None = None,
    ) -> None:
        """Warm-start: adopt externally rebuilt prepared state.

        Used by :meth:`repro.serve.IndexSnapshot.restore` — ``ctx``
        carries pools whose family parameters and signature columns
        were loaded from a snapshot, ``designs`` the captured
        ``(w, z)`` solutions, ``rng`` the captured stream position and
        ``lookahead_seed`` the captured density-sample seed.
        After this, :meth:`prepare` is a no-op (no design, no
        calibration, no ``adaLSH.prepare`` span), and :meth:`run` is
        bit-identical to the run the snapshot was captured from.
        """
        if self._prepared:
            raise SnapshotError(
                "cannot adopt prepared state: this instance is already prepared"
            )
        self._ctx = ctx
        self._designs = list(designs)
        self.cost_model = cost_model
        if rng is not None:
            self._rng = make_rng(rng)
        if lookahead_seed is not None:
            self._lookahead_seed = int(lookahead_seed)
        with self.obs.span("adaLSH.restore"):
            self._install_prepared_state()
        self.warm_started = True

    @property
    def pair_memo(self) -> PairVerdictMemo:
        """The pair-verdict memo."""
        return self._pair_memo

    @property
    def bin_index(self) -> SchemeBinIndex:
        """The fingerprint bin index."""
        return self._bin_index

    def adopt_pair_memo(self, memo: PairVerdictMemo) -> None:
        """Transfer a pair-verdict memo from a prior method instance.

        Used by :meth:`repro.serve.ResolverSession.extend_store`, where
        a snapshot restore builds a fresh method over the extended
        store: re-binding keeps every remembered verdict when the old
        store is a byte-identical prefix of the new one, and clears the
        memo otherwise — the verdicts stay correct either way.
        """
        self._pair_memo = memo
        self._pairwise.memo = memo
        memo.observer = self.obs
        memo.bind(self.store, self.rule)

    def close(self) -> None:
        """Release held resources (none today; kept as the lifecycle API)."""

    def __enter__(self) -> AdaptiveLSH:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def last_level(self) -> int:
        return len(self.budgets)

    # ------------------------------------------------------------------
    def run(self, k: int) -> FilterResult:
        """Run the filter and return the top-``k`` clusters.

        Scheme design and cost-model calibration are offline per the
        paper ("the whole function sequence design process is run
        offline", App. C.4), so they happen before the clock starts.
        """
        obs = self.obs
        if obs.enabled:
            obs.reset()
        self.prepare()
        finals: list[Cluster] = []
        started = monotonic()
        counters = WorkCounters()
        with obs.span("adaLSH.run", k=k):
            for cluster in self._iter_final_clusters(k, counters):
                finals.append(cluster)
        wall = monotonic() - started
        counters.merge_pool_counts(self._pools)
        counters.hashes_computed -= self._pool_baseline
        info: dict[str, Any] = {
            "method": "adaLSH",
            "budgets": [d.spent_budget for d in self._designs],
            "designs": [d.describe() for d in self._designs],
            "selection": self.selection,
            "records_per_level": counters.records_per_level,
        }
        self._add_execution_info(info)
        if obs.enabled:
            self.last_report = self._build_report("adaLSH", k, wall, counters, info)
        return FilterResult.from_clusters(finals, counters, wall, info=info)

    def _build_report(
        self,
        method: str,
        k: int,
        wall: float,
        counters: WorkCounters,
        info: dict[str, Any],
    ) -> RunReport:
        # String keys everywhere: JSON object keys are strings, and the
        # report must round-trip losslessly through to_json/from_json.
        per_level = {
            str(level): n for level, n in counters.records_per_level.items()
        }
        info = {key: value for key, value in info.items() if key != "designs"}
        if "records_per_level" in info:
            info["records_per_level"] = per_level
        return self.obs.build_report(
            method=method,
            k=k,
            wall_time=wall,
            counters={
                "hashes_computed": counters.hashes_computed,
                "pairs_compared": counters.pairs_compared,
                "pairs_charged": counters.pairs_charged,
                "table_inserts": counters.table_inserts,
                "rounds": counters.rounds,
                "records_per_level": per_level,
            },
            cost_model=self.cost_model.to_dict(),
            hash_pools=[pool.stats() for pool in self._pools],
            info=info,
        )

    def _add_execution_info(self, info: dict[str, Any]) -> None:
        """Attach cache execution stats to a result info dict."""
        info["memoized_pairs"] = self._pair_memo.stats()
        info["bin_index"] = self._bin_index.stats()
        backing = self.store.backing
        if backing is not None:
            info["store_backing"] = {
                "path": backing.path,
                "store_version": int(backing.store_version),
                "lo": int(backing.lo),
                "hi": int(backing.hi),
            }

    def iter_clusters(self, k: int) -> Iterator[Cluster]:
        """Incremental mode (§4.2): yield final clusters one by one,
        largest first, as soon as each is known."""
        counters = WorkCounters()
        yield from self._iter_final_clusters(k, counters)

    def refine(
        self,
        initial_clusters: Iterable[tuple[Any, int]],
        k: int,
    ) -> FilterResult:
        """Run the Largest-First loop over externally produced clusters.

        ``initial_clusters`` are ``(rids, level)`` pairs — clusters that
        have already had sequence function ``H_level`` applied (e.g. by
        the streaming front-end).  Hash signatures cached in the shared
        pools are reused, so refinement is incremental.
        """
        obs = self.obs
        if obs.enabled:
            obs.reset()
        self.prepare()
        started = monotonic()
        counters = WorkCounters()
        initial = [
            Cluster(np.asarray(rids, dtype=np.int64), int(level))
            for rids, level in initial_clusters
        ]
        with obs.span("adaLSH.refine", k=k):
            finals = list(self._iter_final_clusters(k, counters, initial=initial))
        wall = monotonic() - started
        counters.merge_pool_counts(self._pools)
        counters.hashes_computed -= self._pool_baseline
        info: dict[str, Any] = {"method": "adaLSH.refine"}
        self._add_execution_info(info)
        if obs.enabled:
            self.last_report = self._build_report(
                "adaLSH.refine", k, wall, counters, info
            )
        return FilterResult.from_clusters(finals, counters, wall, info=info)

    # ------------------------------------------------------------------
    def _iter_final_clusters(
        self,
        k: int,
        counters: WorkCounters,
        initial: list[Cluster] | None = None,
    ) -> Iterator[Cluster]:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if len(self.store) == 0:
            raise ConfigurationError(
                "cannot filter an empty record store: no clusters exist"
            )
        self.prepare()
        self._pool_baseline = sum(p.hashes_computed for p in self._pools)
        self.obs.reset_rounds()
        self._level_of = np.zeros(len(self.store), dtype=np.int64)
        if initial is None:
            first_clusters = self._apply_function(1, self.store.rids, counters)
        else:
            first_clusters = initial
            for cluster in initial:
                if cluster.source != SOURCE_PAIRWISE:
                    self._level_of[cluster.rids] = int(cluster.source)
        if self.selection == "largest":
            yield from self._loop_largest_first(first_clusters, k, counters)
        else:
            yield from self._loop_generic(first_clusters, k, counters)
        counters.records_per_level = self._level_histogram()

    def _level_histogram(self) -> dict[int, int]:
        values, counts = np.unique(self._level_of, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def _apply_function(
        self, level: int, rids: IntArray, counters: WorkCounters
    ) -> list[Cluster]:
        """Apply ``H_level`` on ``rids`` and wrap the output clusters."""
        fn = self._functions[level - 1]
        self._level_of[rids] = level
        parts = fn.apply(rids, counters)
        return [Cluster(part, level) for part in parts]

    def _apply_pairwise(self, rids: IntArray, counters: WorkCounters) -> list[Cluster]:
        parts = self._pairwise.apply(rids, counters)
        return [Cluster(part, SOURCE_PAIRWISE) for part in parts]

    def _estimate_density(
        self, rids: IntArray, level: int, counters: WorkCounters
    ) -> float:
        """Sampled match density of a cluster (Appendix D.2 lookahead).

        Draws up to ``lookahead_samples`` random record pairs and
        returns the fraction that match; sampled comparisons are
        charged to the work counters like any pairwise work.  The
        sample is seeded from the cluster itself (level, size, smallest
        rid), so the decision does not depend on the queries before it.
        """
        m = rids.size
        samples = min(self._lookahead_samples, m * (m - 1) // 2)
        if samples <= 0:
            return 1.0
        rng = keyed_rng(self._lookahead_seed, level, m, int(rids.min()))
        left = rids[rng.integers(0, m, size=samples)]
        right = rids[rng.integers(0, m, size=samples)]
        distinct = left != right
        if not distinct.any():
            return 1.0
        sampled_a = left[distinct]
        sampled_b = right[distinct]
        total = int(distinct.sum())
        # A disabled memo reads every pair as unknown and records none.
        keys = pack_pair_keys(sampled_a, sampled_b)
        verdicts = self._pair_memo.lookup(keys)
        unknown = np.nonzero(verdicts == UNKNOWN)[0]
        if unknown.size:
            fresh = self.rule.match_pairs(
                self.store, sampled_a[unknown], sampled_b[unknown]
            )
            self._pair_memo.record(keys[unknown], fresh)
            verdicts[unknown] = np.where(fresh, MATCH, NO_MATCH)
        counters.pairs_compared += int(unknown.size)
        return int(np.count_nonzero(verdicts == MATCH)) / total

    def _lookahead_says_jump(
        self, level: int, cluster: Cluster, counters: WorkCounters
    ) -> bool:
        """Appendix D.2: jump straight to P on a cluster that likely
        will not split — for a dense cluster the ladder ends at H_L (or
        a later Line-5 jump) anyway, so P now wins whenever it is
        cheaper than the *whole remaining* ladder."""
        if cluster.size < 8:
            return False
        remaining_ladder = (
            self.cost_model.cost_level(self.last_level)
            - self.cost_model.cost_level(level)
        ) * cluster.size
        if self.cost_model.pairwise_cost(cluster.size) >= remaining_ladder:
            return False
        return (
            self._estimate_density(cluster.rids, level, counters)
            >= self._lookahead_density
        )

    def _process(self, cluster: Cluster, counters: WorkCounters) -> list[Cluster]:
        """One round's work on a selected non-final cluster."""
        level = int(cluster.source)
        # Line 5: jump to P when the marginal hashing cost of upgrading
        # the whole cluster exceeds the estimated full pairwise cost —
        # or when the sequence is exhausted.
        jump = level >= self.last_level or self.cost_model.should_jump_to_pairwise(
            level, cluster.size
        )
        if not jump and self.jump_policy == "lookahead":
            jump = self._lookahead_says_jump(level, cluster, counters)
        obs = self.obs
        if not obs.enabled:
            # Uninstrumented fast path: no timing, no event objects.
            if jump:
                return self._apply_pairwise(cluster.rids, counters)
            return self._apply_function(level + 1, cluster.rids, counters)
        action = "P" if jump else f"H{level + 1}"
        predicted = self.cost_model.predicted_action_cost(level, cluster.size, jump)
        with obs.span("round", n=counters.rounds, action=action, size=cluster.size):
            started = monotonic()
            if jump:
                out = self._apply_pairwise(cluster.rids, counters)
            else:
                out = self._apply_function(level + 1, cluster.rids, counters)
            elapsed = monotonic() - started
        obs.record_round(
            RoundEvent(
                round=counters.rounds,
                action=action,
                size=cluster.size,
                from_level=level,
                subclusters=len(out),
                largest_out=max(c.size for c in out),
                wall_time=elapsed,
                predicted_cost=predicted,
                jump=jump,
            )
        )
        obs.histogram(
            "round.pairwise_seconds" if jump else "round.hash_seconds"
        ).observe(elapsed)
        return out

    # ------------------------------------------------------------------
    def _loop_largest_first(
        self, clusters: list[Cluster], k: int, counters: WorkCounters
    ) -> Iterator[Cluster]:
        """Optimized Largest-First loop (Appendix B.4/B.5 structures)."""
        bins: BinIndex[Cluster] = BinIndex()
        for cluster in clusters:
            bins.add(cluster, cluster.size)
        emitted = 0
        while bins and emitted < k:
            _size, cluster = bins.pop_largest()
            if cluster.is_final(self.last_level):
                # B.5: the largest remaining cluster is final, hence it
                # is the next of the top-k overall.
                emitted += 1
                yield cluster
                continue
            counters.rounds += 1
            for sub in self._process(cluster, counters):
                bins.add(sub, sub.size)
        if emitted < k:
            raise ResolvableExceededError(k, emitted)

    def _loop_generic(
        self, clusters: list[Cluster], k: int, counters: WorkCounters
    ) -> Iterator[Cluster]:
        """Reference loop for alternative selection strategies.

        Uses the paper's Line 11 termination directly: stop when the
        ``k`` largest clusters overall are all final.
        """
        pool = list(clusters)
        while True:
            pool.sort(key=lambda c: c.size, reverse=True)
            top = pool[:k]
            if all(c.is_final(self.last_level) for c in top):
                if len(top) < k:
                    raise ResolvableExceededError(k, len(top))
                yield from top
                return
            candidates = [
                i for i, c in enumerate(pool) if not c.is_final(self.last_level)
            ]
            if self.selection == "smallest":
                pick = candidates[-1]
            elif self.selection == "random":
                pick = candidates[int(self._rng.integers(len(candidates)))]
            elif self.selection == "largest-unoptimized":
                # Same rule as "largest" but through this reference loop;
                # used by tests to cross-check the BinIndex fast path.
                pick = candidates[0]
            else:  # pragma: no cover - guarded in __init__
                raise AssertionError(self.selection)
            cluster = pool.pop(pick)
            counters.rounds += 1
            pool.extend(self._process(cluster, counters))


def adaptive_filter(
    store: RecordStore,
    rule: MatchRule,
    k: int,
    config: AdaptiveConfig | None = None,
    observer: RunObserver | None = None,
) -> FilterResult:
    """One-shot convenience wrapper around :class:`AdaptiveLSH`."""
    with AdaptiveLSH(store, rule, config=config, observer=observer) as method:
        return method.run(k)
