"""The persistent execution pool and the ``n_jobs`` resolution funnel.

One :class:`ExecutionPool` is bound to one
:class:`~repro.records.RecordStore` and serves both hot paths:
signature batches (through :class:`~repro.lsh.families.SignaturePool`)
and blocked pairwise matching (through
:class:`~repro.core.pairwise_fn.PairwiseComputation`).  The underlying
:class:`~concurrent.futures.ProcessPoolExecutor` is created lazily on
the first dispatch that clears the size thresholds, so serial-sized
workloads never pay for a fork.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import itertools
import multiprocessing
import os
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import ConfigurationError
from ..types import AnyArray, IntArray
from . import worker
from .partition import chunk_spans
from .sharing import payload_from_store

if TYPE_CHECKING:
    from ..distance.rules import MatchRule
    from ..lsh.families import HashFamily
    from ..obs.observer import RunObserver
    from ..records import RecordStore

#: Environment variable consulted when ``n_jobs`` is not given
#: explicitly; the CLI's ``--n-jobs`` flag sets it so the knob reaches
#: every component without threading a parameter through each call.
N_JOBS_ENV = "REPRO_N_JOBS"

#: Minimum ``rows * new_columns`` of a signature batch before it is
#: fanned out; below this the per-task pickling overhead dominates.
MIN_SIGNATURE_WORK = 16_384
#: Minimum records per signature chunk (and per-chunk lower bound used
#: by the deterministic partitioner).
MIN_SIGNATURE_ROWS = 64
#: Minimum input size before blocked pairwise matching is fanned out.
#: Must span at least two row-blocks or there is nothing to overlap.
MIN_PAIRWISE_ROWS = 1024

_token_counter = itertools.count(1)


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Resolve an ``n_jobs`` knob to a concrete worker count.

    ``None`` falls back to the ``REPRO_N_JOBS`` environment variable,
    and to ``1`` (serial) when that is unset.  Negative values count
    from the CPU pool, joblib-style: ``-1`` means all CPUs, ``-2`` all
    but one, and so on.  ``0`` is rejected.
    """
    if n_jobs is None:
        raw = os.environ.get(N_JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            n_jobs = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{N_JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    n_jobs = int(n_jobs)
    if n_jobs < 0:
        n_jobs = max(1, (os.cpu_count() or 1) + 1 + n_jobs)
    if n_jobs == 0:
        raise ConfigurationError("n_jobs must be a non-zero integer")
    return n_jobs


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform.

    Fork workers inherit the parent address space (stores shared
    copy-on-write); spawn platforms ship a
    :class:`~repro.parallel.sharing.StorePayload` instead.  The serve
    layer's shard processes make the same choice through this predicate.
    """
    return "fork" in multiprocessing.get_all_start_methods()


#: Backward-compatible private alias (pre-serve-layer name).
_fork_available = fork_available


class ExecutionPool:
    """Persistent worker pool bound to one record store.

    Parameters
    ----------
    store:
        The store all dispatched tasks read from.
    n_jobs:
        Worker count; resolved through :func:`resolve_n_jobs`.  A pool
        resolved to 1 is permanently serial: every ``compute_*`` method
        returns ``None`` (meaning "caller does it in-process") and no
        processes are ever started.
    observer:
        Optional :class:`~repro.obs.observer.RunObserver`; when set and
        enabled, dispatches feed ``parallel.*`` counters/histograms.
    """

    def __init__(
        self,
        store: RecordStore,
        n_jobs: int | None = None,
        observer: RunObserver | None = None,
        min_signature_work: int = MIN_SIGNATURE_WORK,
        min_signature_rows: int = MIN_SIGNATURE_ROWS,
        min_pairwise_rows: int = MIN_PAIRWISE_ROWS,
    ) -> None:
        self.store = store
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.observer = observer
        self.min_signature_work = int(min_signature_work)
        self.min_signature_rows = int(min_signature_rows)
        self.min_pairwise_rows = int(min_pairwise_rows)
        self._store_token = next(_token_counter)
        self._executor: concurrent.futures.ProcessPoolExecutor | None = None
        self._family_tokens: dict[int, int] = {}
        self._family_refs: list[HashFamily] = []
        #: Work counters surfaced through :meth:`stats` / ``RunReport``.
        self.tasks_dispatched = 0
        self.parallel_calls = 0
        self.serial_calls = 0
        self.worker_seconds = 0.0
        if self.n_jobs > 1 and _fork_available():
            worker.register_parent_store(self._store_token, store)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def serial(self) -> bool:
        """True when this pool never dispatches to worker processes."""
        return self.n_jobs <= 1

    def _ensure_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._executor is None:
            if _fork_available():
                # Fork workers inherit the parent's address space: the
                # store and families registered before this point are
                # shared copy-on-write, no serialization at all.
                ctx = multiprocessing.get_context("fork")
                initargs: tuple[int, Any] = (self._store_token, None)
            else:
                ctx = multiprocessing.get_context()
                initargs = (self._store_token, payload_from_store(self.store))
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.n_jobs,
                mp_context=ctx,
                initializer=worker.init_worker,
                initargs=initargs,
            )
            # A live executor at interpreter exit races the stdlib's
            # own threading-shutdown hook (_python_exit wakes a pipe
            # the manager thread is concurrently closing -> spurious
            # "Bad file descriptor" noise on stderr).  Regular atexit
            # callbacks run before that hook, so closing here is
            # always clean; an explicit close() unregisters.
            atexit.register(self.close)
        return self._executor

    def close(self, wait: bool = True) -> None:
        """Shut the worker processes down and drop registry entries."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None
            atexit.unregister(self.close)
        worker.forget_parent(
            self._store_token, list(self._family_tokens.values())
        )
        self._family_tokens.clear()
        self._family_refs.clear()

    def __enter__(self) -> ExecutionPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close(wait=False)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # family registration
    # ------------------------------------------------------------------
    def register_family(self, family: HashFamily) -> None:
        """Pre-register a hash family so fork-started workers inherit it
        (zero rebuild cost).  Registration after the pool has forked is
        harmless — workers then rebuild from the task payload instead.
        """
        self._family_token(family)

    def _family_token(self, family: HashFamily) -> int:
        key = id(family)
        token = self._family_tokens.get(key)
        if token is None:
            token = next(_token_counter)
            self._family_tokens[key] = token
            # Strong reference keeps id(family) stable for the pool's life.
            self._family_refs.append(family)
            if self._executor is None and not self.serial and _fork_available():
                worker.register_parent_family(token, family)
        return token

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def compute_signatures(
        self, family: HashFamily, rids: IntArray, start: int, stop: int
    ) -> AnyArray | None:
        """Hash columns ``[start, stop)`` of ``rids``, fanned across
        workers; ``None`` means the batch is below the parallel
        threshold (or the family has no payload) and the caller should
        compute in-process.

        Rows are partitioned into deterministic contiguous chunks and
        the chunk results stacked in span order, which — by the
        columnar row-independence of ``HashFamily.compute`` — equals
        the serial result exactly.
        """
        rows = int(rids.size)
        cols = stop - start
        if (
            self.serial
            or rows < 2 * self.min_signature_rows
            or rows * cols < self.min_signature_work
        ):
            self.serial_calls += 1
            return None
        spec = family.parallel_payload(stop)
        if spec is None:
            self.serial_calls += 1
            return None
        spans = chunk_spans(rows, self.n_jobs, max(1, self.min_signature_rows))
        if len(spans) < 2:
            self.serial_calls += 1
            return None
        token = self._family_token(family)
        executor = self._ensure_executor()
        futures = [
            executor.submit(
                worker.signature_task, token, spec, rids[lo:hi], start, stop
            )
            for lo, hi in spans
        ]
        parts: list[AnyArray] = []
        seconds = 0.0
        for future in futures:
            values, task_seconds = future.result()
            parts.append(values)
            seconds += task_seconds
        self._account(len(futures), seconds)
        return np.vstack(parts)

    def pairwise_block_edges(
        self,
        rule: MatchRule,
        rids: IntArray,
        block_size: int,
    ) -> list[tuple[int, IntArray, IntArray, IntArray, IntArray]] | None:
        """Match every row-block of ``rids`` against itself and all
        earlier rows, fanned across workers.

        Returns ``[(block_start, intra_i, intra_j, cross_i, cross_j),
        ...]`` in ascending block order — each edge list in the serial
        ``np.nonzero`` enumeration order — so the caller can replay
        unions exactly as the serial blocked strategy would.  ``None``
        means below threshold; caller should run serially.
        """
        m = int(rids.size)
        if self.serial or m < self.min_pairwise_rows or m <= block_size:
            self.serial_calls += 1
            return None
        executor = self._ensure_executor()
        futures = []
        for block_start in range(0, m, block_size):
            block = rids[block_start : block_start + block_size]
            earlier = rids[:block_start]
            futures.append(
                (
                    block_start,
                    executor.submit(
                        worker.pairwise_block_task, rule, block, earlier
                    ),
                )
            )
        bundles: list[tuple[int, IntArray, IntArray, IntArray, IntArray]] = []
        seconds = 0.0
        for block_start, future in futures:
            intra_i, intra_j, cross_i, cross_j, task_seconds = future.result()
            seconds += task_seconds
            bundles.append((block_start, intra_i, intra_j, cross_i, cross_j))
        self._account(len(futures), seconds)
        return bundles

    def pairwise_job_edges(
        self,
        rule: MatchRule,
        jobs: list[tuple[IntArray, list[tuple[IntArray, IntArray]]]],
        total_rows: int,
        block_size: int,
    ) -> (
        list[tuple[IntArray, IntArray, list[tuple[IntArray, IntArray]]]] | None
    ):
        """Evaluate per-block non-memoized jobs across workers.

        ``jobs`` holds one ``(pair_rids, rects)`` memo-mask bundle per
        row-block, in ascending block order (the parent's pair-verdict
        memo plan; see
        :func:`~repro.parallel.worker.evaluate_block_jobs`).  The
        result carries one job-local edge bundle per block, in the same
        order.  ``None`` means below the same thresholds as
        :meth:`pairwise_block_edges`; caller evaluates in-process.
        """
        if (
            self.serial
            or total_rows < self.min_pairwise_rows
            or total_rows <= block_size
        ):
            self.serial_calls += 1
            return None
        executor = self._ensure_executor()
        futures = [
            executor.submit(worker.pairwise_jobs_task, rule, pair_rids, rects)
            for pair_rids, rects in jobs
        ]
        bundles: list[
            tuple[IntArray, IntArray, list[tuple[IntArray, IntArray]]]
        ] = []
        seconds = 0.0
        for future in futures:
            pair_i, pair_j, rect_edges, task_seconds = future.result()
            seconds += task_seconds
            bundles.append((pair_i, pair_j, rect_edges))
        self._account(len(futures), seconds)
        return bundles

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _account(self, n_tasks: int, seconds: float) -> None:
        self.parallel_calls += 1
        self.tasks_dispatched += n_tasks
        self.worker_seconds += seconds
        obs = self.observer
        if obs is not None and obs.enabled:
            obs.counter("parallel.tasks_dispatched").inc(n_tasks)
            obs.counter("parallel.calls").inc()
            obs.histogram("parallel.worker_seconds").observe(seconds)

    def stats(self) -> dict[str, Any]:
        """Pool work summary for run reports."""
        return {
            "n_jobs": int(self.n_jobs),
            "tasks_dispatched": int(self.tasks_dispatched),
            "parallel_calls": int(self.parallel_calls),
            "serial_calls": int(self.serial_calls),
            "worker_seconds": float(self.worker_seconds),
        }
