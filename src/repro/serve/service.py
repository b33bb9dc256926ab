"""The sharded asynchronous resolver service.

:class:`ResolverService` is the layer that turns the reproduction into
a system: an :mod:`asyncio` HTTP front-end (plain ``asyncio.
start_server`` — no new dependencies) routing ``top_k`` /
``batch_top_k`` / ``insert_records`` requests to a pool of shard
workers, each holding one :class:`~repro.serve.ResolverSession` over a
contiguous record range of the store.

The serving path adds three production behaviours on top of the
sessions:

* **request batching** — same-``k`` queries arriving within
  ``batch_window_ms`` coalesce into one shard broadcast (responses are
  deterministic per ``(k, generation)``, so every waiter receives the
  identical payload);
* **admission control** — a bounded in-flight budget; excess query
  load is shed with a 429 response carrying ``Retry-After`` instead of
  queueing without bound;
* **write rollover** — ``insert_records`` buffers rows; once
  ``rollover_records`` accumulate, a background task re-shards the
  extended store into a new *generation* of workers and swaps it in
  atomically.  The old generation keeps serving until the new one is
  warm, then drains and stops.

Bit-identity contract: every shard replica — worker process, inline
thread, or the in-process :class:`ShardOracle` — derives its session
from the same ``(ServiceConfig, generation, shard_index)`` triple and
routes queries through :func:`~repro.serve.sharding.clamped_top_k` +
:func:`~repro.serve.sharding.merge_shard_top_k`, so a served response
that differs from the oracle is a serving-layer bug.  The load harness
(:mod:`repro.serve.loadgen`) gates on exactly this.

Wire protocol (``docs/SERVING.md`` has the full table)::

    GET  /healthz                          -> {"status": "ok", ...}
    GET  /stats                            -> serving counters
    POST /top_k          {"k": 5}          -> {"k", "clusters", ...}
    POST /batch_top_k    {"ks": [5, 10]}   -> {"results": [...]}
    POST /insert_records {"columns": ...}  -> {"accepted", "pending", ...}
    POST /rollover       {}                -> {"rolled": bool, ...}
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import multiprocessing
import queue
import threading
import traceback
from typing import TYPE_CHECKING, Any

from ..core.config import AdaptiveConfig
from ..errors import ConfigurationError, ReproError, SchemaError, ServiceError
from ..io import rule_from_spec, rule_to_spec
from ..obs import RunObserver
from ..obs.clock import monotonic
from ..obs.report import RunReport
from ..parallel.sharing import (
    DiskStoreRef,
    StorePayload,
    fork_available,
    payload_from_store,
    ref_from_store,
    resolve_store_arg,
)
from ..records import RecordStore
from .config import ServiceConfig
from .session import ResolverSession
from .sharding import clamped_top_k, merge_shard_top_k, shard_response, shard_spans

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from ..distance.rules import MatchRule

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


# ----------------------------------------------------------------------
# Shard servers: one session over one record range, op-dict protocol.
# ----------------------------------------------------------------------
class _ShardServer:
    """Owns one shard's :class:`ResolverSession` and answers op dicts.

    Shared by every backend (worker process, inline thread, oracle), so
    the clamp/translate logic cannot drift between them.
    """

    def __init__(
        self,
        store: RecordStore,
        rule: MatchRule,
        adaptive: AdaptiveConfig,
        offset: int,
        warm_k: int,
    ) -> None:
        self.offset = int(offset)
        self.warm_k = int(warm_k)
        self.session = ResolverSession(store, rule, config=adaptive)

    def warm(self) -> dict[str, Any]:
        """Prepare the session (and optionally pre-run one query)."""
        if self.warm_k > 0:
            clamped_top_k(self.session, self.warm_k)
        else:
            self.session.method.prepare()
        return {"ready": True, "n_records": len(self.session.store)}

    def handle(self, op: dict[str, Any]) -> dict[str, Any]:
        kind = op.get("op")
        if kind == "ping":
            return {"ok": True}
        if kind == "warm":
            return self.warm()
        if kind == "top_k":
            result, effective = clamped_top_k(self.session, int(op["k"]))
            return shard_response(result, effective, self.offset)
        if kind == "stats":
            return dict(self.session.serving_stats())
        raise ServiceError(f"unknown shard op {kind!r}")

    def close(self) -> None:
        self.session.close()


def _build_shard_server(
    store: RecordStore | StorePayload | DiskStoreRef,
    rule_spec: dict[str, Any],
    adaptive_portable: dict[str, Any],
    seed: int,
    offset: int,
    warm_k: int,
) -> _ShardServer:
    """Rebuild a :class:`_ShardServer` from picklable parts (the worker
    process entry path; inline backends call it with live objects).

    The store arrives in whichever transferable shape the parent chose:
    a live :class:`RecordStore` (inline / fork copy-on-write), a
    :class:`StorePayload` of pickled columns (spawn fallback), or a
    :class:`DiskStoreRef` the worker resolves by memory-mapping the
    layout itself — zero column bytes on the pipe.
    """
    store = resolve_store_arg(store)
    adaptive = AdaptiveConfig.from_dict(
        adaptive_portable, cost_model="analytic", seed=seed
    )
    return _ShardServer(
        store, rule_from_spec(rule_spec), adaptive, offset, warm_k
    )


def _shard_process_main(
    conn: Connection,
    store: RecordStore | StorePayload | DiskStoreRef,
    rule_spec: dict[str, Any],
    adaptive_portable: dict[str, Any],
    seed: int,
    offset: int,
    warm_k: int,
) -> None:
    """Worker-process loop: build the shard server, answer ops until
    ``stop``.  Errors travel back as ``("error", traceback)`` tuples so
    the parent can re-raise without killing the worker."""
    try:
        server = _build_shard_server(
            store, rule_spec, adaptive_portable, seed, offset, warm_k
        )
    except BaseException:
        conn.send(("fatal", traceback.format_exc()))
        conn.close()
        return
    conn.send(("ok", {"built": True}))
    while True:
        try:
            op = conn.recv()
        except (EOFError, OSError):
            break
        if not isinstance(op, dict) or op.get("op") == "stop":
            conn.send(("ok", {"stopped": True}))
            break
        try:
            conn.send(("ok", server.handle(op)))
        except BaseException:
            conn.send(("error", traceback.format_exc()))
    server.close()
    conn.close()


class _InlineBackend:
    """Shard backend running the session inside the serving process."""

    def __init__(self, builder_args: tuple[Any, ...]) -> None:
        self._args = builder_args
        self._server: _ShardServer | None = None

    def start(self) -> None:
        self._server = _build_shard_server(*self._args)

    def request(self, op: dict[str, Any]) -> dict[str, Any]:
        if self._server is None:
            raise ServiceError("shard backend not started")
        return self._server.handle(op)

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None


class _ProcessBackend:
    """Shard backend running the session in a dedicated worker process.

    Fork platforms pass the shard store by inheritance (copy-on-write,
    no serialization); spawn platforms ship a
    :class:`~repro.parallel.sharing.StorePayload`.
    """

    def __init__(self, builder_args: tuple[Any, ...]) -> None:
        self._args = builder_args
        self._conn: Connection | None = None
        self._proc: multiprocessing.process.BaseProcess | None = None

    def start(self) -> None:
        if fork_available():
            ctx = multiprocessing.get_context("fork")
            args = self._args
        else:  # pragma: no cover - spawn platforms
            ctx = multiprocessing.get_context()
            store = self._args[0]
            if isinstance(store, RecordStore):
                # Disk-backed stores travel as a ref (no column bytes);
                # purely in-memory ones must be pickled as a payload.
                ref = ref_from_store(store)
                shipped = ref if ref is not None else payload_from_store(store)
                args = (shipped,) + self._args[1:]
            else:
                args = self._args
        parent_conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_process_main,
            args=(child_conn,) + args,
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        self._conn = parent_conn
        status, payload = parent_conn.recv()
        if status != "ok":
            raise ServiceError(f"shard worker failed to build:\n{payload}")

    def request(self, op: dict[str, Any]) -> dict[str, Any]:
        if self._conn is None:
            raise ServiceError("shard backend not started")
        try:
            self._conn.send(op)
            status, payload = self._conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise ServiceError(f"shard worker died: {exc}") from exc
        if status != "ok":
            raise ServiceError(f"shard worker error:\n{payload}")
        out: dict[str, Any] = payload
        return out

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send({"op": "stop"})
                self._conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                pass
            self._conn.close()
            self._conn = None
        if self._proc is not None:
            self._proc.join(timeout=10)
            if self._proc.is_alive():  # pragma: no cover - hung worker
                self._proc.terminate()
                self._proc.join(timeout=5)
            self._proc = None


_STOP = object()


class _ShardHandle:
    """Thread-bridged handle over one shard backend.

    Each handle owns a dispatcher thread draining a FIFO of
    ``(op, Future)`` pairs, so a shard processes one request at a time
    (a session is single-threaded state) while the asyncio front-end
    awaits many shards concurrently via ``asyncio.wrap_future``.
    """

    def __init__(self, backend: _InlineBackend | _ProcessBackend, name: str) -> None:
        self._backend = backend
        self._queue: queue.Queue[Any] = queue.Queue()
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._started = False

    def start(self) -> None:
        self._thread.start()
        self._started = True

    def _run(self) -> None:
        start_error: BaseException | None = None
        try:
            self._backend.start()
        except BaseException as exc:  # surfaced via every queued future
            start_error = exc
        while True:
            item = self._queue.get()
            if item is _STOP:
                break
            op, fut = item
            if not fut.set_running_or_notify_cancel():
                continue
            if start_error is not None:
                fut.set_exception(start_error)
                continue
            try:
                fut.set_result(self._backend.request(op))
            except BaseException as exc:
                fut.set_exception(exc)
        self._backend.close()

    def submit(
        self, op: dict[str, Any]
    ) -> concurrent.futures.Future[dict[str, Any]]:
        """Enqueue one op; returns a ``concurrent.futures.Future``."""
        fut: concurrent.futures.Future[dict[str, Any]] = (
            concurrent.futures.Future()
        )
        self._queue.put((op, fut))
        return fut

    def close(self) -> None:
        """Drain queued work, stop the backend, join the thread."""
        if not self._started:
            self._backend.close()
            return
        self._queue.put(_STOP)
        self._thread.join(timeout=60)


# ----------------------------------------------------------------------
# Oracle: the bit-identity reference for served responses.
# ----------------------------------------------------------------------
class ShardOracle:
    """Direct in-process replica of one service generation.

    Builds the same per-shard sessions from the same
    ``(ServiceConfig, generation, shard_index)`` seeds and merges
    through the same pure functions — but bypasses HTTP, batching,
    admission control, and worker processes entirely.  A served
    ``top_k`` response must match :meth:`top_k` bit-for-bit on the
    ``clusters`` payload; the load harness gates on this.
    """

    def __init__(
        self,
        store: RecordStore,
        rule: MatchRule,
        config: ServiceConfig,
        generation: int,
    ) -> None:
        self.generation = int(generation)
        self.spans = shard_spans(len(store), config.n_shards)
        self._servers = [
            _ShardServer(
                store.slice_view(lo, hi),
                rule,
                config.shard_adaptive(generation, i),
                offset=lo,
                warm_k=0,
            )
            for i, (lo, hi) in enumerate(self.spans)
        ]

    def top_k(self, k: int) -> dict[str, Any]:
        """The merged top-``k`` response this generation must serve."""
        results = [
            server.handle({"op": "top_k", "k": int(k)})
            for server in self._servers
        ]
        merged = merge_shard_top_k(results, int(k))
        merged["k"] = int(k)
        merged["generation"] = self.generation
        return merged

    def close(self) -> None:
        for server in self._servers:
            server.close()

    def __enter__(self) -> ShardOracle:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# The service.
# ----------------------------------------------------------------------
class ResolverService:
    """Sharded async top-k resolver over one store and one match rule.

    Parameters
    ----------
    store, rule:
        The dataset to serve and its match rule.
    config:
        :class:`~repro.serve.ServiceConfig`; defaults are smoke-scale.
    observer:
        Optional :class:`~repro.obs.RunObserver`.  The service always
        keeps its own enabled observer for ``/stats`` and
        :meth:`run_report`; passing one here shares yours instead.
    """

    def __init__(
        self,
        store: RecordStore,
        rule: MatchRule,
        config: ServiceConfig | None = None,
        observer: RunObserver | None = None,
    ) -> None:
        if len(store) == 0:
            raise ConfigurationError("cannot serve an empty store")
        self.rule = rule
        self.config = config if config is not None else ServiceConfig()
        self.obs = observer if observer is not None else RunObserver()
        #: Bound port after :meth:`start` (== config.port unless 0).
        self.port: int | None = None
        self._started_at: float | None = None
        #: (generation, handles) swapped atomically on rollover.
        self._current: tuple[int, list[_ShardHandle]] = (0, [])
        #: generation -> full store of that generation.
        self._generations: dict[int, RecordStore] = {0: store}
        self._server: asyncio.AbstractServer | None = None
        self._pending_stores: list[RecordStore] = []
        self._pending_records = 0
        self._rollover_task: asyncio.Task[None] | None = None
        self._batches: dict[tuple[int, int], asyncio.Future[dict[str, Any]]] = {}
        self._inflight = 0
        self._counts = {
            "requests": 0,
            "queries": 0,
            "inserts": 0,
            "shed": 0,
            "errors": 0,
            "batches": 0,
            "coalesced": 0,
            "rollovers": 0,
            "store_pickle_bytes": 0,
        }
        self._spool_seq = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The generation currently serving reads."""
        return self._current[0]

    def current_store(self) -> RecordStore:
        """The store backing the serving generation (extensions land
        only after their rollover completes)."""
        return self._generations[self.generation]

    async def start(self) -> None:
        """Build + warm generation 0 and start accepting connections."""
        if self._server is not None:
            raise ServiceError("service already started")
        with self.obs.span("service.start", n_shards=self.config.n_shards):
            if (
                self.config.spool_dir is not None
                and self._generations[0].backing is None
            ):
                self._generations[0] = await asyncio.to_thread(
                    self._spool_store, self._generations[0], 0
                )
            handles = await asyncio.to_thread(
                self._start_generation, self._generations[0], 0
            )
            self._current = (0, handles)
            self._server = await asyncio.start_server(
                self._handle_conn, host=self.config.host, port=self.config.port
            )
        sockets = self._server.sockets
        self.port = int(sockets[0].getsockname()[1]) if sockets else None
        self._started_at = monotonic()

    async def stop(self) -> None:
        """Stop accepting connections, then drain and stop every shard."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        task = self._rollover_task
        if task is not None and not task.done():
            await task
        _gen, handles = self._current
        await asyncio.to_thread(self._close_handles, handles)
        self._current = (self.generation, [])

    async def __aenter__(self) -> ResolverService:
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    def _start_generation(
        self, store: RecordStore, generation: int
    ) -> list[_ShardHandle]:
        """Build, start, and warm one generation's shard handles.

        Runs in a worker thread (``asyncio.to_thread``): starting a
        process and cold-preparing a session both block.  Shards warm
        concurrently — each handle's dispatcher thread (or worker
        process) prepares its own session.
        """
        spans = shard_spans(len(store), self.config.n_shards)
        handles: list[_ShardHandle] = []
        for i, (lo, hi) in enumerate(spans):
            # Zero-copy window; with an on-disk backing it also carries
            # the (path, version, lo, hi) needed to ship a ref.
            shard_store = store.slice_view(lo, hi)
            shipped: RecordStore | StorePayload | DiskStoreRef = shard_store
            if self.config.workers == "process":
                ref = ref_from_store(shard_store)
                if ref is not None:
                    # Disk-backed: the worker mmaps the layout itself.
                    shipped = ref
                elif not fork_available():  # pragma: no cover - spawn
                    payload = payload_from_store(shard_store)
                    self._count("store_pickle_bytes", payload.nbytes)
                    shipped = payload
                # fork: inherited copy-on-write, nothing serialized.
            builder_args = (
                shipped,
                rule_to_spec(self.rule),
                self.config.adaptive.to_dict(),
                self.config.shard_seed(generation, i),
                lo,
                self.config.warm_k,
            )
            backend: _InlineBackend | _ProcessBackend
            if self.config.workers == "process":
                backend = _ProcessBackend(builder_args)
            else:
                backend = _InlineBackend(builder_args)
            handle = _ShardHandle(backend, name=f"shard-g{generation}-{i}")
            handle.start()
            handles.append(handle)
        warm_futures = [h.submit({"op": "warm"}) for h in handles]
        try:
            for fut in warm_futures:
                fut.result()
        except BaseException:
            self._close_handles(handles)
            raise
        return handles

    @staticmethod
    def _close_handles(handles: list[_ShardHandle]) -> None:
        for handle in handles:
            handle.close()

    def _spool_store(self, store: RecordStore, generation: int) -> RecordStore:
        """Write an in-memory store to a service-owned layout under
        ``config.spool_dir`` and return the memory-mapped reopen."""
        import os

        from ..storage import StoreLayout

        assert self.config.spool_dir is not None
        os.makedirs(self.config.spool_dir, exist_ok=True)
        self._spool_seq += 1
        path = os.path.join(
            self.config.spool_dir,
            f"spool-{os.getpid()}-{id(self):x}-{self._spool_seq}.store",
        )
        return StoreLayout.write(store, path).open()

    def _extended_store(
        self, base: RecordStore, pending: list[RecordStore], generation: int
    ) -> RecordStore:
        """``base`` plus the buffered writes, as the next generation's
        store.

        When ``base`` is the full current view of an on-disk layout
        (and the layout carries no ground-truth labels column), the
        pending rows are *appended to the layout in place* and the
        result is a fresh mmap open — O(pending) I/O, zero copies of
        the existing rows, and old-generation shards keep serving their
        shorter prefix because layouts are append-only.  Anything else
        falls back to the in-memory concat (then spools the result when
        ``spool_dir`` is set, so the *next* rollover takes the fast
        path).
        """
        backing = base.backing
        if backing is not None and backing.lo == 0:
            from ..storage import StoreLayout

            layout = StoreLayout(backing.path)
            if (
                layout.store_version == backing.store_version
                and layout.n == backing.hi
                and not layout.header.get("with_labels")
            ):
                for chunk in pending:
                    layout.append(chunk)
                return layout.open()
        store = base
        for chunk in pending:
            store = store.concat(chunk)
        if self.config.spool_dir is not None:
            store = self._spool_store(store, generation)
        return store

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        self._counts[name] += n
        self.obs.counter(f"serve.{name}").inc(n)

    def stats(self) -> dict[str, Any]:
        """Serving counters + the latency histogram summary."""
        gen, handles = self._current
        latency = self.obs.metrics.histogram("serve.latency_ms")
        out: dict[str, Any] = dict(self._counts)
        out.update(
            {
                "generation": gen,
                "n_shards": len(handles),
                "n_records": len(self.current_store()),
                "workers": self.config.workers,
                "store_backed": self.current_store().backing is not None,
                "inflight": self._inflight,
                "pending_writes": self._pending_records,
                "latency_ms": latency.to_value()
                if hasattr(latency, "to_value")
                else {},
            }
        )
        if self._started_at is not None:
            out["uptime_s"] = monotonic() - self._started_at
        return out

    def run_report(self) -> RunReport:
        """The service lifetime as a :class:`RunReport` (``serving``
        section = :meth:`stats`; latency histograms under metrics)."""
        wall = (
            monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        report = self.obs.build_report(
            method="service:resolver", k=0, wall_time=wall
        )
        report.serving = self.stats()
        return report

    def build_oracle(self, generation: int | None = None) -> ShardOracle:
        """A :class:`ShardOracle` replica of one generation (default:
        the serving one)."""
        gen = self.generation if generation is None else int(generation)
        if gen not in self._generations:
            raise ServiceError(f"unknown generation {gen}")
        return ShardOracle(self._generations[gen], self.rule, self.config, gen)

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    async def top_k(self, k: int) -> dict[str, Any]:
        """The merged top-``k`` response (coalesced; no admission)."""
        response, _coalesced = await self._coalesced_top_k(int(k))
        return response

    async def _broadcast_top_k(self, k: int) -> dict[str, Any]:
        gen, handles = self._current
        if not handles:
            raise ServiceError("service is not serving")
        futures = [
            asyncio.wrap_future(handle.submit({"op": "top_k", "k": k}))
            for handle in handles
        ]
        shard_results = list(await asyncio.gather(*futures))
        merged = merge_shard_top_k(shard_results, k)
        merged["k"] = k
        merged["generation"] = gen
        return merged

    async def _coalesced_top_k(self, k: int) -> tuple[dict[str, Any], bool]:
        key = (k, self.generation)
        existing = self._batches.get(key)
        if existing is not None and not existing.done():
            self._count("coalesced")
            return await asyncio.shield(existing), True
        loop = asyncio.get_running_loop()
        fut: asyncio.Future[dict[str, Any]] = loop.create_future()
        self._batches[key] = fut
        self._count("batches")
        try:
            window = self.config.batch_window_ms / 1000.0
            if window > 0:
                await asyncio.sleep(window)
            result = await self._broadcast_top_k(k)
            fut.set_result(result)
            return result, False
        except BaseException as exc:
            fut.set_exception(exc)
            # Followers consume the exception; the leader re-raises it.
            await asyncio.sleep(0)
            if not fut.cancelled():
                fut.exception()
            raise
        finally:
            if self._batches.get(key) is fut:
                del self._batches[key]

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _buffer_insert(self, records: RecordStore) -> dict[str, Any]:
        self._pending_stores.append(records)
        self._pending_records += len(records)
        scheduled = self._maybe_schedule_rollover()
        return {
            "accepted": len(records),
            "pending": self._pending_records,
            "generation": self.generation,
            "rollover_scheduled": scheduled,
        }

    def _maybe_schedule_rollover(self, force: bool = False) -> bool:
        due = force or self._pending_records >= self.config.rollover_records
        if not due or self._pending_records == 0:
            return False
        if self._rollover_task is not None and not self._rollover_task.done():
            return True  # the running task loops until the buffer drains
        self._rollover_task = asyncio.get_running_loop().create_task(
            self._rollover_loop(force)
        )
        return True

    async def _rollover_loop(self, force: bool) -> None:
        """Re-shard buffered writes into new generations until the
        buffer is (sufficiently) drained.  One instance runs at a time."""
        while self._pending_records > 0 and (
            force or self._pending_records >= self.config.rollover_records
        ):
            force = False
            with self.obs.span("service.rollover"):
                pending = self._pending_stores
                self._pending_stores = []
                self._pending_records = 0
                gen, old_handles = self._current
                new_gen = gen + 1
                # Extend (layout append or concat fallback), then build
                # + warm the new generation — all off-loop; reads keep
                # hitting the old handles the whole time.
                new_store = await asyncio.to_thread(
                    self._extended_store,
                    self._generations[gen],
                    pending,
                    new_gen,
                )
                handles = await asyncio.to_thread(
                    self._start_generation, new_store, new_gen
                )
                self._generations[new_gen] = new_store
                self._current = (new_gen, handles)
                self._count("rollovers")
                # Old generation: drain queued work, then stop.
                await asyncio.to_thread(self._close_handles, old_handles)

    # ------------------------------------------------------------------
    # HTTP front-end
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await _read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                started = monotonic()
                status, payload, extra = await self._dispatch(
                    method, path, body
                )
                elapsed_ms = (monotonic() - started) * 1000.0
                self.obs.histogram("serve.latency_ms").observe(elapsed_ms)
                self.obs.histogram(f"serve.latency_ms.{path.lstrip('/')}")\
                    .observe(elapsed_ms)
                _write_response(writer, status, payload, extra)
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        self._count("requests")
        try:
            if method == "GET" and path == "/healthz":
                gen, handles = self._current
                return (
                    200,
                    {
                        "status": "ok",
                        "generation": gen,
                        "n_shards": len(handles),
                        "n_records": len(self.current_store()),
                    },
                    {},
                )
            if method == "GET" and path == "/stats":
                return 200, self.stats(), {}
            if method != "POST":
                return 405, {"error": f"{method} not allowed"}, {}
            if path in ("/top_k", "/batch_top_k"):
                return await self._dispatch_query(path, _parse_body(body))
            if path == "/insert_records":
                return self._dispatch_insert(_parse_body(body))
            if path == "/rollover":
                scheduled = self._maybe_schedule_rollover(force=True)
                return (
                    200,
                    {
                        "rolled": scheduled,
                        "pending": self._pending_records,
                        "generation": self.generation,
                    },
                    {},
                )
            return 404, {"error": f"unknown endpoint {path}"}, {}
        except (ServiceError, ReproError, ValueError, KeyError, TypeError) as exc:
            self._count("errors")
            return 400, {"error": f"{type(exc).__name__}: {exc}"}, {}
        except Exception as exc:  # pragma: no cover - defensive
            self._count("errors")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}

    async def _dispatch_query(
        self, path: str, payload: dict[str, Any]
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        if self._inflight >= self.config.max_inflight:
            self._count("shed")
            retry = self.config.shed_retry_after_s
            return (
                429,
                {"error": "overloaded", "retry_after_s": retry},
                {"Retry-After": f"{retry:.3f}"},
            )
        self._inflight += 1
        self._count("queries")
        try:
            if path == "/top_k":
                k = int(payload["k"])
                if k < 1:
                    raise ServiceError(f"k must be >= 1, got {k}")
                response, coalesced = await self._coalesced_top_k(k)
                out = dict(response)
                out["coalesced"] = coalesced
                return 200, out, {}
            ks = [int(k) for k in payload["ks"]]
            if not ks or any(k < 1 for k in ks):
                raise ServiceError(f"ks must be >= 1 values, got {ks}")
            # Largest-k first warms shard pools past what the shallower
            # queries need (same policy as ResolverSession.batch_top_k);
            # results return in the requested order.
            results: dict[int, dict[str, Any]] = {}
            for i in sorted(range(len(ks)), key=lambda i: -ks[i]):
                response, _ = await self._coalesced_top_k(ks[i])
                results[i] = response
            return 200, {"results": [results[i] for i in range(len(ks))]}, {}
        finally:
            self._inflight -= 1

    def _dispatch_insert(
        self, payload: dict[str, Any]
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        columns = payload.get("columns")
        if not isinstance(columns, dict):
            raise ServiceError('insert_records expects {"columns": {...}}')
        schema = self.current_store().schema
        try:
            records = RecordStore(schema, columns)
        except SchemaError as exc:
            raise ServiceError(f"bad insert payload: {exc}") from exc
        self._count("inserts")
        return 200, self._buffer_insert(records), {}


# ----------------------------------------------------------------------
# Minimal HTTP/1.1 plumbing (requests are tiny JSON bodies).
# ----------------------------------------------------------------------
def _parse_body(body: bytes) -> dict[str, Any]:
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ServiceError(f"request body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object")
    return payload


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """One HTTP/1.1 request as ``(method, path, headers, body)``;
    ``None`` on a cleanly closed connection."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ServiceError(f"malformed request line: {line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    body = await reader.readexactly(length) if length > 0 else b""
    path = target.split("?", 1)[0]
    return method.upper(), path, headers, body


def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict[str, Any],
    extra_headers: dict[str, str] | None = None,
) -> None:
    body = json.dumps(payload).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
