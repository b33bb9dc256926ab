"""Open-loop load harness for the sharded resolver service.

The driver pre-computes a deterministic request schedule — Poisson
arrivals at a target QPS, Zipf-skewed ``k`` choice, an optional write
fraction fed from held-out reserve records — then fires it **open
loop**: each request is launched at its scheduled arrival time whether
or not earlier requests have completed, and latency is measured from
the *scheduled* arrival, so queueing delay inside the service counts
against it (closed-loop harnesses hide exactly that).

The harness gates on three things and **never** on wall-clock latency
(CI machines are too noisy for latency gates):

* **error rate** — non-2xx/non-429 responses and transport failures;
* **shed rate** — 429 admission-control rejections;
* **response bit-identity** — every distinct ``(k, generation)``
  response observed during the run must equal the in-process
  :class:`~repro.serve.service.ShardOracle` answer for that
  generation, and repeated responses for the same key must agree with
  each other.

Latency percentiles, throughput, and per-op breakdowns are reported in
``BENCH_serve_load.json`` for trend tracking.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from ..errors import ConfigurationError, ServiceError
from ..obs.clock import monotonic
from ..records import FieldKind, RecordStore
from ..rngutil import make_rng
from .service import ResolverService

#: Schema version of the ``BENCH_serve_load.json`` payload.
BENCH_VERSION = 1


@dataclass(frozen=True)
class LoadProfile:
    """Shape of one load run, in one frozen value.

    Parameters
    ----------
    qps:
        Target offered load (requests per second, Poisson arrivals).
    duration_s:
        Length of the arrival schedule.
    k_values:
        The query depths in play; index 0 is the hottest key.
    zipf_s:
        Skew exponent: ``P(rank r) ∝ 1 / r**zipf_s`` over ``k_values``.
        0 gives a uniform mix.
    write_fraction:
        Fraction of arrivals that are ``insert_records`` writes, fed
        from the reserve store until it runs out (then they fall back
        to queries).
    write_chunk:
        Records per write request.
    seed:
        Schedule seed (arrivals, skew draws, write placement).
    timeout_s:
        Per-request client timeout; expiries count as errors.
    max_error_rate, max_shed_rate:
        Gate thresholds for the pass/fail verdict.
    """

    qps: float = 50.0
    duration_s: float = 5.0
    k_values: tuple[int, ...] = (2, 5, 10)
    zipf_s: float = 1.1
    write_fraction: float = 0.0
    write_chunk: int = 8
    seed: int = 0
    timeout_s: float = 30.0
    max_error_rate: float = 0.01
    max_shed_rate: float = 0.2

    def __post_init__(self) -> None:
        if self.qps <= 0:
            raise ConfigurationError(f"qps must be > 0, got {self.qps}")
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be > 0, got {self.duration_s}"
            )
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ConfigurationError(
                f"k_values must be >= 1 values, got {self.k_values!r}"
            )
        if not 0.0 <= self.write_fraction < 1.0:
            raise ConfigurationError(
                f"write_fraction must be in [0, 1), got {self.write_fraction}"
            )
        if self.write_chunk < 1:
            raise ConfigurationError(
                f"write_chunk must be >= 1, got {self.write_chunk}"
            )
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))

    def to_dict(self) -> dict[str, Any]:
        return {
            f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
            for f in fields(self)
        }


@dataclass
class _Op:
    """One scheduled request."""

    at: float
    kind: str  # "top_k" | "insert"
    k: int = 0
    chunk: int = -1
    # -- filled in after firing --
    status: int = 0
    latency_ms: float = 0.0
    error: str | None = None
    generation: int = -1
    coalesced: bool = False
    clusters: list[list[int]] | None = field(default=None, repr=False)


def build_schedule(profile: LoadProfile, n_write_chunks: int) -> list[_Op]:
    """The deterministic arrival schedule for one run.

    Pure function of ``(profile, n_write_chunks)``: Poisson arrival
    gaps, the write/query split, and the Zipf rank draws all come from
    one :func:`~repro.rngutil.make_rng` stream.  Writes beyond the
    available reserve chunks degrade to queries.
    """
    rng = make_rng(profile.seed)
    ranks = np.arange(1, len(profile.k_values) + 1, dtype=np.float64)
    weights = ranks ** -float(profile.zipf_s)
    weights /= weights.sum()
    ops: list[_Op] = []
    t = 0.0
    next_chunk = 0
    while True:
        t += float(rng.exponential(1.0 / profile.qps))
        if t >= profile.duration_s:
            break
        is_write = (
            profile.write_fraction > 0
            and float(rng.random()) < profile.write_fraction
        )
        rank = int(rng.choice(len(profile.k_values), p=weights))
        if is_write and next_chunk < n_write_chunks:
            ops.append(_Op(at=t, kind="insert", chunk=next_chunk))
            next_chunk += 1
        else:
            ops.append(_Op(at=t, kind="top_k", k=profile.k_values[rank]))
    return ops


def store_columns_payload(store: RecordStore, lo: int, hi: int) -> dict[str, Any]:
    """Rows ``[lo, hi)`` of a store as a JSON-ready ``columns`` mapping
    (the ``insert_records`` wire shape)."""
    columns: dict[str, Any] = {}
    for spec in store.schema:
        if spec.kind is FieldKind.VECTOR:
            columns[spec.name] = store.vectors(spec.name)[lo:hi].tolist()
        else:
            columns[spec.name] = [
                [int(x) for x in s] for s in store.shingle_sets(spec.name)[lo:hi]
            ]
    return columns


# ----------------------------------------------------------------------
# Minimal HTTP client (one short-lived connection per request).
# ----------------------------------------------------------------------
async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict[str, Any] | None = None,
    timeout: float = 30.0,
) -> tuple[int, dict[str, Any]]:
    """One JSON request/response against the service wire protocol.

    The response body is read by ``Content-Length``, never to EOF: a
    service rollover forks worker processes that inherit any open
    connection fds, so the server closing a socket does not guarantee
    the client an EOF while those workers live.
    """

    async def _go() -> tuple[int, dict[str, Any]]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            body = b"" if payload is None else json.dumps(payload).encode("utf-8")
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            status_line = (await reader.readline()).decode("latin-1").strip()
            parts = status_line.split()
            if len(parts) < 2 or not parts[1].isdigit():
                raise ServiceError(f"malformed response: {status_line!r}")
            headers: dict[str, str] = {}
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, _, value = raw.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            body_raw = await reader.readexactly(length) if length else b""
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
        data = json.loads(body_raw.decode("utf-8")) if body_raw else {}
        return int(parts[1]), data

    return await asyncio.wait_for(_go(), timeout)


async def _fire(
    host: str,
    port: int,
    start: float,
    op: _Op,
    write_payloads: list[dict[str, Any]],
    timeout: float,
) -> None:
    delay = start + op.at - monotonic()
    if delay > 0:
        await asyncio.sleep(delay)
    try:
        if op.kind == "insert":
            status, data = await http_request(
                host,
                port,
                "POST",
                "/insert_records",
                {"columns": write_payloads[op.chunk]},
                timeout,
            )
        else:
            status, data = await http_request(
                host, port, "POST", "/top_k", {"k": op.k}, timeout
            )
    except (OSError, asyncio.TimeoutError, ServiceError, ValueError) as exc:
        op.status = -1
        op.error = f"{type(exc).__name__}: {exc}"
        op.latency_ms = (monotonic() - (start + op.at)) * 1000.0
        return
    op.latency_ms = (monotonic() - (start + op.at)) * 1000.0
    op.status = status
    if status == 200 and op.kind == "top_k":
        op.generation = int(data.get("generation", -1))
        op.coalesced = bool(data.get("coalesced", False))
        op.clusters = data.get("clusters")
    elif status == 200 and op.kind == "insert":
        op.generation = int(data.get("generation", -1))
    elif status != 429:
        op.error = str(data.get("error", f"status {status}"))


async def run_schedule(
    host: str,
    port: int,
    schedule: list[_Op],
    write_payloads: list[dict[str, Any]],
    timeout: float,
) -> float:
    """Fire the schedule open loop; returns the elapsed wall time."""
    start = monotonic()
    await asyncio.gather(
        *(
            _fire(host, port, start, op, write_payloads, timeout)
            for op in schedule
        )
    )
    return monotonic() - start


# ----------------------------------------------------------------------
# Verification + summary.
# ----------------------------------------------------------------------
def verify_identity(
    service: ResolverService, schedule: list[_Op]
) -> dict[str, Any]:
    """Check served responses against the per-generation oracle.

    Two layers: (1) *consistency* — all 200 responses for the same
    ``(k, generation)`` must be identical (they are deterministic by
    contract); (2) *oracle identity* — each distinct key's response
    must equal :meth:`ShardOracle.top_k` for that generation.  Only the
    ``clusters`` payload is compared: work counters legitimately differ
    between a warm serving session and a cold oracle replica.
    """
    by_key: dict[tuple[int, int], list[list[int]]] = {}
    mismatched_repeats = 0
    for op in schedule:
        if op.kind != "top_k" or op.status != 200 or op.clusters is None:
            continue
        key = (op.k, op.generation)
        if key in by_key:
            if by_key[key] != op.clusters:
                mismatched_repeats += 1
        else:
            by_key[key] = op.clusters
    checked = 0
    matched = 0
    mismatches: list[dict[str, Any]] = []
    oracles: dict[int, Any] = {}
    try:
        for (k, gen), clusters in sorted(by_key.items()):
            if gen not in oracles:
                oracles[gen] = service.build_oracle(gen)
            expected = oracles[gen].top_k(k)["clusters"]
            checked += 1
            if clusters == expected:
                matched += 1
            elif len(mismatches) < 5:
                mismatches.append(
                    {"k": k, "generation": gen, "served": clusters, "oracle": expected}
                )
    finally:
        for oracle in oracles.values():
            oracle.close()
    return {
        "checked": checked,
        "matched": matched,
        "mismatched_repeats": mismatched_repeats,
        "mismatches": mismatches,
        "ok": checked == matched and mismatched_repeats == 0,
    }


def _latency_summary(values: list[float]) -> dict[str, Any]:
    if not values:
        return {"count": 0}
    arr = np.asarray(values, dtype=np.float64)
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }


def summarize(
    profile: LoadProfile,
    schedule: list[_Op],
    elapsed_s: float,
    identity: dict[str, Any],
    service_stats: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The ``BENCH_serve_load.json`` payload for one run."""
    queries = [op for op in schedule if op.kind == "top_k"]
    writes = [op for op in schedule if op.kind == "insert"]
    completed = [op for op in schedule if op.status == 200]
    shed = [op for op in schedule if op.status == 429]
    errors = [op for op in schedule if op.status not in (200, 429)]
    offered = len(schedule)
    shed_rate = len(shed) / offered if offered else 0.0
    error_rate = len(errors) / offered if offered else 0.0
    gates = {
        "identity_ok": bool(identity["ok"]),
        "shed_rate_ok": shed_rate <= profile.max_shed_rate,
        "error_rate_ok": error_rate <= profile.max_error_rate,
    }
    gates["pass"] = all(gates.values())
    return {
        "bench_version": BENCH_VERSION,
        "profile": profile.to_dict(),
        "offered": {
            "requests": offered,
            "queries": len(queries),
            "writes": len(writes),
        },
        "completed": len(completed),
        "shed": len(shed),
        "errors": len(errors),
        "error_samples": [op.error for op in errors[:5]],
        "shed_rate": shed_rate,
        "error_rate": error_rate,
        "elapsed_s": elapsed_s,
        "throughput_rps": len(completed) / elapsed_s if elapsed_s > 0 else 0.0,
        "coalesced": sum(1 for op in queries if op.coalesced),
        "generations_seen": sorted(
            {op.generation for op in completed if op.generation >= 0}
        ),
        "latency_ms": _latency_summary([op.latency_ms for op in completed]),
        "latency_ms_queries": _latency_summary(
            [op.latency_ms for op in completed if op.kind == "top_k"]
        ),
        "latency_ms_writes": _latency_summary(
            [op.latency_ms for op in completed if op.kind == "insert"]
        ),
        "identity": identity,
        "gates": gates,
        "service_stats": service_stats or {},
    }


def render_markdown(summary: dict[str, Any]) -> str:
    """A ``BENCH_serve_load.json`` payload as a Markdown table (printed
    by ``repro loadtest`` / ``repro loadreport`` and appended to the CI
    step summary)."""
    lat = summary.get("latency_ms", {})
    offered = summary.get("offered", {})
    identity = summary.get("identity", {})
    gates = summary.get("gates", {})

    def ms(key: str) -> str:
        value = lat.get(key)
        return f"{value:.2f}" if isinstance(value, (int, float)) else "-"

    rows = [
        ("offered requests", f"{offered.get('requests', 0)} "
         f"({offered.get('queries', 0)} queries, {offered.get('writes', 0)} writes)"),
        ("completed", str(summary.get("completed", 0))),
        ("throughput (req/s)", f"{summary.get('throughput_rps', 0.0):.1f}"),
        ("latency p50 / p95 / p99 (ms)", f"{ms('p50')} / {ms('p95')} / {ms('p99')}"),
        ("shed rate", f"{summary.get('shed_rate', 0.0):.2%}"),
        ("error rate", f"{summary.get('error_rate', 0.0):.2%}"),
        ("coalesced queries", str(summary.get("coalesced", 0))),
        ("generations seen", ", ".join(
            str(g) for g in summary.get("generations_seen", [])) or "-"),
        ("identity checks", f"{identity.get('matched', 0)}/"
         f"{identity.get('checked', 0)} matched"),
        ("gates", "PASS" if gates.get("pass") else "**FAIL** " + ", ".join(
            name for name, ok in gates.items() if name != "pass" and not ok)),
    ]
    lines = ["| metric | value |", "| --- | --- |"]
    lines.extend(f"| {name} | {value} |" for name, value in rows)
    return "\n".join(lines)


async def run_loadtest(
    service: ResolverService,
    profile: LoadProfile,
    reserve: RecordStore | None = None,
) -> dict[str, Any]:
    """Drive one load run against a started (or startable) service.

    Starts the service if needed, fires the schedule, verifies response
    identity against per-generation oracles, and returns the summary
    payload.  The caller owns service shutdown.
    """
    started_here = service.port is None
    if started_here:
        await service.start()
    if service.port is None:
        raise ServiceError("service has no bound port")
    if profile.write_fraction > 0 and (reserve is None or len(reserve) == 0):
        raise ConfigurationError(
            "write_fraction > 0 requires a non-empty reserve store"
        )
    write_payloads: list[dict[str, Any]] = []
    if reserve is not None:
        for lo in range(0, len(reserve), profile.write_chunk):
            hi = min(lo + profile.write_chunk, len(reserve))
            write_payloads.append(store_columns_payload(reserve, lo, hi))
    schedule = build_schedule(profile, len(write_payloads))
    elapsed = await run_schedule(
        service.config.host, service.port, schedule, write_payloads, profile.timeout_s
    )
    identity = verify_identity(service, schedule)
    return summarize(profile, schedule, elapsed, identity, service.stats())
