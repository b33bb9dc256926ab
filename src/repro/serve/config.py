"""Frozen configuration for the sharded resolver service.

:class:`ServiceConfig` is the serving-side sibling of
:class:`~repro.core.config.AdaptiveConfig`: one immutable value holding
every knob of :class:`~repro.serve.service.ResolverService` — shard
count, worker mode, the batching window, admission control, and the
write-rollover threshold — so a service, its worker processes, and the
bit-identity oracle are all constructed from the same comparable value.

Determinism constraint: shard sessions must be reproducible in the
oracle (the load harness re-derives every shard in-process and demands
bit-identical responses), so the embedded adaptive config must use the
``analytic`` cost model — ``calibrate`` folds measured wall time into
the scheme design, which no replica could reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from ..core.config import AdaptiveConfig, config_with
from ..errors import ConfigurationError

#: Worker execution modes: ``process`` forks/spawns one worker process
#: per shard; ``inline`` runs shard sessions in threads of the serving
#: process (useful for tests and single-machine debugging).
WORKER_MODES = ("process", "inline")


@dataclass(frozen=True)
class ServiceConfig:
    """Every tuning knob of the resolver service, in one frozen value.

    Parameters
    ----------
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port (the bound
        port is available as ``ResolverService.port`` after start).
    n_shards:
        Number of record-range shards; each holds one
        :class:`~repro.serve.ResolverSession` over a contiguous slice
        of the store.
    workers:
        ``"process"`` (one worker process per shard) or ``"inline"``
        (shard sessions in threads of the serving process).
    batch_window_ms:
        Same-``k`` queries arriving within this window coalesce into
        one shard broadcast (results are deterministic per
        ``(k, generation)``, so every waiter gets the same payload).
    max_inflight:
        Admission-control bound: requests admitted while this many are
        already in flight are shed with a 429-style response.
    shed_retry_after_s:
        ``Retry-After`` hint attached to shed responses.
    rollover_records:
        Buffered writes that trigger a background re-shard; until the
        new generation is warm, reads keep hitting the old shards.
    warm_k:
        Per-shard warm-up query depth run before a generation starts
        serving (0 skips the warm-up).
    seed:
        Base seed; shard ``i`` of generation ``g`` derives its session
        seed deterministically from ``(seed, g, i)``.
    spool_dir:
        When set, a service given a purely in-memory store writes it to
        an on-disk columnar layout (:mod:`repro.storage`) under this
        directory at start and serves from the memory-mapped copy; the
        spooled layout is service-owned, so generation rollovers append
        to it in place (O(pending) instead of O(n) concat copies) and
        shard workers receive :class:`~repro.parallel.sharing.
        DiskStoreRef` handles instead of pickled columns.  Stores that
        already carry a layout backing get all of this without
        spooling.  ``None`` (default) keeps the in-memory path.
    adaptive:
        The :class:`AdaptiveConfig` shard sessions are built from
        (the ``seed`` field is overridden per shard).  Must
        use the ``analytic`` cost model.
    """

    host: str = "127.0.0.1"
    port: int = 0
    n_shards: int = 2
    workers: str = "process"
    batch_window_ms: float = 2.0
    max_inflight: int = 64
    shed_retry_after_s: float = 0.05
    rollover_records: int = 256
    warm_k: int = 0
    seed: int = 0
    spool_dir: "str | None" = None
    adaptive: AdaptiveConfig = field(
        default_factory=lambda: AdaptiveConfig(cost_model="analytic")
    )

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.workers not in WORKER_MODES:
            raise ConfigurationError(
                f"workers must be one of {WORKER_MODES}, got {self.workers!r}"
            )
        if self.batch_window_ms < 0:
            raise ConfigurationError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}"
            )
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.shed_retry_after_s <= 0:
            raise ConfigurationError(
                f"shed_retry_after_s must be > 0, got {self.shed_retry_after_s}"
            )
        if self.rollover_records < 1:
            raise ConfigurationError(
                f"rollover_records must be >= 1, got {self.rollover_records}"
            )
        if self.warm_k < 0:
            raise ConfigurationError(f"warm_k must be >= 0, got {self.warm_k}")
        if self.port < 0:
            raise ConfigurationError(f"port must be >= 0, got {self.port}")
        if self.adaptive.cost_model != "analytic":
            raise ConfigurationError(
                "ServiceConfig requires adaptive.cost_model='analytic': "
                "calibrated cost models fold measured wall time into the "
                "design, which shard replicas and the bit-identity oracle "
                "cannot reproduce"
            )
        object.__setattr__(self, "n_shards", int(self.n_shards))
        object.__setattr__(self, "max_inflight", int(self.max_inflight))
        object.__setattr__(self, "rollover_records", int(self.rollover_records))
        object.__setattr__(self, "warm_k", int(self.warm_k))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "batch_window_ms", float(self.batch_window_ms))
        if self.spool_dir is not None:
            object.__setattr__(self, "spool_dir", str(self.spool_dir))

    # ------------------------------------------------------------------
    def shard_seed(self, generation: int, shard_index: int) -> int:
        """Deterministic session seed for one shard of one generation.

        A pure function of ``(seed, generation, shard_index)`` so every
        replica — worker process, inline thread, or the in-process
        oracle — derives the identical adaptive method.
        """
        return self.seed + 1_000_003 * int(generation) + int(shard_index)

    def shard_adaptive(self, generation: int, shard_index: int) -> AdaptiveConfig:
        """The :class:`AdaptiveConfig` for one shard session."""
        return config_with(
            self.adaptive, seed=self.shard_seed(generation, shard_index)
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly view (the embedded adaptive config included)."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.to_dict() if f.name == "adaptive" else value
        return out
