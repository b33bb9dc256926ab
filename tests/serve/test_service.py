"""ResolverService: lifecycle, batching, shedding, rollover, sharding.

The suite drives the asyncio service with ``asyncio.run`` (no plugin
dependency) and uses inline shard workers except where the process
path is the point — inline workers exercise the identical shard-server
and merge code without per-test process start-up.
"""

import asyncio

import numpy as np
import pytest

from repro import AdaptiveConfig
from repro.datasets import generate_querylog
from repro.errors import ConfigurationError, ResolvableExceededError
from repro.records import RecordStore, Schema
from repro.serve import (
    ResolverService,
    ResolverSession,
    ServiceConfig,
    ShardOracle,
    shard_spans,
)
from repro.serve.loadgen import http_request, store_columns_payload
from repro.serve.sharding import clamped_top_k

ADAPTIVE = AdaptiveConfig(cost_model="analytic")


@pytest.fixture(scope="module")
def dataset():
    return generate_querylog(n_records=160, seed=6)


def _config(**overrides):
    base = dict(n_shards=2, workers="inline", seed=6, adaptive=ADAPTIVE)
    base.update(overrides)
    return ServiceConfig(**base)


def _serve(dataset, config, body):
    """Run ``body(service)`` inside a started service."""

    async def go():
        async with ResolverService(dataset.store, dataset.rule, config) as svc:
            return await body(svc)

    return asyncio.run(go())


class TestServiceConfig:
    def test_rejects_calibrated_cost_model(self):
        with pytest.raises(ConfigurationError, match="analytic"):
            ServiceConfig(adaptive=AdaptiveConfig(cost_model="calibrate"))

    def test_rejects_unknown_worker_mode(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ServiceConfig(workers="threads")

    def test_validates_bounds(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(n_shards=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_inflight=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(batch_window_ms=-1)

    def test_shard_seed_is_pure(self):
        cfg = _config(seed=7)
        assert cfg.shard_seed(0, 0) == 7
        assert cfg.shard_seed(1, 1) == _config(seed=7).shard_seed(1, 1)
        # Distinct (generation, shard) pairs get distinct seeds.
        seeds = {cfg.shard_seed(g, i) for g in range(3) for i in range(4)}
        assert len(seeds) == 12

    def test_shard_adaptive_overrides_seed(self):
        cfg = _config(seed=3)
        shard = cfg.shard_adaptive(2, 1)
        assert shard.seed == cfg.shard_seed(2, 1)
        assert shard.cost_model == "analytic"


class TestClamping:
    def test_clamped_top_k_retries_at_resolvable(self, dataset):
        small = dataset.store.take(np.arange(12))
        with ResolverSession(small, dataset.rule, config=ADAPTIVE) as session:
            result, effective = clamped_top_k(session, 50)
            assert result is not None
            assert effective == len(result.clusters)
            assert effective < 50

    def test_resolvable_exceeded_carries_counts(self, dataset):
        small = dataset.store.take(np.arange(12))
        with ResolverSession(small, dataset.rule, config=ADAPTIVE) as session:
            with pytest.raises(ResolvableExceededError) as exc_info:
                session.top_k(50)
        exc = exc_info.value
        assert exc.k == 50
        assert 1 <= exc.resolvable < 50
        assert isinstance(exc, ConfigurationError)  # backward compatible


class TestLifecycle:
    def test_start_serve_shutdown(self, dataset):
        async def body(svc):
            assert svc.port is not None and svc.port > 0
            status, health = await http_request(
                "127.0.0.1", svc.port, "GET", "/healthz"
            )
            assert status == 200
            assert health["status"] == "ok"
            assert health["n_shards"] == 2
            assert health["n_records"] == len(dataset.store)
            status, stats = await http_request(
                "127.0.0.1", svc.port, "GET", "/stats"
            )
            assert status == 200
            assert stats["generation"] == 0
            return svc

        svc = _serve(dataset, _config(), body)
        # After stop: no server, handles drained.
        assert svc._server is None
        assert svc._current[1] == []

    def test_unknown_endpoint_and_bad_payload(self, dataset):
        async def body(svc):
            status, _ = await http_request(
                "127.0.0.1", svc.port, "POST", "/nope", {}
            )
            assert status == 404
            status, out = await http_request(
                "127.0.0.1", svc.port, "POST", "/top_k", {"k": 0}
            )
            assert status == 400
            assert "k" in out["error"]
            status, _ = await http_request(
                "127.0.0.1", svc.port, "GET", "/top_k"
            )
            assert status == 405

        _serve(dataset, _config(), body)

    def test_run_report_has_serving_section(self, dataset):
        async def body(svc):
            status, _ = await http_request(
                "127.0.0.1", svc.port, "POST", "/top_k", {"k": 3}
            )
            assert status == 200
            report = svc.run_report()
            assert report.serving["queries"] == 1
            assert report.serving["n_shards"] == 2
            assert report.serving["latency_ms"]["count"] == 1

        _serve(dataset, _config(), body)


class TestQueries:
    def test_top_k_matches_oracle(self, dataset):
        async def body(svc):
            for k in (2, 4, 7):
                status, served = await http_request(
                    "127.0.0.1", svc.port, "POST", "/top_k", {"k": k}
                )
                assert status == 200
                with svc.build_oracle() as oracle:
                    assert served["clusters"] == oracle.top_k(k)["clusters"]

        _serve(dataset, _config(), body)

    def test_process_workers_match_inline(self, dataset):
        async def serve_one(cfg):
            async with ResolverService(dataset.store, dataset.rule, cfg) as svc:
                status, served = await http_request(
                    "127.0.0.1", svc.port, "POST", "/top_k", {"k": 5}
                )
                assert status == 200
                return served["clusters"]

        inline = asyncio.run(serve_one(_config(workers="inline")))
        process = asyncio.run(serve_one(_config(workers="process")))
        assert inline == process

    def test_batch_top_k_order_and_equivalence(self, dataset):
        async def body(svc):
            status, batch = await http_request(
                "127.0.0.1", svc.port, "POST", "/batch_top_k", {"ks": [5, 2, 5]}
            )
            assert status == 200
            results = batch["results"]
            assert len(results) == 3
            assert results[0]["clusters"] == results[2]["clusters"]
            single = await svc.top_k(2)
            assert results[1]["clusters"] == single["clusters"]

        _serve(dataset, _config(), body)

    def test_same_k_queries_coalesce(self, dataset):
        async def body(svc):
            responses = await asyncio.gather(
                *(
                    http_request("127.0.0.1", svc.port, "POST", "/top_k", {"k": 4})
                    for _ in range(8)
                )
            )
            clusters = {str(payload["clusters"]) for _, payload in responses}
            assert len(clusters) == 1  # every waiter saw the same answer
            assert all(status == 200 for status, _ in responses)
            assert any(payload["coalesced"] for _, payload in responses)
            stats = svc.stats()
            assert stats["coalesced"] >= 1
            assert stats["batches"] + stats["coalesced"] == stats["queries"]

        _serve(dataset, _config(batch_window_ms=60.0), body)

    def test_burst_is_shed_with_retry_after(self, dataset):
        async def body(svc):
            # Distinct k values defeat coalescing, so each request needs
            # its own admission slot; max_inflight=1 sheds the surplus.
            responses = await asyncio.gather(
                *(
                    http_request(
                        "127.0.0.1", svc.port, "POST", "/top_k", {"k": 2 + i}
                    )
                    for i in range(6)
                )
            )
            statuses = sorted(status for status, _ in responses)
            assert 200 in statuses
            assert 429 in statuses
            shed = [payload for status, payload in responses if status == 429]
            assert all(p["retry_after_s"] > 0 for p in shed)
            assert svc.stats()["shed"] == len(shed)

        _serve(
            dataset,
            _config(max_inflight=1, batch_window_ms=120.0),
            body,
        )


class TestRollover:
    def test_rollover_during_concurrent_queries(self, dataset):
        extra = generate_querylog(n_records=200, seed=6).store
        chunks = [
            extra.take(np.arange(lo + 160, lo + 170)) for lo in range(0, 40, 10)
        ]

        async def body(svc):
            async def insert(chunk):
                payload = store_columns_payload(chunk, 0, len(chunk))
                return await http_request(
                    "127.0.0.1",
                    svc.port,
                    "POST",
                    "/insert_records",
                    {"columns": payload},
                )

            async def query():
                return await http_request(
                    "127.0.0.1", svc.port, "POST", "/top_k", {"k": 3}
                )

            mixed = await asyncio.gather(
                *[insert(c) for c in chunks], *[query() for _ in range(6)]
            )
            assert all(status == 200 for status, _ in mixed)
            # Drain the pending buffer, then wait out the background task.
            await http_request("127.0.0.1", svc.port, "POST", "/rollover", {})
            while svc._rollover_task is not None and not svc._rollover_task.done():
                await asyncio.sleep(0.01)
            assert svc.generation >= 1
            assert len(svc.current_store()) == 160 + 40
            # The new generation still answers bit-identically to its
            # own oracle replica.
            status, served = await http_request(
                "127.0.0.1", svc.port, "POST", "/top_k", {"k": 4}
            )
            assert status == 200
            assert served["generation"] == svc.generation
            with svc.build_oracle() as oracle:
                assert served["clusters"] == oracle.top_k(4)["clusters"]

        _serve(dataset, _config(rollover_records=20), body)

    def test_reads_keep_old_generation_until_swap(self, dataset):
        async def body(svc):
            before = await svc.top_k(3)
            # A buffered write below the threshold changes nothing.
            status, out = await http_request(
                "127.0.0.1",
                svc.port,
                "POST",
                "/insert_records",
                {"columns": store_columns_payload(dataset.store, 0, 5)},
            )
            assert status == 200
            assert out["rollover_scheduled"] is False
            after = await svc.top_k(3)
            assert after["generation"] == before["generation"] == 0
            assert after["clusters"] == before["clusters"]
            assert svc.stats()["pending_writes"] == 5

        _serve(dataset, _config(rollover_records=1000), body)


def _planted_store(sizes_and_noise, dim=16, seed=0):
    """Contiguous planted clusters: ``[(sizes, n_noise), ...]`` blocks."""
    rng = np.random.default_rng(seed)
    rows = []
    for sizes, n_noise in sizes_and_noise:
        for base_scale, size in enumerate(sizes):
            base = rng.normal(size=dim) * (2.0 + base_scale)
            for _ in range(size):
                rows.append(base + rng.normal(scale=0.005, size=dim))
        for _ in range(n_noise):
            rows.append(rng.normal(size=dim) * 8.0)
    return RecordStore(Schema.single_vector(), {"vec": np.asarray(rows)})


class TestCrossShardMerge:
    def test_two_shard_merge_equals_single_shard(self):
        """With every entity contained in one shard, the 2-shard merge
        must reproduce the single-shard session's top-k exactly."""
        from repro.distance import CosineDistance, ThresholdRule

        # Block 1 -> records 0..49 (entities of 12 and 5), block 2 ->
        # records 50..99 (entities of 9 and 7); shard_spans(100, 2)
        # splits exactly at 50, so no entity straddles the boundary.
        store = _planted_store([((12, 5), 33), ((9, 7), 34)])
        assert shard_spans(100, 2) == [(0, 50), (50, 100)]
        rule = ThresholdRule(CosineDistance("vec"), 0.15)
        cfg = ServiceConfig(
            n_shards=2, workers="inline", seed=0, adaptive=ADAPTIVE
        )
        with ShardOracle(store, rule, cfg, generation=0) as oracle:
            merged = oracle.top_k(4)["clusters"]
        single = ServiceConfig(
            n_shards=1, workers="inline", seed=0, adaptive=ADAPTIVE
        )
        with ShardOracle(store, rule, single, generation=0) as oracle:
            direct = oracle.top_k(4)["clusters"]
        assert [len(c) for c in merged] == [12, 9, 7, 5]
        assert merged == direct

    def test_single_shard_oracle_matches_plain_session(self):
        from repro.distance import CosineDistance, ThresholdRule

        store = _planted_store([((10, 6), 24)])
        rule = ThresholdRule(CosineDistance("vec"), 0.15)
        cfg = ServiceConfig(
            n_shards=1, workers="inline", seed=0, adaptive=ADAPTIVE
        )
        with ShardOracle(store, rule, cfg, generation=0) as oracle:
            merged = oracle.top_k(2)["clusters"]
        session_cfg = cfg.shard_adaptive(0, 0)
        with ResolverSession(store, rule, config=session_cfg) as session:
            direct = session.top_k(2)
        # The wire format canonicalizes member order within a cluster.
        assert merged == [
            sorted(int(r) for r in c.rids) for c in direct.clusters
        ]


class TestOutOfCore:
    """PR-8: disk-backed stores flow through the service without the
    column bytes ever crossing a pickle boundary, and rollovers append
    to the backing layout in O(pending) instead of rewriting the base."""

    def _layout_store(self, dataset, tmp_path):
        from repro.storage import StoreLayout

        return StoreLayout.write(dataset.store, tmp_path / "base.store").open()

    def test_mmap_store_serves_identically(self, dataset, tmp_path):
        opened = self._layout_store(dataset, tmp_path)

        async def run(store, expect_backed):
            async with ResolverService(store, dataset.rule, _config()) as svc:
                assert svc.stats()["store_backed"] is expect_backed
                return await svc.top_k(4)

        mapped = asyncio.run(run(opened, True))
        direct = asyncio.run(run(dataset.store, False))
        assert mapped["clusters"] == direct["clusters"]

    def test_process_workers_ship_zero_store_bytes(self, dataset, tmp_path):
        opened = self._layout_store(dataset, tmp_path)

        async def body(svc):
            out = await svc.top_k(3)
            assert out["clusters"]
            assert svc.stats()["store_pickle_bytes"] == 0

        _serve(
            type("D", (), {"store": opened, "rule": dataset.rule})(),
            _config(workers="process"),
            body,
        )

    def test_spool_dir_backs_in_memory_store(self, dataset, tmp_path):
        async def body(svc):
            stats = svc.stats()
            assert stats["store_backed"] is True
            backing = svc.current_store().backing
            assert backing is not None
            assert backing.path.startswith(str(tmp_path))
            out = await svc.top_k(3)
            return out["clusters"]

        spooled = _serve(dataset, _config(spool_dir=str(tmp_path)), body)
        plain = _serve(dataset, _config(), lambda svc: svc.top_k(3))
        assert spooled == plain["clusters"]

    def test_rollover_appends_to_backing_layout(self, dataset, tmp_path):
        """A rollover on a layout-backed store must extend the layout in
        place (version bump, same path) instead of rebuilding it."""
        from repro.storage import StoreLayout

        opened = self._layout_store(dataset, tmp_path)
        extra = generate_querylog(n_records=200, seed=6).store

        async def body(svc):
            base_backing = svc.current_store().backing
            payload = store_columns_payload(extra, 160, 185)
            status, out = await http_request(
                "127.0.0.1",
                svc.port,
                "POST",
                "/insert_records",
                {"columns": payload},
            )
            assert status == 200 and out["rollover_scheduled"] is True
            while svc._rollover_task is not None and not svc._rollover_task.done():
                await asyncio.sleep(0.01)
            assert svc.generation == 1
            store = svc.current_store()
            assert len(store) == 185
            backing = store.backing
            assert backing is not None
            assert backing.path == base_backing.path
            assert backing.store_version == base_backing.store_version + 1
            assert StoreLayout(backing.path).n == 185
            status, served = await http_request(
                "127.0.0.1", svc.port, "POST", "/top_k", {"k": 4}
            )
            assert status == 200
            with svc.build_oracle() as oracle:
                assert served["clusters"] == oracle.top_k(4)["clusters"]

        _serve(
            type("D", (), {"store": opened, "rule": dataset.rule})(),
            _config(rollover_records=20),
            body,
        )


class TestShardedIndex:
    def _fixture(self):
        from repro.distance import CosineDistance, ThresholdRule

        store = _planted_store(
            [((12, 5), 23), ((9, 7), 24), ((10, 6), 24), ((8, 4), 28)]
        )
        assert shard_spans(len(store), 4) == [
            (0, 40),
            (40, 80),
            (80, 120),
            (120, 160),
        ]
        return store, ThresholdRule(CosineDistance("vec"), 0.15)

    def test_four_shard_equals_single_shard(self):
        from repro.serve import ShardedIndex

        store, rule = self._fixture()
        with ShardedIndex(store, rule, n_shards=4) as sharded:
            merged = sharded.top_k(6)
        with ShardedIndex(store, rule, n_shards=1) as single:
            direct = single.top_k(6)
        assert [len(c) for c in merged["clusters"]] == [12, 10, 9, 8, 7, 6]
        assert merged["clusters"] == direct["clusters"]
        assert merged["n_shards"] == 4 and merged["k"] == 6

    def test_mmap_store_equals_in_memory(self, tmp_path):
        from repro.serve import ShardedIndex
        from repro.storage import StoreLayout

        store, rule = self._fixture()
        opened = StoreLayout.write(store, tmp_path / "s.store").open()
        with ShardedIndex(store, rule, n_shards=4) as mem:
            want = mem.top_k(5)["clusters"]
        with ShardedIndex(opened, rule, n_shards=4) as mm:
            got = mm.top_k(5)["clusters"]
        assert got == want

    def test_shard_stats_report_spans(self):
        from repro.serve import ShardedIndex

        store, rule = self._fixture()
        with ShardedIndex(store, rule, n_shards=4) as sharded:
            stats = sharded.shard_stats()
        assert [s["span"] for s in stats] == [
            [0, 40],
            [40, 80],
            [80, 120],
            [120, 160],
        ]
        assert sharded.n_shards == 4
