"""Snapshot round-trip guarantees: warm starts are bit-identical.

The tentpole invariant: capture → save → load → restore yields a
method whose ``run(k)`` output equals the cold run byte for byte —
same clusters, same rids, same work counters — for every dataset
family, seed, and worker count.
"""

import numpy as np
import pytest

from repro import AdaptiveConfig, AdaptiveLSH
from repro.datasets import (
    generate_cora,
    generate_popular_images,
    generate_querylog,
    generate_spotsigs,
)
from repro.errors import SnapshotError
from repro.io import pack_json_header, unpack_json_header
from repro.serve import SNAPSHOT_MAGIC, SNAPSHOT_VERSION, IndexSnapshot


def _generate(name, seed):
    if name == "spotsigs":
        return generate_spotsigs(n_records=400, seed=seed)
    if name == "querylog":
        return generate_querylog(n_records=400, seed=seed)
    if name == "cora":
        return generate_cora(n_records=300, seed=seed)
    return generate_popular_images(
        n_records=400, n_popular=30, top1_size=20, seed=seed
    )


def _result_key(result):
    """Everything decision-observable about a FilterResult, exactly.

    ``hashes_computed`` is deliberately excluded: a warm start serves
    captured columns, so it performs *less* hashing work while making
    byte-identical decisions (same clusters, same pairwise work, same
    round count).
    """
    return (
        [c.rids.tolist() for c in result.clusters],
        [c.source for c in result.clusters],
        result.counters.pairs_compared,
        result.counters.pairs_charged,
        result.counters.rounds,
        sorted(result.output_rids.tolist()),
    )


def _cold_and_warm(dataset, tmp_path, k, seed):
    config = AdaptiveConfig(seed=seed, cost_model="analytic")
    cold = AdaptiveLSH(dataset.store, dataset.rule, config=config)
    cold_result = cold.run(k)
    path = tmp_path / "index.npz"
    IndexSnapshot.capture(cold).save(path)
    cold.close()
    warm = IndexSnapshot.load(path).restore(dataset.store)
    try:
        warm_result = warm.run(k)
    finally:
        warm.close()
    return cold_result, warm_result, warm


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["spotsigs", "querylog", "cora", "images"]
    )
    def test_warm_run_bit_identical(self, name, tmp_path):
        dataset = _generate(name, seed=7)
        cold, warm, method = _cold_and_warm(dataset, tmp_path, k=4, seed=7)
        assert _result_key(warm) == _result_key(cold)
        assert method.warm_started

    def test_config_with_retired_toggles_restores(self, tmp_path):
        """Snapshots written while the pair memo and the bin index could
        be switched off carry those keys in their config; they still
        restore and run bit-identically."""
        dataset = _generate("spotsigs", seed=7)
        config = AdaptiveConfig(seed=7, cost_model="analytic")
        with AdaptiveLSH(dataset.store, dataset.rule, config=config) as cold:
            cold_result = cold.run(4)
            snap = IndexSnapshot.capture(cold)
        snap.header["config"].update(
            pair_memo=None, bin_index=None, bin_index_bytes=128 << 20
        )
        path = tmp_path / "older.npz"
        snap.save(path)
        warm = IndexSnapshot.load(path).restore(dataset.store)
        try:
            assert _result_key(warm.run(4)) == _result_key(cold_result)
        finally:
            warm.close()

    @pytest.mark.parametrize("strategy", ["auto", "rowwise", "blocked"])
    def test_config_with_pairwise_strategy_restores(self, strategy, tmp_path):
        """Snapshots written while ``P`` had a rowwise and a blocked
        strategy carry ``pairwise_strategy`` in their config; they still
        restore, drop the key and run identically."""
        dataset = _generate("spotsigs", seed=7)
        config = AdaptiveConfig(seed=7, cost_model="analytic")
        with AdaptiveLSH(dataset.store, dataset.rule, config=config) as cold:
            cold_result = cold.run(4)
            snap = IndexSnapshot.capture(cold)
        snap.header["config"]["pairwise_strategy"] = strategy
        path = tmp_path / "older.npz"
        snap.save(path)
        warm = IndexSnapshot.load(path).restore(dataset.store)
        try:
            assert "pairwise_strategy" not in warm.config.to_dict()
            assert _result_key(warm.run(4)) == _result_key(cold_result)
        finally:
            warm.close()

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_bit_identical_across_seeds(self, seed, tmp_path):
        dataset = _generate("querylog", seed=seed)
        cold, warm, _ = _cold_and_warm(dataset, tmp_path, k=3, seed=seed)
        assert _result_key(warm) == _result_key(cold)

    def test_warm_skips_all_captured_hashing(self, tmp_path):
        """A snapshot captured after a run carries that run's columns;
        replaying the same query computes zero new hashes."""
        dataset = _generate("spotsigs", seed=2)
        cold, warm, _ = _cold_and_warm(dataset, tmp_path, k=4, seed=2)
        assert cold.counters.hashes_computed > 0
        assert warm.counters.hashes_computed == 0

    def test_snapshot_before_any_run(self, tmp_path):
        """Capturing right after prepare() (no query yet) also restores
        to a bit-identical method — the pools are simply empty."""
        dataset = _generate("cora", seed=9)
        config = AdaptiveConfig(seed=9, cost_model="analytic")
        cold = AdaptiveLSH(dataset.store, dataset.rule, config=config)
        path = tmp_path / "index.npz"
        IndexSnapshot.capture(cold).save(path)  # prepares, no run
        cold_result = cold.run(3)
        cold.close()
        warm = IndexSnapshot.load(path).restore(dataset.store)
        try:
            warm_result = warm.run(3)
        finally:
            warm.close()
        assert _result_key(warm_result) == _result_key(cold_result)

    def test_arrays_round_trip_dtype_exact(self, tmp_path):
        dataset = _generate("querylog", seed=4)
        config = AdaptiveConfig(seed=4, cost_model="analytic")
        with AdaptiveLSH(dataset.store, dataset.rule, config=config) as m:
            m.run(3)
            snap = IndexSnapshot.capture(m)
        path = tmp_path / "index.npz"
        snap.save(path)
        loaded = IndexSnapshot.load(path)
        assert set(loaded.arrays) == set(snap.arrays)
        for key, arr in snap.arrays.items():
            assert loaded.arrays[key].dtype == arr.dtype, key
            np.testing.assert_array_equal(loaded.arrays[key], arr)
        assert loaded.header == unpack_json_header(
            pack_json_header(snap.header)
        )


class TestValidation:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        dataset = _generate("querylog", seed=6)
        config = AdaptiveConfig(seed=6, cost_model="analytic")
        with AdaptiveLSH(dataset.store, dataset.rule, config=config) as m:
            snap = IndexSnapshot.capture(m)
        path = tmp_path_factory.mktemp("snap") / "index.npz"
        snap.save(path)
        return dataset, path

    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(SnapshotError, match="not an index snapshot"):
            IndexSnapshot.load(path)

    def test_wrong_magic(self, saved, tmp_path):
        _, path = saved
        snap = IndexSnapshot.load(path)
        snap.header["magic"] = "something-else"
        bad = tmp_path / "bad.npz"
        snap.save(bad)
        with pytest.raises(SnapshotError, match="not an index snapshot"):
            IndexSnapshot.load(bad)

    def test_unknown_version(self, saved, tmp_path):
        _, path = saved
        snap = IndexSnapshot.load(path)
        snap.header["version"] = SNAPSHOT_VERSION + 1
        bad = tmp_path / "bad.npz"
        snap.save(bad)
        with pytest.raises(SnapshotError, match="version"):
            IndexSnapshot.load(bad)

    def test_magic_constant(self, saved):
        _, path = saved
        assert IndexSnapshot.load(path).header["magic"] == SNAPSHOT_MAGIC

    def test_strict_rejects_different_store(self, saved):
        _, path = saved
        other = _generate("querylog", seed=99)
        with pytest.raises(SnapshotError, match="does not match"):
            IndexSnapshot.load(path).restore(other.store)

    def test_strict_rejects_extended_store(self, saved):
        dataset, path = saved
        extended = dataset.store.concat(dataset.store)
        with pytest.raises(SnapshotError, match="strict=False"):
            IndexSnapshot.load(path).restore(extended)

    def test_schema_mismatch(self, saved, vector_store, vector_rule):
        _, path = saved
        store, _ = vector_store
        with pytest.raises(SnapshotError, match="schema"):
            IndexSnapshot.load(path).restore(store)


class TestExtensionRestore:
    def test_non_strict_accepts_extension(self, tmp_path):
        """strict=False restores onto a store extended past the
        captured prefix; prefix queries still match the cold method."""
        dataset = _generate("spotsigs", seed=8)
        config = AdaptiveConfig(seed=8, cost_model="analytic")
        with AdaptiveLSH(dataset.store, dataset.rule, config=config) as m:
            m.run(3)
            snap = IndexSnapshot.capture(m)
        extra = _generate("spotsigs", seed=80)
        extended = dataset.store.concat(extra.store)
        warm = snap.restore(extended, strict=False)
        try:
            assert warm.warm_started
            assert len(warm.store) == len(dataset.store) + len(extra.store)
        finally:
            warm.close()

    def test_non_strict_still_checks_prefix(self, tmp_path):
        dataset = _generate("spotsigs", seed=8)
        config = AdaptiveConfig(seed=8, cost_model="analytic")
        with AdaptiveLSH(dataset.store, dataset.rule, config=config) as m:
            snap = IndexSnapshot.capture(m)
        other = _generate("spotsigs", seed=81)
        extended = other.store.concat(dataset.store)
        with pytest.raises(SnapshotError, match="extension"):
            snap.restore(extended, strict=False)
