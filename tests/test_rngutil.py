"""Tests for seeded RNG helpers."""

import numpy as np

from repro.rngutil import keyed_rng, make_rng, spawn, stable_seed


class TestMakeRng:
    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        assert make_rng(7).integers(1 << 30) == make_rng(7).integers(1 << 30)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng


class TestSpawn:
    def test_count(self):
        assert len(spawn(make_rng(0), 5)) == 5

    def test_children_deterministic(self):
        a = [g.integers(1 << 30) for g in spawn(make_rng(3), 3)]
        b = [g.integers(1 << 30) for g in spawn(make_rng(3), 3)]
        assert a == b

    def test_children_independent(self):
        children = spawn(make_rng(3), 2)
        assert children[0].integers(1 << 30) != children[1].integers(1 << 30)

    def test_child_streams_identical_across_runs(self):
        """Same top-level seed -> byte-identical child streams."""
        runs = [
            [g.random(100) for g in spawn(make_rng(42), 4)] for _ in range(2)
        ]
        for stream_a, stream_b in zip(*runs):
            np.testing.assert_array_equal(stream_a, stream_b)

    def test_child_streams_distinct_per_child(self):
        streams = [g.random(100) for g in spawn(make_rng(42), 4)]
        for i, a in enumerate(streams):
            for b in streams[i + 1 :]:
                assert not np.array_equal(a, b)

    def test_spawn_consumes_parent_stream(self):
        """Consecutive spawns from one parent give fresh children."""
        rng = make_rng(7)
        first = [g.integers(1 << 30) for g in spawn(rng, 2)]
        second = [g.integers(1 << 30) for g in spawn(rng, 2)]
        assert first != second

    def test_seed_sequence_is_seedlike(self):
        a = make_rng(np.random.SeedSequence(5)).integers(1 << 30)
        b = make_rng(np.random.SeedSequence(5)).integers(1 << 30)
        assert a == b


class TestStableSeed:
    def test_int_is_its_own_seed(self):
        assert stable_seed(7) == 7
        assert stable_seed(np.int64(7)) == 7

    def test_generator_is_not_advanced(self):
        rng = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        assert stable_seed(rng) == stable_seed(rng)
        assert rng.integers(1 << 30) == twin.integers(1 << 30)


class TestKeyedRng:
    def test_same_key_same_stream(self):
        a = keyed_rng(3, 1, 40, 17).integers(0, 1 << 30, size=8)
        b = keyed_rng(3, 1, 40, 17).integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_key_parts_matter(self):
        base = keyed_rng(3, 1, 40, 17).integers(0, 1 << 30, size=8)
        for key in ((4, 1, 40, 17), (3, 2, 40, 17), (3, 1, 41, 17), (3, 1, 40, 18)):
            assert not np.array_equal(
                keyed_rng(*key).integers(0, 1 << 30, size=8), base
            )
