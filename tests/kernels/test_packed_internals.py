"""Kernel internals: popcount fallback, lazy packed layout, and no
retained hash tables."""

import numpy as np

from repro import AdaptiveConfig, AdaptiveLSH
from repro.datasets import generate_cora
from repro.kernels import KERNELS, packed_field
from repro.kernels import base as base_mod
from repro.kernels.base import EMPTY_SENTINEL, _popcount_rows, _splitmix64
from repro.kernels.packed import _BITSET_VOCAB_LIMIT, PackedField
from repro.lsh.minhash import MinHashFamily
from repro.records import RecordStore, Schema


def _store(sets):
    arrays = [np.asarray(s, dtype=np.int64) for s in sets]
    return RecordStore(Schema.single_shingles(), {"shingles": arrays})


class TestPopcount:
    def test_lut_fallback_matches_bitwise_count(self, monkeypatch):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, size=(37, 5), dtype=np.int64).astype(
            np.uint64
        )
        native = _popcount_rows(words)
        monkeypatch.setattr(base_mod, "_HAS_BITWISE_COUNT", False)
        assert np.array_equal(_popcount_rows(words), native)

    def test_counts_are_exact(self, monkeypatch):
        words = np.array(
            [[0], [1], [2**64 - 1], [2**63]], dtype=np.uint64
        )
        for has_native in (True, False):
            monkeypatch.setattr(
                base_mod, "_HAS_BITWISE_COUNT", has_native
            )
            assert _popcount_rows(words).tolist() == [0, 1, 64, 1]


class TestPackedLayout:
    def test_small_vocab_gets_bitset(self):
        field = PackedField(_store([[1, 2, 3], [2, 3, 4], []]), "shingles")
        assert field.vocab.size <= _BITSET_VOCAB_LIMIT
        assert field.bitset is not None

    def test_large_vocab_skips_bitset(self):
        rng = np.random.default_rng(1)
        sets = [
            np.unique(rng.integers(0, 2**40, size=8)) for _ in range(600)
        ]
        field = PackedField(_store(sets), "shingles")
        if field.vocab.size > _BITSET_VOCAB_LIMIT:
            assert field.bitset is None

    def test_vocab_always_contains_sentinel(self):
        field = PackedField(_store([[5], []]), "shingles")
        scrambled = _splitmix64(
            np.array([EMPTY_SENTINEL], dtype=np.uint64)
        )[0]
        assert scrambled in field.vocab

    def test_pack_cache_lives_on_store(self, tiny_spotsigs):
        store = tiny_spotsigs.store
        packed = packed_field(store, "signatures")
        assert packed_field(store, "signatures") is packed
        assert store._packed_cache == {"signatures": packed}
        assert packed.store is store

    def test_dropped_store_frees_its_layout_without_gc(self):
        """The layout refers back to its store weakly, so no reference
        cycle holds a dropped store's columns and packed arrays until
        the cyclic collector runs."""
        import gc
        import weakref

        gc.disable()
        try:
            store = RecordStore(
                Schema.single_shingles("s"),
                {"s": [np.array([1, 2]), np.array([2, 3]), np.array([7])]},
            )
            packed = packed_field(store, "s")
            bitset = weakref.ref(packed.bitset)
            dead = weakref.ref(store)
            del store, packed
            assert dead() is None
            assert bitset() is None
        finally:
            gc.enable()


def _cora_method(n_records=400):
    dataset = generate_cora(n_records=n_records, seed=0)
    config = AdaptiveConfig(seed=1, cost_model="analytic")
    return dataset.store, AdaptiveLSH(dataset.store, dataset.rule, config=config)


def _retained_arrays(packed):
    """Every array a :class:`PackedField` holds, inside containers too."""
    found, todo = [], [getattr(packed, slot) for slot in PackedField.__slots__]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
    return found


class TestLazyPacking:
    def test_prepare_packs_nothing(self):
        store, method = _cora_method()
        with method:
            method.prepare()
            assert store._packed_cache == {}

    def test_run_retains_no_hash_tables(self):
        store, method = _cora_method()
        with method:
            method.run(5)
        assert store._packed_cache
        for packed in store._packed_cache.values():
            vocab = packed.vocab.size
            # A hash table is (vocab, hashes) uint32; no packed piece is.
            assert not any(
                a.ndim == 2 and a.shape[0] == vocab and a.dtype == np.uint32
                for a in _retained_arrays(packed)
            )
            assert not hasattr(packed, "__dict__")

    def test_bitset_built_on_first_jaccard_use(self):
        store = _store([[1, 2, 3], [2, 3, 4], [], [9]])
        family = MinHashFamily(store, "shingles", seed=0)
        rids = np.arange(4, dtype=np.int64)
        family.compute(rids, 0, 16)
        packed = store._packed_cache["shingles"]
        assert packed.vocab.size <= _BITSET_VOCAB_LIMIT
        assert packed._bitset is None
        KERNELS.jaccard_block(packed, rids[:2], rids[2:])
        assert packed._bitset is not None
        assert packed.bitset is packed._bitset

    def test_hashing_only_run_never_builds_bitset(self):
        # Hashing through every signature pool packs each field but
        # leaves the bitsets, which only Jaccard shapes read, unbuilt.
        store, method = _cora_method()
        with method:
            method.prepare()
            for pool in method._pools:
                pool.signatures(np.arange(50, dtype=np.int64), 8)
        assert store._packed_cache
        assert all(p._bitset is None for p in store._packed_cache.values())
