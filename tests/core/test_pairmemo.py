"""Unit tests for the cross-round pair-verdict memo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pairmemo import (
    MATCH,
    NO_MATCH,
    UNKNOWN,
    PairVerdictMemo,
    pack_pair_keys,
    rule_fingerprint,
)
from repro.distance import JaccardDistance, ThresholdRule
from repro.records import RecordStore, Schema


def _shingle_store(n=8, offset=0):
    sets = [np.arange(offset + i, offset + i + 4, dtype=np.int64) for i in range(n)]
    return RecordStore(Schema.single_shingles(), {"shingles": sets})


class TestPackPairKeys:
    def test_canonical_order(self):
        a = np.array([5, 2], dtype=np.int64)
        b = np.array([2, 5], dtype=np.int64)
        keys = pack_pair_keys(a, b)
        assert keys[0] == keys[1] == (2 << 32) | 5

    def test_broadcasts_scalar_against_array(self):
        rid = np.asarray(7, dtype=np.int64)
        others = np.array([1, 9, 3], dtype=np.int64)
        keys = pack_pair_keys(rid, others)
        expected = [(1 << 32) | 7, (7 << 32) | 9, (3 << 32) | 7]
        assert keys.tolist() == expected

    def test_distinct_pairs_distinct_keys(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 10_000, size=2000).astype(np.int64)
        b = rng.integers(0, 10_000, size=2000).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        keys = pack_pair_keys(a, b)
        pairs = {(min(x, y), max(x, y)) for x, y in zip(a.tolist(), b.tolist())}
        assert np.unique(keys).size == len(pairs)


class TestLookupRecord:
    def test_roundtrip(self):
        memo = PairVerdictMemo()
        keys = pack_pair_keys(
            np.array([0, 1, 2], dtype=np.int64),
            np.array([3, 4, 5], dtype=np.int64),
        )
        memo.record(keys, np.array([True, False, True]))
        verdicts = memo.lookup(keys)
        assert verdicts.tolist() == [MATCH, NO_MATCH, MATCH]
        assert memo.pairs == 3

    def test_unknown_until_recorded(self):
        memo = PairVerdictMemo()
        keys = pack_pair_keys(
            np.array([0], dtype=np.int64), np.array([1], dtype=np.int64)
        )
        assert memo.lookup(keys).tolist() == [UNKNOWN]
        assert memo.misses == 1 and memo.hits == 0

    def test_hit_miss_counters(self):
        memo = PairVerdictMemo()
        keys = pack_pair_keys(
            np.arange(4, dtype=np.int64), np.arange(4, 8, dtype=np.int64)
        )
        memo.record(keys[:2], np.array([True, True]))
        memo.lookup(keys)
        assert memo.hits == 2 and memo.misses == 2

    def test_duplicate_keys_in_one_batch_count_once(self):
        memo = PairVerdictMemo()
        key = pack_pair_keys(
            np.array([1, 1], dtype=np.int64), np.array([2, 2], dtype=np.int64)
        )
        memo.record(key, np.array([True, True]))
        assert memo.pairs == 1

    @pytest.mark.parametrize("distinct", [1, 5, 40, 300])
    def test_insert_counts_each_new_pair_once(self, distinct):
        """``_insert`` on a batch that repeats keys (vectorized rounds
        for the large batches, the scalar tail for the small ones)
        fills one slot per new key, leaves present keys uncounted and
        keeps the last verdict of a repeated key."""
        memo = PairVerdictMemo()
        rng = np.random.default_rng(distinct)
        a = np.arange(distinct, dtype=np.int64)
        unique_keys = pack_pair_keys(a, a + 1000)
        memo.record(unique_keys[:1], np.array([True]))
        batch = unique_keys[rng.integers(0, distinct, size=3 * distinct + 2)]
        verdicts = rng.choice([NO_MATCH, MATCH], size=batch.size).astype(np.uint8)
        memo._insert(batch, verdicts)
        seen = np.unique(batch)
        assert memo.pairs == 1 + np.count_nonzero(seen != unique_keys[0])
        last = {int(k): int(v) for k, v in zip(batch, verdicts)}
        got = memo.lookup(seen)
        assert got.tolist() == [last[int(k)] for k in seen]

    def test_lookup_skips_pairs_with_a_fresh_endpoint(self):
        """Only pairs whose records both have a recorded verdict reach
        the table; the rest read UNKNOWN and count as misses, as a
        probe would have counted them."""
        memo = PairVerdictMemo()
        keys = pack_pair_keys(
            np.array([0, 1, 0, 2, 9], dtype=np.int64),
            np.array([1, 2, 2, 3, 1 << 20], dtype=np.int64),
        )
        memo.record(keys[:2], np.array([True, False]))
        probed = []
        find = memo._find_slots

        def spy(batch):
            probed.append(batch.copy())
            return find(batch)

        memo._find_slots = spy
        assert memo.lookup(keys).tolist() == [
            MATCH, NO_MATCH, UNKNOWN, UNKNOWN, UNKNOWN
        ]
        # (0, 2) has two seen endpoints and is probed; (2, 3) and the
        # pair beyond every recorded id are not.
        assert [b.tolist() for b in probed] == [keys[:3].tolist()]
        assert memo.hits == 2 and memo.misses == 3

    def test_cold_lookup_probes_nothing(self):
        memo = PairVerdictMemo()
        one = np.zeros(1, dtype=np.int64)
        memo.record(pack_pair_keys(one, one + 1), np.array([True]))
        memo._clear()
        memo._find_slots = None  # any probe would raise
        keys = pack_pair_keys(np.arange(5, dtype=np.int64), np.int64(7))
        assert not memo.lookup(keys).any()
        assert memo.misses == 5

    def test_growth_preserves_verdicts(self):
        memo = PairVerdictMemo()
        n = 20_000  # far beyond the initial 4096-slot capacity
        a = np.arange(n, dtype=np.int64)
        b = a + n
        keys = pack_pair_keys(a, b)
        matched = (a % 3) == 0
        memo.record(keys, matched)
        assert memo.pairs == n
        assert not memo.frozen
        verdicts = memo.lookup(keys)
        assert np.array_equal(verdicts == MATCH, matched)
        assert np.all(verdicts != UNKNOWN)

    def test_freeze_under_budget_pressure(self):
        # Budget allows the initial table only: the first growth attempt
        # freezes the memo, existing verdicts keep serving, new pairs
        # count as evictions.
        memo = PairVerdictMemo(max_bytes=4096 * 9)
        first = pack_pair_keys(
            np.arange(100, dtype=np.int64), np.arange(100, 200, dtype=np.int64)
        )
        memo.record(first, np.ones(100, dtype=bool))
        n = 5000
        more = pack_pair_keys(
            np.arange(1000, 1000 + n, dtype=np.int64),
            np.arange(9000, 9000 + n, dtype=np.int64),
        )
        memo.record(more, np.zeros(n, dtype=bool))
        assert memo.frozen
        assert memo.evictions > 0
        assert np.all(memo.lookup(first) == MATCH)

    @pytest.mark.parametrize("max_bytes", [0, 4096 * 9 - 1])
    def test_budget_below_initial_table_records_nothing(self, max_bytes):
        memo = PairVerdictMemo(max_bytes=max_bytes)
        assert memo.frozen
        # No table at all: nothing allocated, nothing to probe.
        assert memo.stats()["bytes"] == 0
        keys = pack_pair_keys(
            np.arange(10, dtype=np.int64), np.arange(10, 20, dtype=np.int64)
        )
        memo.record(keys, np.ones(10, dtype=bool))
        assert memo.pairs == 0
        assert memo.evictions == 10
        assert np.all(memo.lookup(keys) == UNKNOWN)
        assert (memo.hits, memo.misses) == (0, 10)
        # Clearing on a re-bind keeps the memo frozen and tableless.
        memo.bind(_shingle_store(), ThresholdRule(JaccardDistance("shingles"), 0.5))
        memo.bind(_shingle_store(offset=3), ThresholdRule(JaccardDistance("shingles"), 0.5))
        assert memo.invalidations == 1
        assert memo.frozen
        assert memo.stats()["bytes"] == 0
        memo.record(keys, np.zeros(10, dtype=bool))
        assert (memo.pairs, memo.evictions) == (0, 20)

    def test_empty_batches_are_noops(self):
        memo = PairVerdictMemo()
        empty = np.zeros(0, dtype=np.int64)
        memo.record(empty, np.zeros(0, dtype=bool))
        assert memo.lookup(empty).size == 0
        assert memo.stats()["pairs"] == 0


class TestBinding:
    def _rule(self, threshold=0.5):
        return ThresholdRule(JaccardDistance("shingles"), threshold)

    def _seed(self, memo):
        keys = pack_pair_keys(
            np.array([0], dtype=np.int64), np.array([1], dtype=np.int64)
        )
        memo.record(keys, np.array([True]))
        return keys

    def test_rebind_same_store_and_rule_keeps_table(self):
        store = _shingle_store()
        memo = PairVerdictMemo()
        memo.bind(store, self._rule())
        keys = self._seed(memo)
        memo.bind(store, self._rule())
        assert memo.lookup(keys).tolist() == [MATCH]
        assert memo.invalidations == 0

    def test_rule_change_invalidates(self):
        store = _shingle_store()
        memo = PairVerdictMemo()
        memo.bind(store, self._rule(0.5))
        keys = self._seed(memo)
        memo.bind(store, self._rule(0.6))
        assert memo.lookup(keys).tolist() == [UNKNOWN]
        assert memo.invalidations == 1

    def test_different_store_invalidates(self):
        memo = PairVerdictMemo()
        memo.bind(_shingle_store(offset=0), self._rule())
        keys = self._seed(memo)
        memo.bind(_shingle_store(offset=100), self._rule())
        assert memo.lookup(keys).tolist() == [UNKNOWN]
        assert memo.invalidations == 1

    def test_store_extension_keeps_table(self):
        store = _shingle_store(n=6)
        memo = PairVerdictMemo()
        memo.bind(store, self._rule())
        keys = self._seed(memo)
        extended = store.concat(_shingle_store(n=2, offset=500))
        memo.bind(extended, self._rule())
        assert memo.lookup(keys).tolist() == [MATCH]
        assert memo.invalidations == 0

    def test_fingerprint_distinguishes_rules(self):
        assert rule_fingerprint(self._rule(0.5)) != rule_fingerprint(
            self._rule(0.6)
        )
        assert rule_fingerprint(self._rule(0.5)) == rule_fingerprint(
            self._rule(0.5)
        )

    def test_stats_shape(self):
        memo = PairVerdictMemo()
        stats = memo.stats()
        assert set(stats) == {
            "pairs",
            "bytes",
            "hits",
            "misses",
            "evictions",
            "invalidations",
            "frozen",
            "disabled",
        }
