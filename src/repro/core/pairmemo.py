"""Cross-round memoization of pairwise match verdicts.

The pairwise computation function ``P`` re-verifies the same record
pairs every time a cluster is re-refined — across levels and rounds of
one adaptive run, across repeated :meth:`~repro.core.adaptive.
AdaptiveLSH.run`/:meth:`refine` calls, across streaming
insert-then-query rounds, and across the query lifetime of a
:class:`~repro.serve.ResolverSession`.  The paper's own optimization
(2) only skips candidates *transitively connected within one call*;
:class:`PairVerdictMemo` extends the saving across calls by remembering
every verdict ever computed.

Design:

* one packed ``int64`` key per unordered pair (``min_rid`` in the high
  32 bits, ``max_rid`` in the low 32), stored in an open-addressed
  NumPy table next to a ``uint8`` verdict column;
* a byte budget — when the table would outgrow it, the memo *freezes*:
  existing verdicts keep serving, new pairs pass through unrecorded
  (counted as ``evictions``), and results stay correct either way.  A
  budget below the initial table freezes the memo from the start with
  an empty table, so ``max_bytes=0`` remembers nothing and probes
  nothing;
* a per-record "has a recorded verdict" bit: a pair can be in the
  table only if both its records appear in pairs the table holds, so
  :meth:`lookup` probes only those pairs and counts the rest as misses
  straight away.  On a cold query nothing is probed;
* correctness rests on verdict determinism: a pair's verdict is a pure
  function of the store contents and the match rule, so the memo is
  fingerprinted by both (:meth:`PairVerdictMemo.bind`) and clears
  itself whenever either changes.  Store *extensions* (appending
  records) preserve every existing pair, so a prefix-fingerprint match
  keeps the table.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import ConfigurationError
from ..types import BoolArray, IntArray

if TYPE_CHECKING:
    from ..distance.rules import MatchRule
    from ..obs.observer import RunObserver
    from ..records import RecordStore

#: Default cap on the memo's table bytes (keys + verdicts).  At nine
#: bytes per slot and the 0.6 load ceiling this remembers ~4.5 million
#: pair verdicts.
DEFAULT_MAX_BYTES = 64 << 20

#: Initial table capacity (slots); always a power of two.
_INITIAL_CAPACITY = 1 << 12
#: Grow when ``pairs / capacity`` would exceed 3/5.
_LOAD_NUM, _LOAD_DEN = 3, 5
#: Slot sentinel for "empty" (valid keys are non-negative).
_EMPTY = np.int64(-1)
#: Probes settle keys in vectorized rounds until at most this many are
#: left; those walk their chains one key at a time.  A round costs
#: about as much as a dozen scalar probe steps, and the batch's longest
#: chain (often tens of slots) would otherwise set the round count.
_SCALAR_TAIL = 16
#: Fibonacci-hashing multiplier (splitmix64 finalizer constant).
_MIX = np.uint64(0x9E3779B97F4A7C15)

#: Verdict codes stored in the table / returned by :meth:`lookup`.
UNKNOWN = np.uint8(0)
NO_MATCH = np.uint8(1)
MATCH = np.uint8(2)


def pack_pair_keys(a: IntArray, b: IntArray) -> IntArray:
    """Canonical packed key per unordered pair: ``min << 32 | max``.

    Inputs broadcast like any NumPy binary op, so one record id against
    a candidate array packs without materializing a tiled copy.
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return (lo << np.int64(32)) | hi


def _probe_start(keys: IntArray, mask: int) -> IntArray:
    """Initial probe slot per key (multiplicative hash of the key)."""
    mixed = keys.view(np.uint64) * _MIX
    return (mixed >> np.uint64(32)).astype(np.int64) & np.int64(mask)


def rule_fingerprint(rule: MatchRule) -> str:
    """Stable digest of a match rule's semantics.

    Serializable rule trees digest their canonical spec
    (:func:`repro.io.rule_to_spec`); anything else falls back to
    ``repr``, which every in-repo rule implements deterministically.
    """
    from ..io import rule_to_spec

    try:
        payload = json.dumps(rule_to_spec(rule), sort_keys=True)
    except ConfigurationError:
        payload = repr(rule)
    return hashlib.sha256(payload.encode()).hexdigest()


class PairVerdictMemo:
    """Byte-budgeted table of remembered pairwise match verdicts.

    The memo is shared by every consumer working over one
    ``(store, rule)`` binding — both :class:`~repro.core.pairwise_fn.
    PairwiseComputation` strategies, the lookahead density sampler, and
    (through :class:`~repro.core.adaptive.AdaptiveLSH`) streaming
    refines and serving sessions.  :meth:`bind` establishes or
    re-validates the binding; lookups and records are vectorized over
    packed pair keys.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        self._keys: IntArray
        self._verdicts: np.ndarray[Any, np.dtype[np.uint8]]
        #: Per record id: True once the table holds a verdict involving
        #: it; one trailing False past every id stands for ids beyond.
        self._seen: BoolArray
        #: True once the byte budget blocked a growth step (or, for a
        #: budget below the initial table, from the start): existing
        #: verdicts keep serving, new pairs degrade to pass-through.
        self.frozen = False
        self._new_table()
        #: True when the bound store is too large for 32-bit packing;
        #: every lookup misses and nothing is recorded.
        self.disabled = False
        self._rule_fp: str | None = None
        self._store_fp: str | None = None
        self._n_records = 0
        #: Verdicts served / pairs evaluated fresh / records dropped by
        #: the frozen table (work counters, monotone over the binding).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Times :meth:`bind` discarded the table (fingerprint change).
        self.invalidations = 0
        #: Optional :class:`~repro.obs.observer.RunObserver`; when set
        #: and enabled, lookups feed ``pairmemo.*`` counters.
        self.observer: RunObserver | None = None

    # ------------------------------------------------------------------
    # binding / invalidation
    # ------------------------------------------------------------------
    def bind(self, store: RecordStore, rule: MatchRule) -> None:
        """Bind (or re-validate) the memo against a store and a rule.

        Remembered verdicts survive exactly when the rule fingerprint
        matches and the store still contains the previously bound
        records as a byte-identical prefix — i.e. re-binding after a
        store *extension* keeps the table, while a different store, a
        mutated prefix, or a different rule clears it.
        """
        if len(store) > (1 << 32) - 1:
            # Packed keys hold two 32-bit ids; beyond that the memo
            # degrades to a no-op rather than corrupting verdicts.
            self.disabled = True
            self._clear()
            return
        self.disabled = False
        rule_fp = rule_fingerprint(rule)
        compatible = (
            self._rule_fp == rule_fp
            and self._store_fp is not None
            and len(store) >= self._n_records
            and store.content_fingerprint(limit=self._n_records) == self._store_fp
        )
        if not compatible and self._rule_fp is not None:
            self.invalidations += 1
            self._clear()
        self._rule_fp = rule_fp
        self._n_records = len(store)
        self._store_fp = store.content_fingerprint()
        self._grow_seen(self._n_records)

    def _new_table(self) -> None:
        """Start an empty table: the initial capacity when the budget
        holds it, else zero slots and frozen for good (an empty table
        must never reach :meth:`_ensure_room`, which cannot double 0)."""
        fits = _INITIAL_CAPACITY * 9 <= self.max_bytes
        capacity = _INITIAL_CAPACITY if fits else 0
        self._keys = np.full(capacity, _EMPTY, dtype=np.int64)
        self._verdicts = np.zeros(capacity, dtype=np.uint8)
        self._seen = np.zeros(1, dtype=bool)
        self._pairs = 0
        self.frozen = not fits

    def _grow_seen(self, n: int) -> None:
        """Extend the per-record bits to ids ``0..n-1`` (new ids unseen)
        plus the trailing False."""
        if n >= self._seen.size:
            seen = np.zeros(n + 1, dtype=bool)
            seen[: self._seen.size] = self._seen
            self._seen = seen

    def _clear(self) -> None:
        self._new_table()
        self._rule_fp = None
        self._store_fp = None
        self._n_records = 0

    # ------------------------------------------------------------------
    # lookup / record
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return int(self._keys.size)

    @property
    def pairs(self) -> int:
        """Distinct pair verdicts currently remembered."""
        return self._pairs

    @property
    def table_bytes(self) -> int:
        return int(self._keys.nbytes + self._verdicts.nbytes)

    def _find_slots(self, keys: IntArray) -> IntArray:
        """Per key: the slot holding it, or the empty slot where an
        insertion probe for it terminates (linear probing)."""
        mask = self.capacity - 1
        idx = _probe_start(keys, mask)
        out = np.empty(keys.size, dtype=np.int64)
        pending = np.arange(keys.size)
        table = self._keys
        while pending.size > _SCALAR_TAIL:
            cur = idx[pending]
            occupant = table[cur]
            done = (occupant == keys[pending]) | (occupant == _EMPTY)
            out[pending[done]] = cur[done]
            pending = pending[~done]
            idx[pending] = (idx[pending] + 1) & mask
        for p in pending.tolist():
            out[p] = self._probe_one(int(keys[p]), int(idx[p]), mask)
        return out

    def _probe_one(self, key: int, slot: int, mask: int) -> int:
        """Scalar probe: the slot holding ``key`` or ending its probe."""
        table = self._keys
        while True:
            occupant = table[slot]
            if occupant == key or occupant == _EMPTY:
                return slot
            slot = (slot + 1) & mask

    def lookup(self, keys: IntArray) -> np.ndarray[Any, np.dtype[np.uint8]]:
        """Remembered verdicts for packed pair ``keys``.

        Returns one code per key: :data:`MATCH`, :data:`NO_MATCH`, or
        :data:`UNKNOWN` for pairs never recorded; every key counts as a
        hit or a miss.
        """
        if self.disabled or keys.size == 0:
            return np.zeros(keys.size, dtype=np.uint8)
        verdicts = np.zeros(keys.size, dtype=np.uint8)
        if self._pairs:
            # Probe only the pairs whose records both have a verdict;
            # ids past the bits clip onto the trailing False.
            seen = self._seen
            probe = seen.take(keys >> np.int64(32), mode="clip")
            probe &= seen.take(keys & np.int64(0xFFFFFFFF), mode="clip")
            if probe.all():
                verdicts = self._probe(keys)
            elif probe.any():
                verdicts[probe] = self._probe(keys[probe])
        hits = int(np.count_nonzero(verdicts))
        self._record_counts(hits, int(keys.size) - hits, 0)
        return verdicts

    def _probe(self, keys: IntArray) -> np.ndarray[Any, np.dtype[np.uint8]]:
        """Table verdicts of ``keys`` (:data:`UNKNOWN` where absent)."""
        slots = self._find_slots(keys)
        return np.where(self._keys[slots] == keys, self._verdicts[slots], UNKNOWN)

    def record(self, keys: IntArray, matched: BoolArray) -> None:
        """Remember fresh verdicts: ``matched[i]`` for pair ``keys[i]``.

        Keys already present are overwritten (the verdict is identical
        by determinism); new keys are inserted while the byte budget
        allows and silently dropped — counted as evictions — once the
        memo is frozen.
        """
        if self.disabled or keys.size == 0:
            return
        if not self.capacity:
            self._record_counts(0, 0, int(keys.size))
            return
        verdicts = np.where(matched, MATCH, NO_MATCH).astype(np.uint8)
        if not self.frozen and not self._ensure_room(int(keys.size)):
            self.frozen = True
        if self.frozen:
            slots = self._find_slots(keys)
            present = self._keys[slots] == keys
            dropped = int(np.count_nonzero(~present))
            if dropped:
                self._record_counts(0, 0, dropped)
            self._verdicts[slots[present]] = verdicts[present]
            return
        self._insert(keys, verdicts)

    def _ensure_room(self, incoming: int) -> bool:
        """Grow until ``pairs + incoming`` fits under the load ceiling;
        False when the byte budget forbids the required capacity."""
        needed = self._pairs + incoming
        capacity = self.capacity
        while needed * _LOAD_DEN > capacity * _LOAD_NUM:
            capacity *= 2
        if capacity == self.capacity:
            return True
        if capacity * 9 > self.max_bytes:
            return False
        old_keys = self._keys
        old_verdicts = self._verdicts
        live = old_keys != _EMPTY
        self._keys = np.full(capacity, _EMPTY, dtype=np.int64)
        self._verdicts = np.zeros(capacity, dtype=np.uint8)
        self._pairs = 0
        self._insert(old_keys[live], old_verdicts[live])
        return True

    def _insert(
        self, keys: IntArray, verdicts: np.ndarray[Any, np.dtype[np.uint8]]
    ) -> None:
        """Batch insert via scatter-and-verify linear probing.

        The batch is deduplicated first (the last verdict of a repeated
        key wins, as a sequence of single inserts would leave it), so
        every slot a round fills holds a different key and counts as
        one new pair.  Several distinct keys may race for the same
        empty slot within one round; the scatter write lets the last
        one win, the re-read identifies winners, and losers re-probe
        from the next slot.  Each round settles at least one key, so
        the loop terminates.
        """
        if keys.size > 1:
            last = keys.size - 1 - np.unique(keys[::-1], return_index=True)[1]
            if last.size < keys.size:
                keys, verdicts = keys[last], verdicts[last]
        if keys.size:
            hi = keys & np.int64(0xFFFFFFFF)
            self._grow_seen(int(hi.max()) + 1)
            self._seen[keys >> np.int64(32)] = True
            self._seen[hi] = True
        mask = self.capacity - 1
        idx = _probe_start(keys, mask)
        pending = np.arange(keys.size)
        while pending.size > _SCALAR_TAIL:
            cur = idx[pending]
            occupant = self._keys[cur]
            empty = occupant == _EMPTY
            claim = pending[empty]
            self._keys[cur[empty]] = keys[claim]
            won = self._keys[cur] == keys[pending]
            self._verdicts[cur[won]] = verdicts[pending[won]]
            self._pairs += int(np.count_nonzero(won & empty))
            pending = pending[~won]
            idx[pending] = (idx[pending] + 1) & mask
        # The last few keys go one at a time, so no race remains.
        for p in pending.tolist():
            key = int(keys[p])
            slot = self._probe_one(key, int(idx[p]), mask)
            if self._keys[slot] == _EMPTY:
                self._keys[slot] = key
                self._pairs += 1
            self._verdicts[slot] = verdicts[p]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _record_counts(self, hits: int, misses: int, evictions: int) -> None:
        self.hits += hits
        self.misses += misses
        self.evictions += evictions
        obs = self.observer
        if obs is not None and obs.enabled:
            if hits:
                obs.counter("pairmemo.hits").inc(hits)
            if misses:
                obs.counter("pairmemo.misses").inc(misses)
            if evictions:
                obs.counter("pairmemo.evictions").inc(evictions)

    def stats(self) -> dict[str, Any]:
        """Memo summary for run reports (`info["memoized_pairs"]`)."""
        return {
            "pairs": int(self._pairs),
            "bytes": self.table_bytes,
            "hits": int(self.hits),
            "misses": int(self.misses),
            "evictions": int(self.evictions),
            "invalidations": int(self.invalidations),
            "frozen": bool(self.frozen),
            "disabled": bool(self.disabled),
        }
