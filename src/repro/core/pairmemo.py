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
  (counted as ``evictions``), and results stay correct either way;
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
import os
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import ConfigurationError
from ..types import BoolArray, IntArray

if TYPE_CHECKING:
    from ..distance.rules import MatchRule
    from ..obs.observer import RunObserver
    from ..records import RecordStore

#: Environment variable consulted when ``AdaptiveConfig.pair_memo`` is
#: ``None``; the CLI's ``--no-pair-memo`` flag sets it so the knob
#: reaches every component without threading a parameter through each
#: call site (same pattern as ``REPRO_N_JOBS``).
PAIR_MEMO_ENV = "REPRO_PAIR_MEMO"

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
#: Fibonacci-hashing multiplier (splitmix64 finalizer constant).
_MIX = np.uint64(0x9E3779B97F4A7C15)

#: Verdict codes stored in the table / returned by :meth:`lookup`.
UNKNOWN = np.uint8(0)
NO_MATCH = np.uint8(1)
MATCH = np.uint8(2)


def resolve_pair_memo(flag: bool | None = None) -> bool:
    """Resolve the ``pair_memo`` knob to a concrete on/off decision.

    ``None`` falls back to the ``REPRO_PAIR_MEMO`` environment variable
    and to *enabled* when that is unset.
    """
    if flag is not None:
        return bool(flag)
    raw = os.environ.get(PAIR_MEMO_ENV, "").strip().lower()
    if not raw:
        return True
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(
        f"{PAIR_MEMO_ENV} must be a boolean flag (0/1), got {raw!r}"
    )


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
        self._keys: IntArray = np.full(_INITIAL_CAPACITY, _EMPTY, dtype=np.int64)
        self._verdicts = np.zeros(_INITIAL_CAPACITY, dtype=np.uint8)
        self._pairs = 0
        #: True once the byte budget blocked a growth step: existing
        #: verdicts keep serving, new pairs degrade to pass-through.
        self.frozen = False
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

    def _clear(self) -> None:
        self._keys = np.full(_INITIAL_CAPACITY, _EMPTY, dtype=np.int64)
        self._verdicts = np.zeros(_INITIAL_CAPACITY, dtype=np.uint8)
        self._pairs = 0
        self.frozen = False
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
        while pending.size:
            cur = idx[pending]
            occupant = table[cur]
            done = (occupant == keys[pending]) | (occupant == _EMPTY)
            out[pending[done]] = cur[done]
            pending = pending[~done]
            idx[pending] = (idx[pending] + 1) & mask
        return out

    def lookup(self, keys: IntArray) -> np.ndarray[Any, np.dtype[np.uint8]]:
        """Remembered verdicts for packed pair ``keys``.

        Returns one code per key: :data:`MATCH`, :data:`NO_MATCH`, or
        :data:`UNKNOWN` for pairs never recorded.
        """
        if self.disabled or keys.size == 0:
            return np.zeros(keys.size, dtype=np.uint8)
        slots = self._find_slots(keys)
        verdicts: np.ndarray[Any, np.dtype[np.uint8]] = np.where(
            self._keys[slots] == keys, self._verdicts[slots], UNKNOWN
        )
        hits = int(np.count_nonzero(verdicts))
        self._record_counts(hits, int(keys.size) - hits, 0)
        return verdicts

    def record(self, keys: IntArray, matched: BoolArray) -> None:
        """Remember fresh verdicts: ``matched[i]`` for pair ``keys[i]``.

        Keys already present are overwritten (the verdict is identical
        by determinism); new keys are inserted while the byte budget
        allows and silently dropped — counted as evictions — once the
        memo is frozen.
        """
        if self.disabled or keys.size == 0:
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

        Several distinct keys may race for the same empty slot within
        one batch; the scatter write lets the last one win, the
        re-read identifies winners, and losers re-probe from the next
        slot.  Each round settles at least one key, so the loop
        terminates.
        """
        mask = self.capacity - 1
        idx = _probe_start(keys, mask)
        pending = np.arange(keys.size)
        while pending.size:
            cur = idx[pending]
            occupant = self._keys[cur]
            empty = occupant == _EMPTY
            claim = pending[empty]
            self._keys[cur[empty]] = keys[claim]
            won = self._keys[cur] == keys[pending]
            self._verdicts[cur[won]] = verdicts[pending[won]]
            # Count distinct newly-filled slots: duplicate keys in one
            # batch all "win" the same slot but fill it only once.
            self._pairs += int(np.unique(cur[won & empty]).size)
            pending = pending[~won]
            idx[pending] = (idx[pending] + 1) & mask

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
