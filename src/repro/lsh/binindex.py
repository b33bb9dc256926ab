"""Persistent per-level bin index: CSR collision groups from u64
fingerprints, plus delta candidate generation for streams.

:meth:`~repro.lsh.scheme.HashingScheme.iter_table_collisions` packs
every record's key bytes and memcmp-sorts them, table by table, on every
``run``/``refine``.  Hash *values* are incremental (Property 4); this
module makes the bucket work cheap and incremental too:

* **Fingerprints from the pools** — each (record, table) key is mixed
  to one ``uint64`` (splitmix64 over the key's big-endian words).  The
  words are assembled straight from
  :class:`~repro.lsh.families.SignaturePool` columns, one NumPy pass
  per key element across all tables of a group; no packed key rows are
  ever built.
* **One grouping pass per level** — :func:`group_table` sorts the whole
  ``(records, tables)`` fingerprint matrix at once.  Only rows inside
  multi-member fingerprint runs (the collision candidates) have their
  key words gathered from the pools, for a byte-exact tie-break inside
  fingerprint-equal runs and a final reorder that emits groups in the
  legacy order: table, then byte-lexicographic key.  Group content and
  order are therefore bit-identical to the legacy void-argsort path
  (the order matters: it is the union order of the parent-pointer
  forest).
* **Distinct edges** — the level's ``(head, member)`` union edges keep
  only their first occurrence; a repeated edge is a union no-op, so the
  clusters, their leaf order and their emission order are unchanged.
* **Fingerprint persistence** — each :class:`LevelBins` caches the
  ``(n_records, n_tables)`` fingerprint matrix under a byte budget;
  over budget means "compute, don't store", never "fail".
* **Delta candidate generation** — :class:`H1DeltaIndex` keeps the
  first level's per-table ``(fingerprint, rid)`` arrays sorted across
  insert batches.  A new batch merge-inserts its keys and emits
  candidate pairs from touched buckets only, so a streaming refine
  after ``insert_records`` re-groups the arriving records instead of
  the whole store.

Byte comparisons ride on one invariant: a table's key is the native
bytes of its hstack-promoted block of hash values, and those bytes read
as big-endian ``uint64`` words (zero-padded at the tail) compare, word
tuple against word tuple, exactly like ``memcmp`` — so ``np.lexsort``
over the word columns reproduces the legacy byte-lexicographic order.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import ConfigurationError
from ..kernels.base import _splitmix64
from ..obs.clock import monotonic
from ..types import AnyArray, BoolArray, IntArray

if TYPE_CHECKING:
    from ..obs.observer import RunObserver
    from ..structures.union_find import UnionFind
    from .scheme import HashingScheme, TableGroup

#: Environment variable consulted when ``AdaptiveConfig.bin_index`` is
#: ``None``; the CLI's ``--no-bin-index`` flag sets it so the knob
#: reaches every component without threading a parameter through each
#: call site (same pattern as ``REPRO_PAIR_MEMO``).
BIN_INDEX_ENV = "REPRO_BIN_INDEX"

#: Default cap on total index bytes (fingerprint matrices plus delta
#: arrays) per method instance; structures that would exceed it degrade
#: to pass-through.
DEFAULT_MAX_BYTES = 128 << 20

#: Fingerprinting processes records in chunks whose key words take
#: about this many bytes, so a wide level never holds all its keys.
CHUNK_BYTES = 16 << 20

#: CSR collision groups: ``members`` concatenates the row positions of
#: every group; ``starts[i]:starts[i+1]`` spans group ``i``.
CsrGroups = tuple[IntArray, IntArray]

#: ``words_of(tables, positions)``: big-endian key words of row
#: ``positions[i]`` in table ``tables[i]``, one row per entry.
WordsFn = Callable[[IntArray, IntArray], AnyArray]


def resolve_bin_index(flag: bool | None = None) -> bool:
    """Resolve the ``bin_index`` knob to a concrete on/off decision.

    ``None`` falls back to the ``REPRO_BIN_INDEX`` environment variable
    and to *enabled* when that is unset.
    """
    if flag is not None:
        return bool(flag)
    raw = os.environ.get(BIN_INDEX_ENV, "").strip().lower()
    if not raw:
        return True
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(
        f"{BIN_INDEX_ENV} must be a boolean flag (0/1), got {raw!r}"
    )


# ----------------------------------------------------------------------
# Key words and fingerprints, straight from the signature pools
def _key_dtype(group: TableGroup) -> np.dtype[Any]:
    """Element dtype of a group's keys: what ``np.hstack`` promotes the
    uses' hash values to."""
    return np.result_type(*(use.pool.family.dtype for use in group.uses))


def _n_words(group: TableGroup) -> int:
    return -(-group.hashes_per_table * _key_dtype(group).itemsize // 8)


def _words(blocks: list[AnyArray], dtype: np.dtype[Any]) -> AnyArray:
    """Big-endian ``uint64`` words of keys that concatenate ``blocks``
    (hash values shaped ``(..., w_u)``, one per pool use) along the last
    axis, after promotion to ``dtype``: shape ``(..., n_words)``.

    The key bytes are the native bytes of the promoted values (what
    ``np.hstack`` builds); every itemsize divides 8, so zero-padding the
    values to whole words and reading them as ``>u8`` gives the words.
    """
    per_word = 8 // dtype.itemsize
    total = sum(block.shape[-1] for block in blocks)
    key = np.zeros(
        (*blocks[0].shape[:-1], -(-total // per_word) * per_word), dtype=dtype
    )
    base = 0
    for block in blocks:
        key[..., base : base + block.shape[-1]] = block
        base += block.shape[-1]
    return key.view(">u8").astype(np.uint64)


def _mix(words: AnyArray) -> AnyArray:
    """splitmix64 chain over the key words on the last axis: equal keys
    always fingerprint equally; unequal keys collide with probability
    ~2^-64, and the grouping tie-break makes even those collisions
    harmless."""
    fp = _splitmix64(words[..., 0])
    for j in range(1, words.shape[-1]):
        fp = _splitmix64(fp ^ words[..., j])
    return np.asarray(fp, dtype=np.uint64)


def table_fingerprints(scheme: HashingScheme, rids: IntArray) -> AnyArray:
    """Every table's key fingerprints for ``rids``: ``(len(rids),
    table_count)`` uint64.

    Each group's pool columns are read as ``(records, tables, w)``
    views, so all of a group's tables are keyed and mixed together;
    records go in chunks that keep the key words near
    :data:`CHUNK_BYTES`.
    """
    m = rids.size
    out = np.empty((m, scheme.table_count), dtype=np.uint64)
    t0 = 0
    for group in scheme.groups:
        z = group.z
        for use in group.uses:
            use.pool.ensure(rids, use.offset + z * use.w)
        step = max(1, CHUNK_BYTES // (z * _n_words(group) * 8))
        for lo in range(0, m, step):
            chunk = rids[lo : lo + step]
            blocks = [
                use.pool.signatures(chunk, use.offset + z * use.w)[
                    :, use.offset :
                ].reshape(chunk.size, z, use.w)
                for use in group.uses
            ]
            out[lo : lo + step, t0 : t0 + z] = _mix(
                _words(blocks, _key_dtype(group))
            )
        t0 += z
    return out


def key_words(
    scheme: HashingScheme, tables: IntArray, rids: IntArray
) -> AnyArray:
    """Big-endian key words of record ``rids[i]`` in table ``tables[i]``:
    ``(n, max words per key)`` uint64, zero-padded.  One fancy index
    per pool use reads the keys' hash values from the pool columns."""

    def group_words(group: TableGroup, sub: IntArray, local: IntArray) -> AnyArray:
        blocks = [
            use.pool.table_values(sub, local, use.w, use.offset, group.z)
            for use in group.uses
        ]
        return _words(blocks, _key_dtype(group))

    if len(scheme.groups) == 1:
        return group_words(scheme.groups[0], rids, tables)
    width = max(_n_words(group) for group in scheme.groups)
    out = np.zeros((rids.size, width), dtype=np.uint64)
    t0 = 0
    for group in scheme.groups:
        sel = np.flatnonzero((tables >= t0) & (tables < t0 + group.z))
        if sel.size:
            words = group_words(group, rids[sel], tables[sel] - t0)
            out[sel, : words.shape[1]] = words
        t0 += group.z
    return out


# ----------------------------------------------------------------------
# CSR grouping
def _empty_csr() -> CsrGroups:
    return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)


def group_table(fps: AnyArray, words_of: WordsFn) -> CsrGroups:
    """CSR collision groups of every table, from per-row fingerprints.

    ``fps`` is ``(m, n_tables)`` (or ``(m,)`` for one table).
    ``words_of(tables, positions)`` must return the big-endian key
    words of the given (table, row) entries; it is called once, with
    only the entries that sit inside multi-member fingerprint runs (the
    collision candidates).

    The output is bit-identical — group content *and* order — to the
    legacy void-argsort grouping run table by table: groups are >= 2
    rows sharing the exact key bytes of one table, emitted table by
    table and, within a table, in byte-lexicographic key order, with
    members in ascending row position.
    """
    fps = np.asarray(fps, dtype=np.uint64)
    if fps.ndim == 1:
        fps = fps[:, None]
    m, n_tables = fps.shape
    if m < 2 or n_tables == 0:
        return _empty_csr()
    # One sort per level, rows = tables, so flat index t * m + i walks
    # the tables in order.  Each entry packs the fingerprint's top bits
    # over the row position: a plain value sort is then a stable
    # fingerprint argsort.  Equal keys share one run with positions
    # ascending; keys whose fingerprints agree only in the top bits are
    # split by the byte tie-break below, like any other collision.
    bits = np.uint64(max(1, (m - 1).bit_length()))
    packed = fps.T.copy()
    packed >>= bits
    packed <<= bits
    packed |= np.arange(m, dtype=np.uint64)
    packed.sort(axis=1)
    high = packed >> bits
    # continues[t, i]: sorted entry i extends entry i - 1's run.
    continues = np.zeros((n_tables, m), dtype=bool)
    np.equal(high[:, 1:], high[:, :-1], out=continues[:, 1:])
    in_run = continues.copy()
    in_run[:, :-1] |= continues[:, 1:]
    sel = np.flatnonzero(in_run)
    if sel.size == 0:
        return _empty_csr()
    run_head = ~continues.ravel()[sel]
    cand = (packed.ravel()[sel] & ((np.uint64(1) << bits) - np.uint64(1))).astype(
        np.int64
    )
    tables = sel // m
    words = words_of(tables, cand)
    total = cand.size
    new_key = np.ones(total, dtype=bool)
    new_key[1:] = (words[1:] != words[:-1]).any(axis=1)
    collided = new_key & ~run_head
    if bool(collided.any()):
        # True fingerprint collisions: a run holds more than one
        # distinct key.  Stable-sort each affected run by its key words
        # so equal keys become contiguous while rows within a key keep
        # their ascending positions (a run never spans two tables).
        bounds = np.append(np.flatnonzero(run_head), total)
        run_of = np.cumsum(run_head) - 1
        for r in np.unique(run_of[collided]).tolist():
            s, e = int(bounds[r]), int(bounds[r + 1])
            sub = np.lexsort(words[s:e].T[::-1])
            cand[s:e] = cand[s:e][sub]
            words[s:e] = words[s:e][sub]
        new_key[1:] = (words[1:] != words[:-1]).any(axis=1)
    is_start = np.ones(total + 1, dtype=bool)
    np.logical_or(run_head, new_key, out=is_start[:-1])
    bounds = np.flatnonzero(is_start)
    lens = bounds[1:] - bounds[:-1]
    keep = lens >= 2
    g_starts = bounds[:-1][keep]
    lens = lens[keep]
    if g_starts.size == 0:
        return _empty_csr()
    if g_starts.size > 1:
        # Fingerprint runs are ordered by fingerprint; the legacy path
        # emits table by table, each in byte-lexicographic key order.
        rep_order = np.lexsort((*words[g_starts].T[::-1], tables[g_starts]))
        g_starts = g_starts[rep_order]
        lens = lens[rep_order]
    starts = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=starts[1:])
    pos = np.arange(int(starts[-1]), dtype=np.int64) + np.repeat(
        g_starts - starts[:-1], lens
    )
    return cand[pos], starts


def csr_edges(
    members: IntArray, starts: IntArray
) -> tuple[IntArray, IntArray]:
    """The union edges a forest replay of CSR groups performs:
    ``(head, member)`` for every non-head member, in group order."""
    lens = starts[1:] - starts[:-1]
    heads = np.repeat(members[starts[:-1]], lens - 1)
    is_head = np.zeros(members.size, dtype=bool)
    is_head[starts[:-1]] = True
    return heads, members[~is_head]


def distinct_edges(
    heads: IntArray, members: IntArray, n: int
) -> tuple[IntArray, IntArray]:
    """Edges over ``0..n-1`` with repeats dropped, first occurrences
    kept in order.  Exact for any union-find replay: a repeated edge
    joins endpoints its first occurrence already joined."""
    if heads.size < 2:
        return heads, members
    keys = heads * n + members
    order = np.argsort(keys)
    run_start = np.empty(order.size, dtype=bool)
    run_start[0] = True
    np.not_equal(keys[order[1:]], keys[order[:-1]], out=run_start[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(run_start))
    first.sort()
    return heads[first], members[first]


# ----------------------------------------------------------------------
class LevelBins:
    """One sequence level's persistent fingerprint matrix plus the
    level-at-once grouping used by
    :class:`~repro.core.transitive.TransitiveHashingFunction`."""

    def __init__(self, owner: SchemeBinIndex, level: int) -> None:
        self._owner = owner
        self.level = level
        #: False until the first application sized (or declined) the
        #: fingerprint matrix against the byte budget.
        self._sized = False
        self._fps: AnyArray | None = None
        self._have: BoolArray = np.zeros(0, dtype=bool)

    def fingerprints(self, scheme: HashingScheme, rids: IntArray) -> AnyArray:
        """Per-table fingerprints for ``rids``: ``(len(rids),
        table_count)`` uint64.

        Cached fingerprints are served without touching the pools;
        missing ones are computed from the pool columns and stored when
        the byte budget allows.
        """
        owner = self._owner
        if not self._sized:
            self._sized = True
            n_tables = scheme.table_count
            if owner.reserve(owner.n_records * (n_tables * 8 + 1)):
                self._fps = np.zeros(
                    (owner.n_records, n_tables), dtype=np.uint64
                )
                self._have = np.zeros(owner.n_records, dtype=bool)
            else:
                owner.degraded += 1
        if self._fps is None:
            # Over the byte budget: stay a pass-through.
            owner.record_fp(0, int(rids.size))
            return table_fingerprints(scheme, rids)
        known = self._have[rids]
        hits = int(known.sum())
        if hits < rids.size:
            missing = rids[~known]
            self._fps[missing] = table_fingerprints(scheme, missing)
            self._have[missing] = True
        owner.record_fp(hits, int(rids.size) - hits)
        return self._fps[rids]

    def edges(
        self, scheme: HashingScheme, rids: IntArray
    ) -> tuple[IntArray, IntArray]:
        """The distinct union edges of one application of this level to
        ``rids``, as row positions, in the order the legacy per-table
        forest replay first performs them."""
        owner = self._owner
        obs = owner.observer
        timed = obs is not None and obs.enabled
        started = monotonic() if timed else 0.0
        fps = self.fingerprints(scheme, rids)
        members, starts = group_table(
            fps,
            lambda tables, positions: key_words(
                scheme, tables, rids[positions]
            ),
        )
        owner.record_group(
            scheme.table_count, int(rids.size), int(starts.size - 1)
        )
        heads, others = csr_edges(members, starts)
        if scheme.table_count > 1:
            heads, others = distinct_edges(heads, others, int(rids.size))
        if timed:
            assert obs is not None
            obs.histogram("binindex.level_group_seconds").observe(
                monotonic() - started
            )
        return heads, others


# ----------------------------------------------------------------------
class SchemeBinIndex:
    """All levels' :class:`LevelBins` plus the shared byte budget,
    counters, and the streaming :class:`H1DeltaIndex` factory.

    One instance lives per :class:`~repro.core.adaptive.AdaptiveLSH`,
    wired onto each
    :class:`~repro.core.transitive.TransitiveHashingFunction` during
    ``_install_prepared_state``.
    """

    def __init__(
        self, n_records: int, max_bytes: int = DEFAULT_MAX_BYTES
    ) -> None:
        self.n_records = int(n_records)
        self.max_bytes = int(max_bytes)
        self._reserved = 0
        self._levels: dict[int, LevelBins] = {}
        #: Optional :class:`~repro.obs.observer.RunObserver`; when set
        #: and enabled, grouping work feeds ``binindex.*`` counters.
        self.observer: RunObserver | None = None
        self.fp_hits = 0
        self.fp_misses = 0
        self.tables_grouped = 0
        self.rows_grouped = 0
        self.collision_groups = 0
        self.delta_batches = 0
        self.delta_rows = 0
        self.delta_pairs = 0
        self.delta_buckets = 0
        #: Structures that fell back to pass-through (or dict tables)
        #: because the byte budget was exhausted.
        self.degraded = 0

    def level(self, level: int) -> LevelBins:
        """The (lazily created) bin index of one sequence level."""
        if level not in self._levels:
            self._levels[level] = LevelBins(self, level)
        return self._levels[level]

    def reserve(self, nbytes: int) -> bool:
        """Try to claim ``nbytes`` of the byte budget."""
        if self._reserved + nbytes > self.max_bytes:
            return False
        self._reserved += nbytes
        return True

    @property
    def indexed_bytes(self) -> int:
        return self._reserved

    def h1_delta(
        self, scheme: HashingScheme, state: dict[str, Any] | None = None
    ) -> H1DeltaIndex | None:
        """A first-level delta index, optionally warm-started from a
        prior index's :meth:`H1DeltaIndex.export_state`.

        Returns ``None`` when a carried state cannot be adopted (table
        layout changed, or its arrays exceed the byte budget) — the
        caller then rebuilds from scratch, which is always correct.
        """
        delta = H1DeltaIndex(self, scheme, self.level(1))
        if state is not None and not delta.adopt_state(state):
            return None
        return delta

    def record_fp(self, hits: int, misses: int) -> None:
        self.fp_hits += hits
        self.fp_misses += misses
        obs = self.observer
        if obs is not None and obs.enabled:
            if hits:
                obs.counter("binindex.fp_hits").inc(hits)
            if misses:
                obs.counter("binindex.fp_misses").inc(misses)

    def record_group(self, tables: int, rows: int, groups: int) -> None:
        """Count one level-at-once grouping of ``rows`` records in each
        of ``tables`` tables."""
        self.tables_grouped += tables
        self.rows_grouped += tables * rows
        self.collision_groups += groups
        obs = self.observer
        if obs is not None and obs.enabled:
            obs.counter("binindex.tables_grouped").inc(tables)
            obs.counter("binindex.rows_grouped").inc(tables * rows)
            obs.counter("binindex.collision_groups").inc(groups)

    def record_delta(self, rows: int, pairs: int, buckets: int) -> None:
        self.delta_batches += 1
        self.delta_rows += rows
        self.delta_pairs += pairs
        self.delta_buckets += buckets
        obs = self.observer
        if obs is not None and obs.enabled:
            obs.counter("binindex.delta_rows").inc(rows)
            if pairs:
                obs.counter("binindex.delta_pairs").inc(pairs)
            if buckets:
                obs.counter("binindex.delta_buckets").inc(buckets)

    def stats(self) -> dict[str, Any]:
        """Index summary for run reports (``info["bin_index"]``)."""
        return {
            "levels": len(self._levels),
            "bytes": int(self._reserved),
            "fp_hits": int(self.fp_hits),
            "fp_misses": int(self.fp_misses),
            "tables_grouped": int(self.tables_grouped),
            "rows_grouped": int(self.rows_grouped),
            "collision_groups": int(self.collision_groups),
            "degraded": int(self.degraded),
            "delta": {
                "batches": int(self.delta_batches),
                "rows": int(self.delta_rows),
                "pairs": int(self.delta_pairs),
                "buckets": int(self.delta_buckets),
            },
        }


# ----------------------------------------------------------------------
class H1DeltaIndex:
    """Persistent sorted ``(fingerprint, rid)`` arrays for the first
    level's tables, with delta candidate-pair emission per insert batch.

    The dict-table streaming front-end it replaces maintains one
    invariant: records sharing a table's exact bucket key are connected
    in the union-find.  The delta index maintains the same invariant —
    batch-internal groups are byte-verified through
    :func:`group_table`, and matches against existing buckets are
    byte-verified against the bucket head (with a rare full-run scan
    when 64-bit fingerprints collide) — so the resulting partition, and
    therefore every downstream coarse cluster and refine, is identical.
    """

    def __init__(
        self, owner: SchemeBinIndex, scheme: HashingScheme, bins: LevelBins
    ) -> None:
        self._owner = owner
        self._scheme = scheme
        self._bins = bins
        self._fps: list[AnyArray] = []
        self._rids: list[IntArray] = []

    @property
    def indexed_records(self) -> int:
        return int(self._fps[0].size) if self._fps else 0

    def export_state(self) -> dict[str, Any]:
        """Carryable view of the sorted per-table arrays.

        Fingerprints are a pure function of each record's key bytes, so
        the state stays valid across the snapshot re-seat of a store
        extension (old records keep their signatures bit-identically).
        """
        return {
            "table_count": self._scheme.table_count,
            "fps": [fp.copy() for fp in self._fps],
            "rids": [rid.copy() for rid in self._rids],
        }

    def adopt_state(self, state: dict[str, Any]) -> bool:
        """Adopt a prior index's arrays; ``False`` leaves this index
        empty (layout mismatch or byte budget exhausted)."""
        if int(state["table_count"]) != self._scheme.table_count:
            return False
        fps = [np.asarray(fp, dtype=np.uint64) for fp in state["fps"]]
        rids = [np.asarray(rid, dtype=np.int64) for rid in state["rids"]]
        if len(fps) != self._scheme.table_count or len(fps) != len(rids):
            return False
        nbytes = sum(fp.size for fp in fps) * 16
        if not self._owner.reserve(nbytes):
            self._owner.degraded += 1
            return False
        self._fps = fps
        self._rids = rids
        return True

    def insert(self, rids: IntArray, uf: UnionFind) -> bool:
        """Merge-insert a batch and union its delta candidate pairs.

        Returns ``False`` — with no state mutated — when the byte
        budget cannot cover the batch; the caller falls back to plain
        dict tables (see ``StreamingTopK._fallback_to_tables``).
        """
        rids = np.asarray(rids, dtype=np.int64)
        if rids.size == 0:
            return True
        scheme = self._scheme
        n_tables = scheme.table_count
        fps = self._bins.fingerprints(scheme, rids)
        if not self._fps:
            self._fps = [np.empty(0, dtype=np.uint64)] * n_tables
            self._rids = [np.empty(0, dtype=np.int64)] * n_tables
        if not self._owner.reserve(int(rids.size) * n_tables * 16):
            self._owner.degraded += 1
            return False
        # Batch-internal candidate pairs: byte-verified groups of every
        # table at once.
        members, starts = group_table(
            fps,
            lambda tables, positions: key_words(
                scheme, tables, rids[positions]
            ),
        )
        heads, others = csr_edges(members, starts)
        pairs = int(others.size)
        buckets = int(starts.size - 1)
        uf.union_edges(rids[heads], rids[others])
        # Delta pairs against existing buckets: every new row whose
        # fingerprint hits an existing run is byte-verified against the
        # run head; mismatches scan the run (real fingerprint
        # collisions only).
        order = np.argsort(fps, axis=0, kind="stable")
        old_rids = self._rids
        new_fps: list[AnyArray] = []
        new_rids: list[IntArray] = []
        hits: list[tuple[int, IntArray, IntArray, IntArray]] = []
        for t in range(n_tables):
            ex_fp, ex_rid = self._fps[t], old_rids[t]
            rows = order[:, t]
            sfp = fps[rows, t]
            lo = np.searchsorted(ex_fp, sfp, side="left")
            hi = np.searchsorted(ex_fp, sfp, side="right")
            midx = np.flatnonzero(hi > lo)
            if midx.size:
                hits.append((t, rows[midx], lo[midx], hi[midx]))
            new_fps.append(np.insert(ex_fp, hi, sfp))
            new_rids.append(np.insert(ex_rid, hi, rids[rows]))
        if hits:
            tables = np.concatenate(
                [np.full(rows.size, t, dtype=np.int64) for t, rows, _, _ in hits]
            )
            rows = np.concatenate([hit[1] for hit in hits])
            lo = np.concatenate([hit[2] for hit in hits])
            hi = np.concatenate([hit[3] for hit in hits])
            heads = np.concatenate([old_rids[t][s] for t, _, s, _ in hits])
            new_words = key_words(scheme, tables, rids[rows])
            ok = (new_words == key_words(scheme, tables, heads)).all(axis=1)
            uf.union_edges(rids[rows[ok]], heads[ok])
            pairs += int(ok.sum())
            buckets += int(rows.size)
            for j in np.flatnonzero(~ok).tolist():
                t, s, e = int(tables[j]), int(lo[j]), int(hi[j])
                if e - s <= 1:
                    continue
                run = old_rids[t][s:e]
                run_words = key_words(
                    scheme, np.full(run.size, t, dtype=np.int64), run
                )
                same = np.flatnonzero((run_words == new_words[j]).all(axis=1))
                if same.size:
                    uf.union(int(rids[rows[j]]), int(run[same[0]]))
                    pairs += 1
        self._fps = new_fps
        self._rids = new_rids
        self._owner.record_delta(int(rids.size) * n_tables, pairs, buckets)
        return True
