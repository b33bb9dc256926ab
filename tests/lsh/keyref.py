"""Reference grouping and key packing for the bin-index tests.

The production path (:mod:`repro.lsh.binindex`) builds key words and
fingerprints straight from the signature pools, never materializes
packed key rows, and groups a whole level at once.  This module keeps
the original definitions as the reference:

* packed key rows per table (:func:`table_key_rows`), their bytes
  (:func:`iter_table_keys`) and the per-table void-argsort collision
  groups (:func:`iter_table_collisions`);
* the parent-pointer forest replay of those groups that
  :meth:`TransitiveHashingFunction.apply` used to run
  (:func:`reference_apply`, its partition emitted in the canonical
  order: members ascending, clusters by smallest rid), and the
  per-table ``bytes -> rid`` dict
  tables that streaming ingest used to maintain
  (:func:`reference_ingest`); :func:`use_reference_grouping` swaps both
  in, so an identity test compares production against them.
"""

import numpy as np
from hypothesis import strategies as st

from repro.core.transitive import TransitiveHashingFunction
from repro.kernels.base import _splitmix64
from repro.online import StreamingTopK
from tests.structures.parent_pointer_tree import ParentPointerForest


# ----------------------------------------------------------------------
# Per-table keys and collision groups of a scheme
def iter_table_blocks(scheme, rids):
    """Per-table contiguous key blocks of shape (m, hashes_per_table)."""
    rids = np.asarray(rids, dtype=np.int64)
    for group in scheme.groups:
        sigs = [
            np.ascontiguousarray(
                use.pool.signatures(rids, use.offset + group.z * use.w)
            )
            for use in group.uses
        ]
        for j in range(group.z):
            parts = [
                sig[:, use.offset + j * use.w : use.offset + (j + 1) * use.w]
                for sig, use in zip(sigs, group.uses)
            ]
            block = parts[0] if len(parts) == 1 else np.hstack(parts)
            yield np.ascontiguousarray(block)


def table_key_rows(scheme, rids):
    """All tables' keys for ``rids`` packed into one uint8 matrix.

    Returns ``(rows, layout)``: ``rows[i]`` is record ``i``'s keys for
    every table concatenated as raw bytes, and ``layout`` holds each
    table's ``(offset, nbytes)`` span.
    """
    parts = []
    layout = []
    offset = 0
    for block in iter_table_blocks(scheme, rids):
        # A C-contiguous uint8 view widens the last axis to
        # (m, w * itemsize) — the per-record raw bytes.
        part = block.view(np.uint8)
        layout.append((offset, int(part.shape[1])))
        offset += int(part.shape[1])
        parts.append(part)
    rows = parts[0] if len(parts) == 1 else np.hstack(parts)
    return np.ascontiguousarray(rows), layout


def iter_table_keys(scheme, rids):
    """For every table, the per-record bucket keys as ``bytes``."""
    rows, layout = table_key_rows(scheme, rids)
    for offset, nbytes in layout:
        buf = rows[:, offset : offset + nbytes].tobytes()
        yield [buf[i : i + nbytes] for i in range(0, len(buf), nbytes)]


def iter_table_collisions(scheme, rids):
    """For every table, the bucket collision groups: arrays of row
    positions (indices into ``rids``) that share a bucket, in the
    void-argsort (byte-lexicographic) order of their keys."""
    for block in iter_table_blocks(scheme, rids):
        void = block.view(
            np.dtype((np.void, block.dtype.itemsize * block.shape[1]))
        ).ravel()
        order = np.argsort(void, kind="stable")
        sorted_keys = void[order]
        change = np.empty(order.size, dtype=bool)
        change[0] = True
        change[1:] = sorted_keys[1:] != sorted_keys[:-1]
        starts = np.nonzero(change)[0]
        ends = np.r_[starts[1:], order.size]
        yield [order[s:e] for s, e in zip(starts, ends) if e - s >= 2]


# ----------------------------------------------------------------------
# The reference grouping paths
def reference_apply(self, rids, counters=None):
    """``TransitiveHashingFunction.apply`` as a per-table forest replay:
    fresh tables per call, group members unioned into the head's tree
    table by table, one cluster per root in the canonical order."""
    rids = np.asarray(rids, dtype=np.int64)
    forest = ParentPointerForest()
    int_rids = rids.tolist()
    for rid in int_rids:
        forest.make_singleton(rid)
    for collision_groups in iter_table_collisions(self.scheme, rids):
        for rows in collision_groups:
            anchor = int_rids[int(rows[0])]
            for pos in rows[1:]:
                forest.union_records(anchor, int_rids[int(pos)])
    if counters is not None:
        counters.table_inserts += len(int_rids) * self.scheme.table_count
    return forest.canonical_clusters()


def reference_ingest(self, fresh):
    """``StreamingTopK`` ingest through per-table ``bytes -> rid`` dicts:
    a new record joins the last record seen in each of its buckets."""
    if not hasattr(self, "_reference_tables"):
        self._adaptive.prepare()
        scheme = self._adaptive._functions[0].scheme
        self._reference_tables = (
            scheme,
            [dict() for _ in range(scheme.table_count)],
        )
    scheme, tables = self._reference_tables
    self._inserted[fresh] = True
    for table, keys in zip(tables, iter_table_keys(scheme, fresh)):
        for rid, key in zip(fresh.tolist(), keys):
            prev = table.get(key)
            if prev is not None:
                self._uf.union(rid, prev)
            table[key] = rid


def use_reference_grouping(monkeypatch):
    """Route every hashing function and every stream through the
    reference paths for the rest of the test.  Streams then export no
    carry state, so a session's successor stream re-inserts the whole
    extended store into fresh dict tables."""
    monkeypatch.setattr(TransitiveHashingFunction, "apply", reference_apply)
    monkeypatch.setattr(StreamingTopK, "_ingest", reference_ingest)
    monkeypatch.setattr(StreamingTopK, "carry_state", lambda self: None)


def pack_key_words(rows):
    """Big-endian ``uint64`` words of packed key rows (``(m, nbytes)``
    uint8), zero-padded so tuple order equals ``memcmp`` order."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    m, nbytes = rows.shape
    nwords = (nbytes + 7) // 8
    padded = np.zeros((m, nwords * 8), dtype=np.uint8)
    padded[:, :nbytes] = rows
    return padded.view(">u8").astype(np.uint64)


def strided_key_words(rows, offset, nbytes):
    """Big-endian words of ``rows[:, offset:offset+nbytes]``, built
    byte column by byte column."""
    words = np.zeros((rows.shape[0], (nbytes + 7) // 8), dtype=np.uint64)
    for b in range(nbytes):
        shift = np.uint64(8 * (7 - (b & 7)))
        words[:, b >> 3] |= rows[:, offset + b].astype(np.uint64) << shift
    return words


def fingerprint_words(words):
    """One splitmix64-chained ``uint64`` fingerprint per word row."""
    fp = _splitmix64(words[:, 0])
    for j in range(1, words.shape[1]):
        fp = _splitmix64(fp ^ words[:, j])
    return np.asarray(fp, dtype=np.uint64)


def _table_fingerprints(rows, layout):
    """Per-table fingerprints of packed key rows: ``(m, n_tables)``."""
    out = np.empty((rows.shape[0], len(layout)), dtype=np.uint64)
    for t, (offset, nbytes) in enumerate(layout):
        out[:, t] = fingerprint_words(strided_key_words(rows, offset, nbytes))
    return out


def table_words(rows, layout, tables, positions):
    """Reference ``words_of``: key words of ``(table, row)`` entries of
    packed key rows, zero-padded to the widest table."""
    width = max((nbytes + 7) // 8 for _, nbytes in layout)
    out = np.zeros((len(positions), width), dtype=np.uint64)
    for t, (offset, nbytes) in enumerate(layout):
        sel = np.flatnonzero(np.asarray(tables) == t)
        if sel.size:
            words = pack_key_words(
                rows[np.asarray(positions)[sel], offset : offset + nbytes]
            )
            out[sel, : words.shape[1]] = words
    return out


def csr_to_groups(members, starts):
    """Explode CSR groups to the legacy list-of-arrays shape."""
    return [
        members[int(starts[i]) : int(starts[i + 1])]
        for i in range(starts.size - 1)
    ]


def legacy_groups_of_level(scheme, rids):
    """Every table's void-argsort collision groups, table by table."""
    return [g for groups in iter_table_collisions(scheme, rids) for g in groups]


def legacy_edges(scheme, rids):
    """The union edges the legacy forest replay performs, first
    occurrences only: ``(head, member)`` row positions."""
    seen = set()
    edges = []
    for group in legacy_groups_of_level(scheme, rids):
        head = int(group[0])
        for member in group[1:].tolist():
            if (head, member) not in seen:
                seen.add((head, member))
                edges.append((head, member))
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def dict_partition(scheme, batches, n):
    """The dict-table streaming reference partition."""
    from repro.structures.union_find import UnionFind

    uf = UnionFind(n)
    tables = [dict() for _ in range(scheme.table_count)]
    for batch in batches:
        for table, keys in zip(tables, iter_table_keys(scheme, batch)):
            for rid_raw, key in zip(batch, keys):
                rid = int(rid_raw)
                prev = table.get(key)
                if prev is not None:
                    uf.union(rid, prev)
                table[key] = rid
    return roots_of(uf, n)


def roots_of(uf, n):
    return tuple(uf.find(i) for i in range(n))


def canonical(roots):
    seen = {}
    return tuple(seen.setdefault(r, len(seen)) for r in roots)


# ----------------------------------------------------------------------
# Random schemes over every hash family
#: Families by name; hyperplane keys are uint8, the others uint32.
FAMILIES = ("hyperplane", "minhash", "pstable", "mixture")


def mixed_store(n, seed):
    """``n`` records with a vector and a shingle field, drawn from a few
    tight clusters so that every family produces bucket collisions."""
    from repro.records import FieldKind, FieldSpec, RecordStore, Schema

    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(3, 4))
    labels = rng.integers(0, 3, size=n)
    vec = centers[labels] + rng.normal(scale=0.05, size=(n, 4))
    sets = [
        np.unique(rng.integers(0, 4, size=int(rng.integers(1, 4))) + 4 * label)
        for label in labels.tolist()
    ]
    schema = Schema(
        (FieldSpec("vec", FieldKind.VECTOR), FieldSpec("s", FieldKind.SHINGLES))
    )
    return RecordStore(schema, {"vec": vec, "s": sets})


def family_pools(store, seed):
    """One :class:`SignaturePool` per family name."""
    from repro.lsh.families import SignaturePool
    from repro.lsh.hyperplanes import RandomHyperplaneFamily
    from repro.lsh.minhash import MinHashFamily
    from repro.lsh.mixture import WeightedMixtureFamily
    from repro.lsh.pstable import PStableFamily

    families = {
        "hyperplane": RandomHyperplaneFamily(store, "vec", seed=seed),
        "minhash": MinHashFamily(store, "s", seed=seed + 1),
        "pstable": PStableFamily(store, "vec", bucket_width=4.0, seed=seed + 2),
        "mixture": WeightedMixtureFamily(
            store,
            [
                MinHashFamily(store, "s", seed=seed + 3),
                RandomHyperplaneFamily(store, "vec", seed=seed + 4),
            ],
            [0.5, 0.5],
            seed=seed + 5,
        ),
    }
    return {name: SignaturePool(fam, name=name) for name, fam in families.items()}


def build_scheme(pools, spec):
    """A scheme from ``[(z, [(family, w, offset), ...]), ...]``: one
    table group per entry (OR), one pool use per inner tuple (AND)."""
    from repro.lsh.scheme import HashingScheme, PoolUse, TableGroup

    return HashingScheme(
        [
            TableGroup(z, tuple(PoolUse(pools[f], w, off) for f, w, off in uses))
            for z, uses in spec
        ]
    )


#: ``[(z, [(family, w, offset), ...]), ...]`` for :func:`build_scheme`:
#: OR groups of AND uses over every family, dtypes mixed freely.
scheme_specs = st.lists(
    st.tuples(
        st.integers(1, 4),
        st.lists(
            st.tuples(
                st.sampled_from(FAMILIES), st.integers(1, 4), st.integers(0, 2)
            ),
            min_size=1,
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=3,
)
