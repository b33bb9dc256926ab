"""Reference key packing for the bin-index tests.

The production path (:mod:`repro.lsh.binindex`) builds key words and
fingerprints straight from the signature pools and never materializes
packed key rows.  These helpers keep the original row-based definitions
— packed key bytes from :meth:`HashingScheme.table_key_rows`, read as
big-endian words and mixed with splitmix64 — so the tests can pin the
pool path against them bit for bit.
"""

import numpy as np
from hypothesis import strategies as st

from repro.kernels.base import _splitmix64


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
    return [g for groups in scheme.iter_table_collisions(rids) for g in groups]


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
        for table, keys in zip(tables, scheme.iter_table_keys(batch)):
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
