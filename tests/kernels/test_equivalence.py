"""Property-based equivalence: the production kernels are bit-identical
to the pure-NumPy reference oracle in ``tests/kernels/reference.py``.

Random shingle stores cover empty sets (the ``EMPTY_SENTINEL`` path),
small vocabularies (dense-bitset packing) and large sparse ids
(sorted-id CSR packing), b-bit truncation, and every derived distance
shape.  Equality is exact (``np.array_equal`` on raw uint64/float64
output), not approximate — that is the kernel contract.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernels import EMPTY_SENTINEL, KERNELS, jaccard_distance, packed_field
from repro.kernels.packed import _BITSET_VOCAB_LIMIT
from repro.lsh.minhash import MinHashFamily
from repro.records import RecordStore, Schema
from tests.kernels.reference import ReferenceKernels

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def shingle_store(draw):
    """A random shingle store spanning both packed layouts."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n_records = draw(st.integers(1, 40))
    # Small ids exercise the dense bitset; huge ids force sorted-id CSR.
    id_span = draw(
        st.sampled_from([50, 600, _BITSET_VOCAB_LIMIT + 100, 2**40])
    )
    empty_p = draw(st.floats(0.0, 0.4))
    sets = []
    for _ in range(n_records):
        if rng.random() < empty_p:
            sets.append(np.zeros(0, dtype=np.int64))
            continue
        size = int(rng.integers(1, 30))
        ids = rng.integers(0, id_span, size=size)
        sets.append(np.unique(ids).astype(np.int64))
    store = RecordStore(Schema.single_shingles(), {"shingles": sets})
    return store, seed


def _packed_pair(store):
    packed = packed_field(store, "shingles")
    return (ReferenceKernels(), packed), (KERNELS, packed)


@SETTINGS
@given(data=shingle_store(), bits=st.sampled_from([None, 1, 4, 8]))
def test_minhash_block_bit_identical(data, bits):
    store, seed = data
    family = MinHashFamily(store, "shingles", seed=0, bits=bits)
    rng = np.random.default_rng(seed)
    rids = rng.permutation(len(store))[: max(1, len(store) // 2)].astype(
        np.int64
    )
    start = int(rng.integers(0, 5))
    stop = start + int(rng.integers(1, 40))
    fast = family.compute(rids, start, stop)
    ref = ReferenceKernels().minhash_block(
        packed_field(store, "shingles"), rids, family._a, start, stop, bits
    )
    assert np.array_equal(ref, fast)


@SETTINGS
@given(data=shingle_store())
def test_jaccard_block_bit_identical(data):
    store, seed = data
    (ref, ref_p), (fast, fast_p) = _packed_pair(store)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 80))
    rids_a = rng.integers(0, len(store), size=m).astype(np.int64)
    rids_b = rng.integers(0, len(store), size=m).astype(np.int64)
    got_ref = ref.jaccard_block(ref_p, rids_a, rids_b)
    got_fast = fast.jaccard_block(fast_p, rids_a, rids_b)
    assert np.array_equal(got_ref, got_fast)
    # Every element also matches the scalar oracle bit for bit.
    sets = store.shingle_sets("shingles")
    for i, (a, b) in enumerate(zip(rids_a, rids_b)):
        assert got_ref[i] == jaccard_distance(sets[int(a)], sets[int(b)])


@SETTINGS
@given(data=shingle_store(), chunk=st.sampled_from([2, 7, 256]))
def test_jaccard_pairwise_bit_identical(data, chunk):
    store, seed = data
    (ref, ref_p), (fast, fast_p) = _packed_pair(store)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 30))
    rids = rng.integers(0, len(store), size=m).astype(np.int64)
    assert np.array_equal(
        ref.jaccard_pairwise(ref_p, rids, chunk),
        fast.jaccard_pairwise(fast_p, rids, chunk),
    )


@SETTINGS
@given(data=shingle_store())
def test_jaccard_one_to_many_bit_identical(data):
    store, seed = data
    (ref, ref_p), (fast, fast_p) = _packed_pair(store)
    rng = np.random.default_rng(seed)
    rid = int(rng.integers(0, len(store)))
    rids = rng.integers(0, len(store), size=int(rng.integers(1, 50))).astype(
        np.int64
    )
    assert np.array_equal(
        ref.jaccard_one_to_many(ref_p, rid, rids),
        fast.jaccard_one_to_many(fast_p, rid, rids),
    )


@SETTINGS
@given(data=shingle_store())
def test_jaccard_block_matrix_bit_identical(data):
    store, seed = data
    (ref, ref_p), (fast, fast_p) = _packed_pair(store)
    rng = np.random.default_rng(seed)
    rids_a = rng.integers(0, len(store), size=int(rng.integers(1, 25))).astype(
        np.int64
    )
    rids_b = rng.integers(0, len(store), size=int(rng.integers(1, 25))).astype(
        np.int64
    )
    assert np.array_equal(
        ref.jaccard_block_matrix(ref_p, rids_a, rids_b),
        fast.jaccard_block_matrix(fast_p, rids_a, rids_b),
    )


def test_empty_sets_use_sentinel_and_zero_distance():
    sets = [
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.array([1, 2, 3], dtype=np.int64),
    ]
    store = RecordStore(Schema.single_shingles(), {"shingles": sets})
    family = MinHashFamily(store, "shingles", seed=0)
    family._ensure_params(4)
    packed = packed_field(store, "shingles")
    for kern in (ReferenceKernels(), KERNELS):
        sig = kern.minhash_block(
            packed, np.array([0, 1], dtype=np.int64), family._a, 0, 4, None
        )
        # Two empty records hash identically (the scrambled sentinel).
        assert np.array_equal(sig[0], sig[1])
        d = kern.jaccard_block(
            packed,
            np.array([0, 0], dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
        )
        # Both-empty pairs are distance 0; empty-vs-nonempty is 1.
        assert d[0] == 0.0
        assert d[1] == 1.0
    assert EMPTY_SENTINEL == np.uint64((1 << 63) - 59)
