"""How ``RecordStore`` builds a shingle column from rows.

The vectorised build is checked against the per-row reference in
``tests/reference_records.py`` byte for byte, non-integer rows must
raise :class:`SchemaError` naming the field and the row, and the
content fingerprints of every generator's store are pinned so that
snapshots and ``.store`` layouts written earlier keep restoring.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    build_cora_layout,
    generate_cora,
    generate_popular_images,
    generate_querylog,
    generate_spotsigs,
)
from repro.errors import SchemaError
from repro.records import RecordStore, Schema
from tests.reference_records import reference_column

SCHEMA = Schema.single_shingles()
INT_DTYPES = (
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
)
INT64_MAX = int(np.iinfo(np.int64).max)


def _not_int64(where):
    return rf"{where}: shingle ids must be integers in the int64 range"


def _column(rows):
    return RecordStore(SCHEMA, {"shingles": rows}).shingle_sets("shingles")


def _assert_same_bytes(column, expected):
    for got, want in (
        (column.offsets, expected.offsets),
        (column.values, expected.values),
    ):
        assert got.dtype == np.int64
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


class TestRejectedRows:
    """Bad rows raise SchemaError naming the row; nothing is truncated."""

    def test_float_row_rejected_not_truncated(self):
        with pytest.raises(SchemaError, match=_not_int64("'shingles', row 1")):
            _column([[4, 2], [1.5, 2.0, 3.9]])

    def test_integral_float_array_rejected(self):
        with pytest.raises(SchemaError, match=_not_int64("row 0")):
            _column([np.array([1.0, 2.0])])

    def test_string_ids_rejected_not_parsed(self):
        with pytest.raises(SchemaError, match=_not_int64("'shingles', row 0")):
            _column([["3", "1"]])

    def test_uint64_past_int64_rejected(self):
        rows = [np.array(ids, dtype=np.uint64) for ids in ([1], [], [1, 2**63 + 5])]
        with pytest.raises(SchemaError, match=_not_int64("'shingles', row 2")):
            _column(rows)
        with pytest.raises(SchemaError, match=_not_int64("'shingles', row 2")):
            _column([[1], [], rows[2]])

    def test_python_int_past_uint64_rejected(self):
        with pytest.raises(SchemaError, match=_not_int64("'shingles', row 0")):
            _column([[2**64]])

    def test_bare_scalar_row_rejected(self):
        with pytest.raises(SchemaError, match=_not_int64("'shingles', row 1")):
            _column([[1, 2], 7])

    def test_string_row_rejected(self):
        with pytest.raises(SchemaError, match=_not_int64("row 0")):
            _column(["31"])

    def test_negative_id_names_its_row(self):
        with pytest.raises(SchemaError, match=r"row 2: .*non-negative"):
            _column([[1], [], [3, -4]])

    def test_unsorted_adopted_column_names_its_row(self):
        offsets = np.asarray([0, 2, 2, 4], dtype=np.int64)
        values = np.asarray([1, 4, 6, 6], dtype=np.int64)
        with pytest.raises(SchemaError, match=r"row 2: .*duplicate-free"):
            RecordStore(Schema.single_shingles("s"), {"s": (offsets, values)})

    def test_column_that_is_not_a_sequence_rejected(self):
        with pytest.raises(SchemaError, match=r"'shingles'"):
            _column(5)


class TestBuild:
    def test_rows_are_sorted_and_deduplicated_once(self):
        rows = [[5, 1, 5, 3, 1], (), {9, 2}, frozenset({4}), np.array([7, 7])]
        column = _column(rows)
        assert column == [[1, 3, 5], [], [2, 9], [4], [7]]
        _assert_same_bytes(column, reference_column(rows))

    def test_mixed_dtypes_are_not_promoted_to_float(self):
        rows = [np.array([3, 1], dtype=np.int64), np.array([INT64_MAX], dtype=np.uint64)]
        assert _column(rows) == [[1, 3], [INT64_MAX]]


@st.composite
def _row(draw):
    container = draw(st.sampled_from(("array", "list", "tuple", "set", "frozenset")))
    dtype = draw(st.sampled_from(INT_DTYPES))
    info = np.iinfo(dtype)
    high = min(int(info.max), INT64_MAX)
    low = max(int(info.min), -3)
    values = draw(
        st.lists(
            st.one_of(
                st.integers(low, min(high, 40)),
                st.integers(max(low, 0), high),
            ),
            max_size=12,
        )
    )
    if container == "array":
        return np.asarray(values, dtype=dtype)
    if container == "list":
        return values
    return {"tuple": tuple, "set": set, "frozenset": frozenset}[container](values)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_row(), max_size=12))
def test_build_matches_per_row_reference(rows):
    """Any integer rows of any container and dtype build byte for byte
    the reference's column, or raise SchemaError for a negative id."""
    if any(int(v) < 0 for row in rows for v in row):
        with pytest.raises(SchemaError, match="non-negative"):
            _column(rows)
        return
    expected = reference_column(rows)
    column = _column(rows)
    _assert_same_bytes(column, expected)
    assert (
        RecordStore(SCHEMA, {"shingles": rows}).content_fingerprint()
        == RecordStore(SCHEMA, {"shingles": expected}).content_fingerprint()
    )


#: ``content_fingerprint()`` of small fixed-seed stores, recorded with
#: the per-row build.  ``IndexSnapshot.restore`` and the pair memo's
#: ``bind`` compare these digests, so they must not move.
PINNED = {
    "cora": (
        lambda: generate_cora(300, seed=11).store,
        "b3abc92b5538aa12551b58b1b9661482bc24e67771e38eb247411176a67b94d5",
    ),
    "spotsigs": (
        lambda: generate_spotsigs(300, seed=11).store,
        "595c401bf7394bf0c9aff0b2e36a2e8c1b9be5aab3d41c4d647f958ad30d8439",
    ),
    "images": (
        lambda: generate_popular_images(
            n_records=300, n_popular=10, top1_size=25, seed=11
        ).store,
        "e22e0dca4775e92b87cbc5a0ba610a75b2782d90c3158aacfcd1b543ff225234",
    ),
    "querylog": (
        lambda: generate_querylog(300, seed=11).store,
        "dec3e339008f62a6224f76995eb5beea506cb5b313600a3c7cbab5c127d0716f",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_generator_fingerprint_pinned(name):
    make, digest = PINNED[name]
    assert make().content_fingerprint() == digest


def test_layout_fingerprint_pinned(tmp_path):
    layout = build_cora_layout(tmp_path / "a.store", 400, chunk_records=97, seed=6)
    assert layout.open().content_fingerprint() == (
        "f917daf3e9bcf4c6008e0f1727029ca86e1be4d5a4e9d0f95d19140446be7f44"
    )
