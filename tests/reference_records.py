"""The reference shingle-column build: one Python sort per row.

``RecordStore`` gathers a shingle field's rows into one array and sorts
the column at most once (``repro.records._column_from_rows``).  This is
the per-row build it replaced, kept as the oracle: each row becomes
``sorted(set(int(v) for v in row))`` and the rows are concatenated into
a zero-based CSR column.  The vectorised build must reproduce its
offsets and values byte for byte on integer input.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchemaError
from repro.records import ShingleColumn


def as_sorted_ids(values):
    """A shingle collection as a sorted, unique int64 array."""
    arr = np.asarray(sorted(set(int(v) for v in values)), dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise SchemaError("shingle ids must be non-negative integers")
    return arr


def column_from_sets(sets):
    """A zero-based column from per-row sorted id arrays."""
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    if len(sets):
        np.cumsum([s.size for s in sets], out=offsets[1:])
    if int(offsets[-1]):
        values = np.concatenate(sets).astype(np.int64, copy=False)
    else:
        values = np.zeros(0, dtype=np.int64)
    return ShingleColumn(offsets, values)


def reference_column(rows):
    """The column the per-row build makes of ``rows``."""
    return column_from_sets([as_sorted_ids(row) for row in rows])
