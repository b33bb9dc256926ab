"""Tests for the log-size bin index (Appendix B.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.structures import BinIndex


class TestBasics:
    def test_empty(self):
        bins = BinIndex()
        assert len(bins) == 0
        assert not bins

    def test_pop_from_empty_raises(self):
        with pytest.raises(IndexError):
            BinIndex().pop_largest()

    def test_peek_from_empty_raises(self):
        with pytest.raises(IndexError):
            BinIndex().peek_largest_size()

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            BinIndex().add("x", 0)

    def test_single_item(self):
        bins = BinIndex()
        bins.add("a", 5)
        assert bins.peek_largest_size() == 5
        assert bins.pop_largest() == (5, "a")
        assert len(bins) == 0

    def test_pop_order_is_size_descending(self):
        bins = BinIndex()
        for size, item in [(3, "c"), (17, "a"), (9, "b"), (1, "d")]:
            bins.add(item, size)
        popped = [bins.pop_largest() for _ in range(4)]
        assert popped == [(17, "a"), (9, "b"), (3, "c"), (1, "d")]

    def test_same_bin_resolution(self):
        # 9, 10, 15 all land in bin 3 (sizes 8..15); largest must win.
        bins = BinIndex()
        bins.add("a", 9)
        bins.add("b", 15)
        bins.add("c", 10)
        assert bins.pop_largest() == (15, "b")
        assert bins.pop_largest() == (10, "c")

    def test_peek_does_not_remove(self):
        bins = BinIndex()
        bins.add("a", 4)
        assert bins.peek_largest_size() == 4
        assert len(bins) == 1

    def test_drain(self):
        bins = BinIndex()
        for size in (2, 8, 5):
            bins.add(size, size)
        assert [s for s, _ in bins.drain()] == [8, 5, 2]
        assert len(bins) == 0

    def test_interleaved_add_pop(self):
        bins = BinIndex()
        bins.add("a", 10)
        assert bins.pop_largest() == (10, "a")
        bins.add("b", 3)
        bins.add("c", 30)
        assert bins.pop_largest() == (30, "c")
        bins.add("d", 7)
        assert bins.pop_largest() == (7, "d")
        assert bins.pop_largest() == (3, "b")


@settings(max_examples=80, deadline=None)
@given(sizes=st.lists(st.integers(1, 2**40), min_size=1, max_size=60))
def test_drains_in_sorted_order(sizes):
    """Property: popping repeatedly yields sizes in descending order and
    returns every inserted item exactly once."""
    bins = BinIndex()
    for i, size in enumerate(sizes):
        bins.add(i, size)
    drained = list(bins.drain())
    assert sorted((s for s, _ in drained), reverse=True) == [
        s for s, _ in drained
    ]
    assert sorted(i for _, i in drained) == list(range(len(sizes)))


class _TupleBinIndex:
    """The previous implementation: ``(size, item)`` tuples per bin and
    a keyed ``max`` over the bin on every pop.  Kept as the pop-order
    oracle — ``rounds`` and every counter depend on that order."""

    def __init__(self):
        self._bins = [[] for _ in range(64)]

    def add(self, item, size):
        self._bins[size.bit_length() - 1].append((size, item))

    def pop_largest(self):
        bucket = next(b for b in reversed(self._bins) if b)
        best = max(range(len(bucket)), key=lambda i: bucket[i][0])
        bucket[best], bucket[-1] = bucket[-1], bucket[best]
        return bucket.pop()


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.one_of(st.integers(1, 40), st.just(0)), min_size=1, max_size=120
    )
)
def test_pop_order_matches_tuple_implementation(ops):
    """Random add/pop sequences (0 = pop, n = add an item of size n; small
    sizes force many ties) pop the same ``(size, item)`` sequence as the
    tuple-and-lambda implementation, ties included."""
    bins, oracle = BinIndex(), _TupleBinIndex()
    for serial, op in enumerate(ops):
        if op:
            bins.add(serial, op)
            oracle.add(serial, op)
        elif bins:
            assert bins.pop_largest() == oracle.pop_largest()
    while bins:
        assert bins.pop_largest() == oracle.pop_largest()
