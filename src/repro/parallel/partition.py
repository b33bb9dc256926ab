"""Deterministic work partitioning.

Chunk boundaries are a pure function of ``(n_items, n_chunks,
min_chunk)`` — never of timing, worker availability, or queue state —
so the same input always produces the same shard layout.
"""

from __future__ import annotations


def chunk_spans(
    n_items: int, n_chunks: int, min_chunk: int = 1
) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous
    half-open spans of near-equal size, each at least ``min_chunk`` long
    (except possibly a single short final span when ``n_items`` is not
    a multiple).

    Returns ``[(start, stop), ...]`` covering ``[0, n_items)`` in
    order; empty when ``n_items`` is 0.
    """
    if n_items <= 0:
        return []
    n_chunks = max(1, min(n_chunks, n_items // max(1, min_chunk)) or 1)
    base, extra = divmod(n_items, n_chunks)
    spans: list[tuple[int, int]] = []
    start = 0
    for i in range(n_chunks):
        stop = start + base + (1 if i < extra else 0)
        if stop > start:
            spans.append((start, stop))
        start = stop
    return spans
