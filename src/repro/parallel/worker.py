"""Worker-process side of the execution pool.

Module-level state plays two roles:

* ``_PARENT_*`` registries are filled **in the parent** before the pool
  forks; fork-started workers inherit them and get zero-copy
  (copy-on-write) views of the store and hash families.
* ``_local_*`` slots are filled **inside each worker** by
  :func:`init_worker` (and lazily by the task functions) — on spawn
  platforms they are rebuilt from pickled payloads instead.

Task functions are pure with respect to the parent: they return arrays
(plus their wall-time) and never mutate shared state, so the parent can
merge results in submission order and reproduce the serial computation
bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import ConfigurationError
from ..obs.clock import monotonic
from ..records import RecordStore
from ..types import AnyArray, IntArray
from .sharing import StorePayload, store_from_payload

if TYPE_CHECKING:
    from ..distance.rules import MatchRule
    from ..lsh.families import HashFamily

#: Parent-side registries, inherited by fork-started workers.
_PARENT_STORES: dict[int, RecordStore] = {}
_PARENT_FAMILIES: dict[int, HashFamily] = {}

#: Worker-side state, set by :func:`init_worker` / the task functions.
_local_store: RecordStore | None = None
_local_families: dict[int, HashFamily] = {}


def register_parent_store(token: int, store: RecordStore) -> None:
    """Make ``store`` visible to future fork-started workers."""
    _PARENT_STORES[token] = store


def register_parent_family(token: int, family: HashFamily) -> None:
    """Make ``family`` visible to future fork-started workers."""
    _PARENT_FAMILIES[token] = family


def forget_parent(store_token: int, family_tokens: list[int]) -> None:
    """Drop a closed pool's registry entries (parent side)."""
    _PARENT_STORES.pop(store_token, None)
    for token in family_tokens:
        _PARENT_FAMILIES.pop(token, None)


def init_worker(token: int, payload: StorePayload | None) -> None:
    """Process-pool initializer: bind this worker to its store.

    ``payload`` is ``None`` on fork platforms (the store is inherited
    through :data:`_PARENT_STORES`); on spawn platforms it carries the
    flattened store and is rebuilt exactly once per worker.
    """
    global _local_store
    if payload is not None:
        _local_store = store_from_payload(payload)
    else:
        _local_store = _PARENT_STORES[token]


def _store() -> RecordStore:
    if _local_store is None:
        raise ConfigurationError("worker used before init_worker ran")
    return _local_store


def _build_family(store: RecordStore, spec: dict[str, Any]) -> HashFamily:
    """Rebuild a family from its payload spec (spawn-platform path)."""
    kind = spec["kind"]
    options = spec["options"]
    if kind == "minhash":
        from ..lsh.minhash import MinHashFamily

        return MinHashFamily(
            store,
            spec["field"],
            seed=0,
            bits=options["bits"],
        )
    if kind == "hyperplane":
        from ..lsh.hyperplanes import RandomHyperplaneFamily

        return RandomHyperplaneFamily(store, spec["field"], seed=0)
    if kind == "pstable":
        from ..lsh.pstable import PStableFamily

        return PStableFamily(
            store, spec["field"], options["bucket_width"], seed=0
        )
    raise ConfigurationError(f"unknown family payload kind {kind!r}")


def _family(token: int, spec: dict[str, Any]) -> HashFamily:
    """This worker's instance of the family behind ``token``.

    Resolution order: already materialized here → inherited from the
    parent (fork) → rebuilt from the payload spec (spawn).  The params
    in ``spec`` are adopted every call, because the parent's family may
    have grown columns since this worker last saw it.
    """
    family = _local_families.get(token)
    if family is None:
        family = _PARENT_FAMILIES.get(token)
        if family is None:
            family = _build_family(_store(), spec)
        _local_families[token] = family
    family.adopt_params(spec["params"])
    return family


def signature_task(
    token: int, spec: dict[str, Any], rids: IntArray, start: int, stop: int
) -> tuple[AnyArray, float]:
    """Compute hash columns ``[start, stop)`` for one chunk of records.

    Row-independent by the columnar-determinism contract of
    :class:`~repro.lsh.families.HashFamily`, so the parent can stack
    chunk results in span order and match the serial array exactly.
    """
    started = monotonic()
    family = _family(token, spec)
    values = family.compute(np.asarray(rids, dtype=np.int64), start, stop)
    return values, monotonic() - started


def pairwise_block_task(
    rule: MatchRule,
    block: IntArray,
    earlier: IntArray,
) -> tuple[IntArray, IntArray, IntArray, IntArray, float]:
    """Match one row-block: intra-block and block-vs-earlier edges.

    Returns edge index pairs in exactly the order the serial blocked
    strategy enumerates them (``np.nonzero`` row-major order), so the
    parent can replay unions block by block and reproduce the serial
    forest bit for bit.
    """
    store = _store()
    started = monotonic()
    square = rule.pairwise_match(store, block)
    intra_i, intra_j = np.nonzero(np.triu(square, k=1))
    if earlier.size:
        cross = rule.match_block(store, block, earlier)
        cross_i, cross_j = np.nonzero(cross)
    else:
        cross_i = np.zeros(0, dtype=np.int64)
        cross_j = np.zeros(0, dtype=np.int64)
    return intra_i, intra_j, cross_i, cross_j, monotonic() - started


def evaluate_block_jobs(
    store: RecordStore,
    rule: MatchRule,
    pair_rids: IntArray,
    rects: list[tuple[IntArray, IntArray]],
) -> tuple[IntArray, IntArray, list[tuple[IntArray, IntArray]]]:
    """Evaluate the non-memoized jobs of one row-block.

    ``pair_rids`` is evaluated all-pairs (upper-triangle edges);
    each ``(rids_a, rids_b)`` rectangle in ``rects`` is evaluated with
    ``match_block`` (the memo-mask metadata computed by the parent's
    block plan).  Returns match edges in *job-local* coordinates, each
    list in ``np.nonzero`` row-major order; the parent maps them back
    through the plan's (sorted, hence order-preserving) index arrays.

    Takes the store explicitly so the serial memo path shares this
    exact evaluation with the worker task.
    """
    empty = np.zeros(0, dtype=np.int64)
    if pair_rids.size >= 2:
        square = rule.pairwise_match(store, pair_rids)
        raw_i, raw_j = np.nonzero(np.triu(square, k=1))
        pair_i = np.asarray(raw_i, dtype=np.int64)
        pair_j = np.asarray(raw_j, dtype=np.int64)
    else:
        pair_i = pair_j = empty
    rect_edges: list[tuple[IntArray, IntArray]] = []
    for rids_a, rids_b in rects:
        if rids_a.size and rids_b.size:
            raw_a, raw_b = np.nonzero(rule.match_block(store, rids_a, rids_b))
            rect_edges.append(
                (
                    np.asarray(raw_a, dtype=np.int64),
                    np.asarray(raw_b, dtype=np.int64),
                )
            )
        else:
            rect_edges.append((empty, empty))
    return pair_i, pair_j, rect_edges


def pairwise_jobs_task(
    rule: MatchRule,
    pair_rids: IntArray,
    rects: list[tuple[IntArray, IntArray]],
) -> tuple[IntArray, IntArray, list[tuple[IntArray, IntArray]], float]:
    """Worker wrapper around :func:`evaluate_block_jobs`."""
    store = _store()
    started = monotonic()
    pair_i, pair_j, rect_edges = evaluate_block_jobs(store, rule, pair_rids, rects)
    return pair_i, pair_j, rect_edges, monotonic() - started
