"""What the shard service's worker processes share with the parent.

One query always runs in one process; the serve layer's shards are the
only parallelism.  This package holds the two pieces the shard workers
need: deterministic work partitioning (:func:`chunk_spans`, which also
cuts shard boundaries) and the transfer shapes of a record store
(:class:`StorePayload` and the disk-backed reference in
:mod:`repro.parallel.sharing`).
"""

from .partition import chunk_spans
from .sharing import StorePayload, payload_from_store, store_from_payload

__all__ = [
    "StorePayload",
    "chunk_spans",
    "payload_from_store",
    "store_from_payload",
]
