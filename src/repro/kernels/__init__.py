"""The two hot kernels: minhash signature blocks and Jaccard verification.

See :mod:`repro.kernels.base` for the kernels and their shared
semantics, and :mod:`repro.kernels.packed` for the bit-packed field
layout they evaluate on.
"""

from .base import EMPTY_SENTINEL, KERNELS, KernelBackend, jaccard_distance
from .packed import packed_field

__all__ = [
    "EMPTY_SENTINEL",
    "KERNELS",
    "KernelBackend",
    "jaccard_distance",
    "packed_field",
]
