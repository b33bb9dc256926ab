"""Data structures from Appendix B: the connected-components kernel
and the log-size bin index used for Largest-First cluster selection."""

from .bin_index import BinIndex
from .union_find import UnionFind, component_labels, components

__all__ = [
    "BinIndex",
    "UnionFind",
    "component_labels",
    "components",
]
