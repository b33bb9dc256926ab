"""Locality-sensitive hashing substrate (paper §3, §5, Appendices A-C)."""

from .binindex import H1DeltaIndex, LevelBins, SchemeBinIndex
from .design import GroupDesign, SchemeDesign, design_scheme, design_sequence
from .families import HashFamily, SignaturePool
from .hyperplanes import RandomHyperplaneFamily
from .minhash import MinHashFamily
from .mixture import WeightedMixtureFamily
from .probability import (
    and_or_collision_prob,
    collision_prob_curve,
    integrate_curve,
)
from .scheme import HashingScheme, PoolUse, TableGroup

__all__ = [
    "HashFamily",
    "SignaturePool",
    "RandomHyperplaneFamily",
    "MinHashFamily",
    "WeightedMixtureFamily",
    "and_or_collision_prob",
    "collision_prob_curve",
    "integrate_curve",
    "HashingScheme",
    "TableGroup",
    "PoolUse",
    "design_scheme",
    "design_sequence",
    "SchemeDesign",
    "GroupDesign",
    "SchemeBinIndex",
    "LevelBins",
    "H1DeltaIndex",
]
