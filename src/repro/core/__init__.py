"""The paper's primary contribution: Adaptive LSH (Algorithm 1) and its
building blocks — transitive hashing functions, the pairwise
computation function, the cost model, and budget schedules."""

from .adaptive import AdaptiveLSH, adaptive_filter
from .budget import exponential_budgets, linear_budgets
from .config import AdaptiveConfig
from .cost import CostModel
from .pairmemo import PairVerdictMemo
from .pairwise_fn import PairwiseComputation
from .planning import WorkEstimate, predict_filter_work
from .result import Cluster, FilterResult, WorkCounters
from .transitive import TransitiveHashingFunction

__all__ = [
    "AdaptiveLSH",
    "AdaptiveConfig",
    "adaptive_filter",
    "TransitiveHashingFunction",
    "PairwiseComputation",
    "PairVerdictMemo",
    "CostModel",
    "predict_filter_work",
    "WorkEstimate",
    "exponential_budgets",
    "linear_budgets",
    "Cluster",
    "FilterResult",
    "WorkCounters",
]
