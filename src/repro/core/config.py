"""Frozen configuration object for :class:`~repro.core.adaptive.AdaptiveLSH`.

The adaptive method grew a sprawling constructor (budgets, epsilon,
seed, cost model, noise, selection, jump policy, caching);
:class:`AdaptiveConfig` consolidates all of it into one immutable,
comparable value that every entry point — ``AdaptiveLSH``,
``adaptive_filter``, ``TopKPipeline``, ``StreamingTopK``, the CLI, and
index snapshots — constructs through.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any

from ..errors import ConfigurationError
from ..lsh.design import DEFAULT_EPSILON
from ..rngutil import SeedLike
from .cost import CostModel
from .pairmemo import DEFAULT_MAX_BYTES as DEFAULT_PAIR_MEMO_BYTES

#: Cluster-selection strategies accepted by the adaptive loop.
SELECTIONS = ("largest", "largest-unoptimized", "smallest", "random")

#: Jump policies for the Line-5 hashing-vs-pairwise decision.
JUMP_POLICIES = ("line5", "lookahead")

#: Keys of knobs that no longer exist; :meth:`AdaptiveConfig.from_dict`
#: drops them.  ``signature_cache`` switched the packed-key cache (which
#: ``to_dict`` wrote), ``kernels`` selected the kernel backend,
#: ``pair_memo`` switched the pair-verdict memo, ``bin_index`` /
#: ``bin_index_bytes`` switched and sized the fingerprint bin index, and
#: ``pairwise_strategy`` chose between the rowwise and blocked ``P``.
RETIRED_KEYS = frozenset(
    {
        "signature_cache",
        "kernels",
        "pair_memo",
        "bin_index",
        "bin_index_bytes",
        "pairwise_strategy",
    }
)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Every tuning knob of the adaptive method, in one frozen value.

    Parameters mirror the historical ``AdaptiveLSH`` keyword arguments;
    see that class's docstring for semantics.  Instances are immutable —
    derive variants with :func:`dataclasses.replace`.
    """

    budgets: tuple[int, ...] | None = None
    epsilon: float = DEFAULT_EPSILON
    seed: SeedLike = None
    cost_model: CostModel | str = "calibrate"
    noise_factor: float = 1.0
    analytic_pair_cost: float = 20.0
    selection: str = "largest"
    jump_policy: str = "line5"
    lookahead_samples: int = 32
    lookahead_density: float = 0.6
    #: Accepts only ``None`` or ``1``, both meaning serial: one query
    #: runs in one process and the shard service is the only
    #: parallelism.  Kept so existing ``n_jobs=1`` callers construct.
    n_jobs: int | None = None
    #: Byte budget of the cross-round pair-verdict memo; a budget below
    #: its initial table makes it remember nothing.
    pair_memo_bytes: int = DEFAULT_PAIR_MEMO_BYTES

    def __post_init__(self) -> None:
        if self.budgets is not None:
            object.__setattr__(
                self, "budgets", tuple(int(b) for b in self.budgets)
            )
        if self.selection not in SELECTIONS:
            raise ConfigurationError(
                f"selection must be one of {SELECTIONS}, got {self.selection!r}"
            )
        if self.jump_policy not in JUMP_POLICIES:
            raise ConfigurationError(
                f"jump_policy must be 'line5' or 'lookahead', "
                f"got {self.jump_policy!r}"
            )
        if not isinstance(self.cost_model, CostModel) and self.cost_model not in (
            "calibrate",
            "analytic",
        ):
            raise ConfigurationError(
                f"cost_model must be 'calibrate', 'analytic', or a CostModel, "
                f"got {self.cost_model!r}"
            )
        if self.n_jobs not in (None, 1):
            raise ConfigurationError(
                f"n_jobs must be None or 1 (one query runs in one process), "
                f"got {self.n_jobs!r}; run shards with repro.serve for "
                f"parallelism"
            )
        object.__setattr__(self, "lookahead_samples", int(self.lookahead_samples))
        object.__setattr__(self, "lookahead_density", float(self.lookahead_density))
        object.__setattr__(self, "pair_memo_bytes", int(self.pair_memo_bytes))

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly view of the *portable* settings.

        ``seed`` and a concrete :class:`CostModel` are excluded — index
        snapshots carry RNG state and the cost model separately, in
        exact form; this dict covers everything rebuildable from plain
        scalars.  ``n_jobs`` is excluded too: it can only say serial.
        """
        return {
            "budgets": list(self.budgets) if self.budgets is not None else None,
            "epsilon": self.epsilon,
            "noise_factor": self.noise_factor,
            "analytic_pair_cost": self.analytic_pair_cost,
            "selection": self.selection,
            "jump_policy": self.jump_policy,
            "lookahead_samples": self.lookahead_samples,
            "lookahead_density": self.lookahead_density,
            "pair_memo_bytes": self.pair_memo_bytes,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any], **overrides: Any) -> AdaptiveConfig:
        """Rebuild from :meth:`to_dict` output; ``overrides`` win.

        Keys of retired knobs (:data:`RETIRED_KEYS`) are dropped, so
        snapshot configs written before their removal still load.
        """
        known = {f.name for f in fields(cls)}
        data = {k: v for k, v in data.items() if k not in RETIRED_KEYS}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown AdaptiveConfig keys: {sorted(unknown)}"
            )
        merged = dict(data)
        merged.update(overrides)
        budgets = merged.get("budgets")
        if budgets is not None:
            merged["budgets"] = tuple(int(b) for b in budgets)
        return cls(**merged)


def config_with(config: AdaptiveConfig, **overrides: Any) -> AdaptiveConfig:
    """``dataclasses.replace`` with the frozen-field coercions re-run."""
    return replace(config, **overrides)
