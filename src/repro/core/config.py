"""Frozen configuration object for :class:`~repro.core.adaptive.AdaptiveLSH`.

The adaptive method grew a sprawling constructor (budgets, epsilon,
seed, cost model, noise, selection, jump policy, parallelism, caching);
:class:`AdaptiveConfig` consolidates all of it into one immutable,
comparable value that every entry point — ``AdaptiveLSH``,
``adaptive_filter``, ``TopKPipeline``, ``StreamingTopK``, the CLI, and
index snapshots — constructs through.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any

from ..errors import ConfigurationError
from ..lsh.binindex import DEFAULT_MAX_BYTES as DEFAULT_BIN_INDEX_BYTES
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
#: ``to_dict`` wrote), ``kernels`` selected the kernel backend.
RETIRED_KEYS = frozenset({"signature_cache", "kernels"})


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
    pairwise_strategy: str = "auto"
    selection: str = "largest"
    jump_policy: str = "line5"
    lookahead_samples: int = 32
    lookahead_density: float = 0.6
    n_jobs: int | None = None
    #: Cross-round pair-verdict memoization (``None`` defers to the
    #: ``REPRO_PAIR_MEMO`` environment variable, default enabled).
    pair_memo: bool | None = None
    pair_memo_bytes: int = DEFAULT_PAIR_MEMO_BYTES
    #: Persistent fingerprint bin index for collision grouping and
    #: streaming delta candidate generation (``None`` defers to the
    #: ``REPRO_BIN_INDEX`` environment variable, default enabled).
    #: Grouping output is bit-identical either way.
    bin_index: bool | None = None
    bin_index_bytes: int = DEFAULT_BIN_INDEX_BYTES

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
        object.__setattr__(self, "lookahead_samples", int(self.lookahead_samples))
        object.__setattr__(self, "lookahead_density", float(self.lookahead_density))
        object.__setattr__(self, "pair_memo_bytes", int(self.pair_memo_bytes))
        object.__setattr__(self, "bin_index_bytes", int(self.bin_index_bytes))

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly view of the *portable* settings.

        ``seed`` and a concrete :class:`CostModel` are excluded — index
        snapshots carry RNG state and the cost model separately, in
        exact form; this dict covers everything rebuildable from plain
        scalars.  ``n_jobs`` is excluded too: it is a machine-local
        performance knob that never changes results.
        """
        return {
            "budgets": list(self.budgets) if self.budgets is not None else None,
            "epsilon": self.epsilon,
            "noise_factor": self.noise_factor,
            "analytic_pair_cost": self.analytic_pair_cost,
            "pairwise_strategy": self.pairwise_strategy,
            "selection": self.selection,
            "jump_policy": self.jump_policy,
            "lookahead_samples": self.lookahead_samples,
            "lookahead_density": self.lookahead_density,
            "pair_memo": self.pair_memo,
            "pair_memo_bytes": self.pair_memo_bytes,
            "bin_index": self.bin_index,
            "bin_index_bytes": self.bin_index_bytes,
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
