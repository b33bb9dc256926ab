"""Structured run reports: one JSON document per filtering run.

A :class:`RunReport` captures everything a scaling PR needs to prove a
speedup claim about one adaLSH run:

* per-round :class:`RoundEvent` records (action, cluster size, source
  level, wall-time, cost-model prediction);
* the work counters (hashes, pairs charged vs. compared, rounds);
* the metrics-registry snapshot and the span tree;
* the cost model used, plus prediction-vs-actual residuals aggregated
  per action kind.

Reports serialize losslessly to JSON (:meth:`RunReport.to_json` /
:meth:`RunReport.from_json`) and render as a human-readable table
(:meth:`RunReport.to_table`, also exposed as ``python -m repro
metrics``).
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

#: Schema version stamped into every serialized report.
#: Version 2 added the ``serving`` section (warm/cold start, session
#: cache hits); version-1 documents load fine — the section defaults
#: to empty.
REPORT_VERSION = 2


@dataclass
class RoundEvent:
    """One Largest-First round: which action ran on which cluster.

    ``predicted_cost`` is the cost model's estimate for the chosen
    action (model units — seconds for calibrated models); ``wall_time``
    is the measured execution time of that action.
    """

    round: int
    action: str
    size: int
    from_level: int
    subclusters: int
    largest_out: int
    wall_time: float = 0.0
    predicted_cost: float = 0.0
    jump: bool = False


def cost_residuals(rounds: Iterable[RoundEvent]) -> dict[str, Any]:
    """Aggregate prediction-vs-actual per action kind (hash / pairwise).

    ``residual`` is ``actual - predicted`` wall-time in seconds (only
    meaningful for calibrated cost models, whose unit is seconds);
    ``ratio`` is ``actual / predicted`` and is unit-free, so it is
    comparable across analytic and calibrated models.
    """
    out: dict[str, dict[str, Any]] = {}
    for event in rounds:
        kind = "pairwise" if event.jump else "hash"
        agg = out.setdefault(
            kind,
            {"rounds": 0, "predicted_total": 0.0, "actual_total": 0.0},
        )
        agg["rounds"] += 1
        agg["predicted_total"] += float(event.predicted_cost)
        agg["actual_total"] += float(event.wall_time)
    for agg in out.values():
        agg["residual"] = agg["actual_total"] - agg["predicted_total"]
        agg["ratio"] = (
            agg["actual_total"] / agg["predicted_total"]
            if agg["predicted_total"] > 0.0
            else None
        )
    return out


@dataclass
class RunReport:
    """Serializable record of one filtering run."""

    method: str
    k: int
    wall_time: float
    rounds: list[RoundEvent] = field(default_factory=list)
    counters: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    cost_model: dict[str, Any] = field(default_factory=dict)
    residuals: dict[str, Any] = field(default_factory=dict)
    hash_pools: list[dict[str, Any]] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)
    #: Serving-session counters (warm vs cold start, session queries,
    #: cache hits); empty outside a ResolverSession.
    serving: dict[str, Any] = field(default_factory=dict)
    version: int = REPORT_VERSION

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out["rounds"] = [asdict(e) for e in self.rounds]
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> RunReport:
        data = dict(data)
        data["rounds"] = [RoundEvent(**e) for e in data.get("rounds", [])]
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> RunReport:
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> RunReport:
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # ------------------------------------------------------------------
    def to_table(self, max_rounds: int = 20) -> str:
        """Human-readable multi-section summary of this report."""
        lines = [
            f"run: {self.method}  k={self.k}  wall={self.wall_time:.4f}s  "
            f"rounds={len(self.rounds)}",
        ]
        if self.counters:
            parts = ", ".join(
                f"{key}={value}"
                for key, value in self.counters.items()
                if not isinstance(value, dict)
            )
            lines += ["", "counters:", f"  {parts}"]
        if self.serving:
            parts = ", ".join(
                f"{key}={value}" for key, value in self.serving.items()
            )
            lines += ["", "serving:", f"  {parts}"]
        memo = self.info.get("memoized_pairs")
        if memo:
            parts = ", ".join(f"{key}={value}" for key, value in memo.items())
            lines += ["", "memoized pairs:", f"  {parts}"]
        if self.residuals:
            lines += ["", "cost-model residuals (predicted vs actual):"]
            lines.append(
                f"  {'action':<10}{'rounds':>8}{'predicted':>14}"
                f"{'actual':>14}{'ratio':>10}"
            )
            for kind in sorted(self.residuals):
                agg = self.residuals[kind]
                ratio = agg.get("ratio")
                ratio_cell = f"{ratio:>10.3g}" if ratio is not None else f"{'-':>10}"
                lines.append(
                    f"  {kind:<10}{agg['rounds']:>8}"
                    f"{agg['predicted_total']:>14.6g}"
                    f"{agg['actual_total']:>14.6g}{ratio_cell}"
                )
        if self.hash_pools:
            lines += ["", "hash pools:"]
            lines.append(
                f"  {'pool':<28}{'hashes':>10}{'seconds':>12}"
                f"{'filled':>12}{'bytes':>14}"
            )
            for pool in self.hash_pools:
                lines.append(
                    f"  {str(pool.get('name', '?')):<28}"
                    f"{pool.get('hashes_computed', 0):>10}"
                    f"{pool.get('seconds', 0.0):>12.6f}"
                    f"{pool.get('filled_values', 0):>12}"
                    f"{pool.get('bytes', 0):>14}"
                )
        if self.rounds:
            lines += ["", f"rounds (first {min(max_rounds, len(self.rounds))}):"]
            lines.append(
                f"  {'#':>4} {'action':<7}{'size':>8}{'from':>6}"
                f"{'subcl':>7}{'largest':>9}{'wall_s':>12}{'pred':>12}"
            )
            for event in self.rounds[:max_rounds]:
                lines.append(
                    f"  {event.round:>4} {event.action:<7}{event.size:>8}"
                    f"{event.from_level:>6}{event.subclusters:>7}"
                    f"{event.largest_out:>9}{event.wall_time:>12.6g}"
                    f"{event.predicted_cost:>12.6g}"
                )
            if len(self.rounds) > max_rounds:
                lines.append(f"  ... {len(self.rounds) - max_rounds} more rounds")
        hist = self.metrics.get("histograms") or {}
        if hist:
            lines += ["", "histograms:"]
            lines.append(
                f"  {'name':<32}{'count':>8}{'mean':>12}{'total':>12}"
            )
            for name in sorted(hist):
                entry = hist[name]
                lines.append(
                    f"  {name:<32}{entry['count']:>8}"
                    f"{entry['mean']:>12.6f}{entry['total']:>12.6f}"
                )
        return "\n".join(lines)
