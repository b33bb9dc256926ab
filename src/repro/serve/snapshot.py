"""Persistent index snapshots: freeze a prepared :class:`AdaptiveLSH`.

A snapshot captures everything ``_prepare()`` produces — the designed
``(w, z)`` sequence, calibrated cost model, every hash family's drawn
parameters and RNG stream position, and the signature-pool columns —
plus the store fingerprint and seed lineage needed to verify and
resume.  Restoring onto the same store yields a method whose
:meth:`~repro.core.adaptive.AdaptiveLSH.run` output is **bit-identical**
to the cold run the snapshot was captured from, while skipping design,
calibration, and all already-paid hashing.

Format: one compressed ``.npz``.  A ``header`` array holds the JSON
metadata (magic, version, schema/rule specs, config, design specs,
cost model, RNG states) encoded as UTF-8 bytes (the same convention as
dataset persistence in :mod:`repro.io`); every numeric payload —
signature columns, fill counts, family parameter arrays — is stored as
its own dtype-exact array entry.  Nested family states (e.g. a
mixture's children) reference their arrays through ``{"__array__":
key}`` placeholders in the header JSON.

Compatibility policy: ``SNAPSHOT_VERSION`` is bumped on any change to
the header schema or array layout; :meth:`IndexSnapshot.load` refuses
versions it does not know (no silent best-effort reads).  See
``docs/SERVING.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.adaptive import AdaptiveLSH
from ..core.config import AdaptiveConfig
from ..core.cost import CostModel
from ..errors import SnapshotError
from ..io import (
    pack_json_header,
    rule_from_spec,
    rule_to_spec,
    unpack_json_header,
)
from ..lsh.design import (
    build_design_context,
    scheme_design_from_spec,
    scheme_design_to_spec,
)
from ..obs.observer import RunObserver
from ..records import RecordStore
from ..rngutil import rng_from_state, rng_state

#: File-format sentinel; a load that does not find it fails fast.
SNAPSHOT_MAGIC = "repro-index-snapshot"
#: Bumped on any incompatible change to the header or array layout.
SNAPSHOT_VERSION = 1


def _extract_arrays(
    value: Any, prefix: str, arrays: dict[str, np.ndarray]
) -> Any:
    """Replace every ndarray in a nested state tree with an
    ``{"__array__": key}`` placeholder, collecting the arrays."""
    if isinstance(value, np.ndarray):
        arrays[prefix] = value
        return {"__array__": prefix}
    if isinstance(value, dict):
        return {
            str(k): _extract_arrays(v, f"{prefix}.{k}", arrays)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [
            _extract_arrays(v, f"{prefix}.{i}", arrays)
            for i, v in enumerate(value)
        ]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _resolve_arrays(value: Any, arrays: dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`_extract_arrays`."""
    if isinstance(value, dict):
        if set(value) == {"__array__"}:
            key = value["__array__"]
            try:
                return arrays[key]
            except KeyError:
                raise SnapshotError(
                    f"snapshot is missing array {key!r}"
                ) from None
        return {k: _resolve_arrays(v, arrays) for k, v in value.items()}
    if isinstance(value, list):
        return [_resolve_arrays(v, arrays) for v in value]
    return value


@dataclass
class IndexSnapshot:
    """A captured, serializable prepared state of an :class:`AdaptiveLSH`.

    ``header`` is the JSON-friendly metadata; ``arrays`` maps array
    keys (pool columns, family parameters) to dtype-exact ndarrays.
    """

    header: dict[str, Any]
    arrays: dict[str, np.ndarray]

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, method: AdaptiveLSH) -> IndexSnapshot:
        """Freeze ``method``'s prepared state (preparing it if needed)."""
        method.prepare()
        store = method.store
        arrays: dict[str, np.ndarray] = {}
        pools_meta: list[dict[str, Any]] = []
        leaves = [comp for branch in method._ctx.branches for comp in branch]
        for i, comp in enumerate(leaves):
            data, filled = comp.pool.export_columns()
            arrays[f"pool::{i}::data"] = data
            arrays[f"pool::{i}::filled"] = filled
            state = comp.pool.family.export_state()
            pools_meta.append(
                {
                    "name": comp.pool.name,
                    "state": _extract_arrays(state, f"state::{i}", arrays),
                }
            )
        header: dict[str, Any] = {
            "magic": SNAPSHOT_MAGIC,
            "version": SNAPSHOT_VERSION,
            "n_records": len(store),
            "store_fingerprint": store.content_fingerprint(),
            "schema": [
                {"name": f.name, "kind": f.kind.value} for f in store.schema
            ],
            "rule": rule_to_spec(method.rule),
            "config": dict(method.config.to_dict(), budgets=list(method.budgets)),
            "designs": [scheme_design_to_spec(d) for d in method._designs],
            "layouts": [fn.scheme.layout_spec() for fn in method._functions],
            "cost_model": method.cost_model.to_dict(),
            "rng": rng_state(method._rng),
            "lookahead_seed": method._lookahead_seed,
            "pools": pools_meta,
        }
        return cls(header, arrays)

    # ------------------------------------------------------------------
    def save(self, path: Any) -> None:
        """Write the snapshot as one compressed ``.npz`` file."""
        np.savez_compressed(
            path, header=pack_json_header(self.header), **self.arrays
        )

    @classmethod
    def load(cls, path: Any) -> IndexSnapshot:
        """Read a snapshot written by :meth:`save` (dtype-exact)."""
        with np.load(path) as data:
            files = set(data.files)
            if "header" not in files:
                raise SnapshotError(f"{path!r} is not an index snapshot")
            try:
                header = unpack_json_header(data["header"])
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise SnapshotError(
                    f"{path!r} has a corrupt snapshot header: {exc}"
                ) from exc
            if header.get("magic") != SNAPSHOT_MAGIC:
                raise SnapshotError(
                    f"{path!r} is not an index snapshot "
                    f"(magic={header.get('magic')!r})"
                )
            version = header.get("version")
            if version != SNAPSHOT_VERSION:
                raise SnapshotError(
                    f"snapshot version {version!r} is not supported "
                    f"(this build reads version {SNAPSHOT_VERSION})"
                )
            arrays = {
                key: np.array(data[key]) for key in files if key != "header"
            }
        return cls(header, arrays)

    # ------------------------------------------------------------------
    def restore(
        self,
        store: RecordStore,
        observer: RunObserver | None = None,
        strict: bool = True,
    ) -> AdaptiveLSH:
        """Rebuild a warm-started :class:`AdaptiveLSH` over ``store``.

        With ``strict=True`` (default) the store must be byte-identical
        to the captured one.  ``strict=False`` additionally accepts a
        store *extended* past the captured records (same prefix):
        restored pool columns cover the prefix and new records hash
        lazily — the snapshot-then-extend serving path.
        """
        header = self.header
        schema_spec = [
            {"name": f.name, "kind": f.kind.value} for f in store.schema
        ]
        if schema_spec != header["schema"]:
            raise SnapshotError(
                f"store schema {schema_spec} does not match snapshot "
                f"schema {header['schema']}"
            )
        n = int(header["n_records"])
        fingerprint = header["store_fingerprint"]
        if strict:
            if len(store) != n or store.content_fingerprint() != fingerprint:
                raise SnapshotError(
                    "store content does not match the snapshot; pass "
                    "strict=False to restore onto an extended store"
                )
        else:
            if len(store) < n or store.content_fingerprint(limit=n) != fingerprint:
                raise SnapshotError(
                    "store is not an extension of the snapshot's store "
                    "(captured prefix differs)"
                )
        rule = rule_from_spec(header["rule"])
        cost_model = CostModel.from_dict(header["cost_model"])
        config = AdaptiveConfig.from_dict(
            header["config"],
            cost_model=cost_model,
        )
        method = AdaptiveLSH(store, rule, config=config, observer=observer)
        # Rebuilding the context draws nothing: families are constructed
        # with empty parameter arrays, then overwritten from the
        # snapshot (parameters + exact RNG stream positions).
        ctx = build_design_context(store, rule, seed=0)
        leaves = [comp for branch in ctx.branches for comp in branch]
        pools_meta = header["pools"]
        if len(leaves) != len(pools_meta):
            raise SnapshotError(
                f"snapshot has {len(pools_meta)} signature pools but the "
                f"rule produces {len(leaves)}"
            )
        for i, (comp, meta) in enumerate(zip(leaves, pools_meta)):
            if comp.pool.name != meta["name"]:
                raise SnapshotError(
                    f"pool order mismatch: expected {meta['name']!r}, "
                    f"built {comp.pool.name!r}"
                )
            comp.pool.family.import_state(
                _resolve_arrays(meta["state"], self.arrays)
            )
            try:
                data = self.arrays[f"pool::{i}::data"]
                filled = self.arrays[f"pool::{i}::filled"]
            except KeyError:
                raise SnapshotError(
                    f"snapshot is missing columns for pool {meta['name']!r}"
                ) from None
            comp.pool.import_columns(data, filled)
        designs = [
            scheme_design_from_spec(spec, ctx) for spec in header["designs"]
        ]
        method.adopt_prepared_state(
            ctx,
            designs,
            cost_model,
            rng=rng_from_state(header["rng"]),
            lookahead_seed=header.get("lookahead_seed"),
        )
        layouts = [fn.scheme.layout_spec() for fn in method._functions]
        if layouts != header["layouts"]:
            raise SnapshotError(
                "rebuilt scheme layout differs from the captured layout; "
                "the snapshot does not match this build"
            )
        return method
