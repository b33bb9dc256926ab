"""Seeded random-number-generation helpers.

All stochastic components of the library (hash families, dataset
generators, budget noise experiments) accept either an integer seed, a
:class:`numpy.random.Generator`, or ``None``.  This module centralizes
the coercion so behaviour is uniform and reproducible everywhere.

This module is the *only* place in the package allowed to touch
``numpy.random`` / ``random`` directly (invariant rule R1 of
:mod:`repro.analysis`): every other module must obtain generators
through :func:`make_rng` and derive independent streams with
:func:`spawn`, so that one top-level seed deterministically controls
every stochastic decision of a run.
"""

from __future__ import annotations

import copy
from typing import Any, TypeAlias

import numpy as np

#: Any value acceptable as a source of randomness.
SeedLike: TypeAlias = int | np.random.Generator | np.random.SeedSequence | None


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an existing generator (returned as-is), an integer,
    a :class:`numpy.random.SeedSequence`, or ``None`` (OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def stable_seed(seed: SeedLike) -> int:
    """A non-negative integer standing for ``seed``.

    An integer seed is its own value.  Anything else contributes one
    draw from a *copy* of the generator :func:`make_rng` would return,
    so a caller's stream is never advanced.
    """
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return int(copy.deepcopy(make_rng(seed)).integers(0, 2**63 - 1))


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """A generator fixed by ``seed`` and the integers ``key`` alone, so
    the same key always draws the same stream, whatever ran before."""
    return np.random.default_rng([int(seed), *(int(k) for k in key)])


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Children are seeded from integers drawn from ``rng`` so that a
    single top-level seed deterministically fans out to independent
    streams (one per hash family, per dataset field, ...).
    """
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def rng_state(rng: np.random.Generator) -> dict[str, Any]:
    """Serializable snapshot of a generator's exact stream position.

    The returned dict is JSON-friendly (bit-generator name plus integer
    state words) and round-trips through :func:`rng_from_state`: the
    restored generator continues the stream from precisely the same
    point — the seed-lineage half of the snapshot warm-start guarantee.
    """
    return copy.deepcopy(rng.bit_generator.state)


def rng_from_state(state: dict[str, Any]) -> np.random.Generator:
    """Rebuild a generator from :func:`rng_state` output."""
    name = state["bit_generator"]
    bit_generator_cls = getattr(np.random, name)
    bit_generator = bit_generator_cls()
    bit_generator.state = copy.deepcopy(state)
    return np.random.Generator(bit_generator)
