"""(w, z)-schemes and their multi-field generalizations as concrete
hash-table layouts (paper §3, Appendix A/B.2/C).

A :class:`HashingScheme` is a list of :class:`TableGroup`:

* a plain (w, z)-scheme is one group: ``z`` tables, each keyed by ``w``
  hash values from one pool;
* an AND construction (Appendix C.1) is one group whose per-table key
  concatenates ``w_f`` values from each field's pool;
* an OR construction (Appendix C.2) is several groups, one per branch.

Table ``j`` of a group reads pool columns ``[j*w, (j+1)*w)``; because a
later function in the sequence uses larger ``w`` and ``z`` over the
*same pools*, all previously computed hash values are reused
(incremental computation, Property 4).  A scheme only describes the
layout; :mod:`repro.lsh.binindex` reads the keys straight from the
pools and groups records by them, a range of tables
(:meth:`HashingScheme.tables`) at a time.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError
from .families import SignaturePool


@dataclass(frozen=True)
class PoolUse:
    """``w`` hash values per table drawn from ``pool``.

    ``offset`` shifts the column window: table ``j`` reads pool columns
    ``offset + [j*w, (j+1)*w)``.  Used by mixed schemes, whose
    remainder table must hash with functions *independent* of the main
    tables'.
    """

    pool: SignaturePool
    w: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ConfigurationError(f"w must be >= 1, got {self.w}")
        if self.offset < 0:
            raise ConfigurationError(f"offset must be >= 0, got {self.offset}")


@dataclass(frozen=True)
class TableGroup:
    """``z`` hash tables, each keyed by the concatenation of every
    pool's ``w`` values (AND across pools, OR across tables)."""

    z: int
    uses: tuple[PoolUse, ...]

    def __post_init__(self) -> None:
        if self.z < 1:
            raise ConfigurationError(f"z must be >= 1, got {self.z}")
        if not self.uses:
            raise ConfigurationError("table group needs at least one pool")

    @property
    def hashes_per_table(self) -> int:
        return sum(use.w for use in self.uses)

    @property
    def budget(self) -> int:
        """Total hash functions this group applies per record."""
        return self.z * self.hashes_per_table


class HashingScheme:
    """A concrete hashing layout: one or more OR'd table groups."""

    def __init__(self, groups: Iterable[TableGroup]) -> None:
        self.groups: tuple[TableGroup, ...] = tuple(groups)
        if not self.groups:
            raise ConfigurationError("scheme needs at least one table group")

    @property
    def budget(self) -> int:
        """Total hash functions applied per record by this scheme."""
        return sum(g.budget for g in self.groups)

    @property
    def table_count(self) -> int:
        return sum(g.z for g in self.groups)

    def tables(self, start: int, stop: int) -> HashingScheme:
        """The scheme of tables ``[start, stop)``: its table ``j`` reads
        the same pool columns as table ``start + j`` of this one, so its
        keys are that table's keys.  A cut inside a group keeps the
        group's uses and moves their offsets past the dropped tables."""
        if start == 0 and stop == self.table_count:
            return self
        groups = []
        t0 = 0
        for group in self.groups:
            lo, hi = max(start - t0, 0), min(stop - t0, group.z)
            if lo < hi:
                groups.append(
                    TableGroup(
                        hi - lo,
                        tuple(
                            PoolUse(use.pool, use.w, use.offset + lo * use.w)
                            for use in group.uses
                        ),
                    )
                )
            t0 += group.z
        return HashingScheme(groups)

    def layout_spec(self) -> list[dict[str, Any]]:
        """JSON-friendly structural description of this scheme.

        Used by index snapshots to verify that a scheme rebuilt on
        restore has exactly the captured table layout (pool names,
        per-table hash counts, offsets, table counts).
        """
        return [
            {
                "z": group.z,
                "uses": [
                    {"pool": use.pool.name, "w": use.w, "offset": use.offset}
                    for use in group.uses
                ],
            }
            for group in self.groups
        ]
