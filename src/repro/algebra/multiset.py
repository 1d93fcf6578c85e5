"""Multiset (bag) relations.

The differential relational algebra of the Data Triage paper (Section 3) is
defined over *multisets*: the invariant ``S_noisy == S + S_added - S_dropped``
uses multiset union (``+``, bag sum) and multiset difference (``-``, monus:
per-row counts saturate at zero).  This module provides the ``Multiset``
relation type that every algebraic and rewrite-level component is built on.

Rows are plain Python tuples of scalar values; the multiset stores each
distinct row with an integer multiplicity.  The representation is
schema-agnostic — arity checking is the caller's concern (the engine layer
attaches :class:`repro.engine.types.Schema` objects to relations).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from typing import Any

Row = tuple[Any, ...]


class Multiset:
    """A multiset of rows with bag-algebra operations.

    Supports the operations the differential algebra needs:

    * ``a + b`` — bag union (multiplicities add),
    * ``a - b`` — bag difference / monus (multiplicities subtract,
      saturating at zero),
    * ``a & b`` — bag intersection (minimum multiplicity),
    * equality, iteration with multiplicity, and cardinality.
    """

    __slots__ = ("_counts", "_total")

    def __init__(self, rows: Iterable[Row] = ()) -> None:
        # Counter(iterable) counts in C; insertion order (first occurrence)
        # matches the incremental loop it replaces.
        counts: Counter[Row] = Counter(rows)
        self._counts = counts
        # Cardinality is maintained incrementally: __len__ runs once per
        # source per window in evaluate_windows, so summing the Counter
        # there is a hot-path cost.
        self._total = sum(counts.values())

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_counts(cls, counts: dict[Row, int]) -> "Multiset":
        """Build directly from a ``{row: multiplicity}`` mapping.

        Raises ``ValueError`` on negative multiplicities; zero entries are
        elided so that equality is canonical.
        """
        out = cls()
        for row, n in counts.items():
            if n < 0:
                raise ValueError(f"negative multiplicity {n} for row {row!r}")
            if n:
                out._counts[row] = n
                out._total += n
        return out

    def copy(self) -> "Multiset":
        out = Multiset()
        out._counts = Counter(self._counts)
        out._total = self._total
        return out

    # ------------------------------------------------------------------
    # Mutation (used by operators building results incrementally)
    # ------------------------------------------------------------------
    def add(self, row: Row, count: int = 1) -> None:
        """Add ``count`` copies of ``row`` to the multiset."""
        if count < 0:
            raise ValueError(f"cannot add a negative count ({count})")
        if count:
            self._counts[row] += count
            self._total += count

    def discard(self, row: Row, count: int = 1) -> int:
        """Remove up to ``count`` copies of ``row``; return how many were removed."""
        if count < 0:
            raise ValueError(f"cannot discard a negative count ({count})")
        have = self._counts.get(row, 0)
        removed = min(have, count)
        if removed == have:
            self._counts.pop(row, None)
        else:
            self._counts[row] = have - removed
        self._total -= removed
        return removed

    # ------------------------------------------------------------------
    # Bag algebra
    # ------------------------------------------------------------------
    def __add__(self, other: "Multiset") -> "Multiset":
        """Bag union: multiplicities add (SQL ``UNION ALL``)."""
        out = self.copy()
        for row, n in other._counts.items():
            out._counts[row] += n
        out._total = self._total + other._total
        return out

    def __sub__(self, other: "Multiset") -> "Multiset":
        """Bag difference (monus): multiplicities subtract, floor at zero."""
        out = Multiset()
        for row, n in self._counts.items():
            m = n - other._counts.get(row, 0)
            if m > 0:
                out._counts[row] = m
                out._total += m
        return out

    def __and__(self, other: "Multiset") -> "Multiset":
        """Bag intersection: per-row minimum multiplicity."""
        out = Multiset()
        small, large = (
            (self, other) if len(self._counts) <= len(other._counts) else (other, self)
        )
        for row, n in small._counts.items():
            m = min(n, large._counts.get(row, 0))
            if m > 0:
                out._counts[row] = m
                out._total += m
        return out

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def multiplicity(self, row: Row) -> int:
        """Number of copies of ``row`` in the multiset (0 if absent)."""
        return self._counts.get(row, 0)

    def support(self) -> set[Row]:
        """The set of distinct rows."""
        return set(self._counts)

    def counts(self) -> dict[Row, int]:
        """A copy of the ``{row: multiplicity}`` mapping."""
        return dict(self._counts)

    def __len__(self) -> int:
        """Total cardinality (maintained incrementally, O(1))."""
        return self._total

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __contains__(self, row: Row) -> bool:
        return row in self._counts

    def __iter__(self) -> Iterator[Row]:
        """Iterate rows with multiplicity (each copy yielded separately)."""
        for row, n in self._counts.items():
            for _ in range(n):
                yield row

    def rows_list(self) -> list[Row]:
        """All rows with multiplicity as one list, same order as ``__iter__``.

        The batch-execution path reads whole inputs at once; building the
        list here (extend for the duplicated rows) avoids the per-copy
        generator resumption of ``list(self)``.
        """
        out: list[Row] = []
        append = out.append
        extend = out.extend
        for row, n in self._counts.items():
            if n == 1:
                append(row)
            else:
                extend([row] * n)
        return out

    def distinct_counts(self) -> tuple[list[Row], list[int]]:
        """``(distinct rows, multiplicities)`` as two aligned lists, in
        ``__iter__``'s order: the counted read of a bag, no copy per row."""
        return list(self._counts), list(self._counts.values())

    def items(self) -> Iterator[tuple[Row, int]]:
        """Iterate ``(row, multiplicity)`` pairs (no copy)."""
        return iter(self._counts.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:  # pragma: no cover - explicit unhashability
        raise TypeError("Multiset is mutable and unhashable")

    def __repr__(self) -> str:
        total = len(self)
        distinct = len(self._counts)
        return f"Multiset(|rows|={total}, |support|={distinct})"
