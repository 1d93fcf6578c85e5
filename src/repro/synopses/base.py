"""The ``Synopsis`` datatype: lossy relation summaries with relational ops.

Paper Section 5.1 defines an abstract object-relational datatype
``Synopsis`` together with user-defined functions that perform relational
algebra over it (``project``, ``union_all``, ``equijoin``).  This module
fixes that interface; concrete implementations live in sibling modules
(sparse cubic histograms, MHIST, samples, sketches, wavelets).

Conventions shared by all implementations:

* A synopsis summarizes a bag of tuples over named integer-valued
  dimensions.  Each dimension has an inclusive domain ``(lo, hi)`` — the
  paper's experiments use values 1..100.
* ``total()`` estimates the number of summarized tuples; inserting a tuple
  always adds exactly its weight to ``total()`` (estimation error shows up in
  *where* the mass sits, never in how much there is).
* ``equijoin(other, self_dim, other_dim)`` estimates the bag join
  ``self ⋈ other`` on ``self_dim = other_dim``.  The join dimension is kept
  in the output under ``self_dim``'s name (needed because the experiment
  query groups by the join attribute ``R.a``); ``other``'s copy disappears.
* ``group_counts(dim)`` converts a synopsis into per-value estimated counts
  along one dimension — the bridge from shadow-plan output to approximate
  GROUP BY aggregates.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

Bounds = tuple[int, int]


class SynopsisError(ValueError):
    """Raised for dimension mismatches, misaligned joins, bad domains."""


@dataclass(frozen=True)
class Dimension:
    """A named dimension with an inclusive integer domain."""

    name: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise SynopsisError(f"empty domain for {self.name}: [{self.lo}, {self.hi}]")

    @property
    def n_values(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def renamed(self, name: str) -> "Dimension":
        return Dimension(name, self.lo, self.hi)


class Synopsis(abc.ABC):
    """Abstract synopsis over named dimensions."""

    dimensions: tuple[Dimension, ...]

    # ------------------------------------------------------------------
    # Dimension plumbing
    # ------------------------------------------------------------------
    @property
    def dim_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    def dim_index(self, name: str) -> int:
        """Resolve a dimension by name.

        Accepts SQL-style qualified names on either side: asking for ``R.a``
        finds a dimension named ``a``, and asking for ``a`` finds a
        dimension named ``R.a`` (if unambiguous) — the shadow queries of
        paper Figure 5 pass qualified column names like ``'S.c'`` to the
        synopsis UDFs.
        """
        key = name.lower()
        for i, d in enumerate(self.dimensions):
            if d.name.lower() == key:
                return i
        if "." in key:
            return self.dim_index(key.rsplit(".", 1)[1])
        suffix = "." + key
        matches = [
            i for i, d in enumerate(self.dimensions) if d.name.lower().endswith(suffix)
        ]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise SynopsisError(
                f"ambiguous dimension {name!r} among {self.dim_names}"
            )
        raise SynopsisError(
            f"no dimension {name!r} in synopsis over {self.dim_names}"
        )

    def dimension(self, name: str) -> Dimension:
        return self.dimensions[self.dim_index(name)]

    def _check_value(self, values: Sequence[float]) -> None:
        if len(values) != len(self.dimensions):
            raise SynopsisError(
                f"tuple arity {len(values)} != {len(self.dimensions)} dimensions"
            )
        for v, d in zip(values, self.dimensions):
            if not d.contains(v):
                raise SynopsisError(
                    f"value {v!r} outside domain [{d.lo}, {d.hi}] of {d.name}"
                )

    # ------------------------------------------------------------------
    # Abstract interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def insert(self, values: Sequence[float], weight: float = 1.0) -> None:
        """Fold one tuple (its dimension values, in order) into the synopsis."""

    def insert_many(self, rows: Iterable[Sequence[float]]) -> None:
        for row in rows:
            self.insert(row)

    def insert_bulk(
        self,
        rows: Iterable[Sequence[float]],
        positions: Sequence[int] | None = None,
        weight: float = 1.0,
    ) -> None:
        """Fold many tuples at once, in order.

        When ``positions`` is given, ``rows`` are full stream rows and
        ``positions`` selects the dimension fields (the triage queue's
        batched shed flush); with ``positions=None`` each row is already a
        dimension-value vector.  Implementations may override with a fused
        loop, but must preserve insert order and per-insert semantics —
        reservoir samples are order- and RNG-sensitive, and every row adds
        exactly ``weight`` to :meth:`total`.
        """
        insert = self.insert
        if positions is None:
            for row in rows:
                insert(row, weight)
        else:
            for row in rows:
                insert([row[p] for p in positions], weight)

    @abc.abstractmethod
    def total(self) -> float:
        """Estimated number of summarized tuples."""

    @abc.abstractmethod
    def project(self, dims: Sequence[str]) -> "Synopsis":
        """Marginalize onto the named dimensions (bag projection)."""

    @abc.abstractmethod
    def union_all(self, other: "Synopsis") -> "Synopsis":
        """Bag union: a synopsis summarizing both input bags."""

    @abc.abstractmethod
    def equijoin(self, other: "Synopsis", self_dim: str, other_dim: str) -> "Synopsis":
        """Estimate the equijoin on ``self_dim = other_dim``.

        Output dimensions: all of ``self``'s, then ``other``'s minus its join
        dimension.  The join dimension survives under ``self_dim``'s name.
        """

    def equijoin_multi(
        self, other: "Synopsis", pairs: Sequence[tuple[str, str]]
    ) -> "Synopsis":
        """Equijoin on several key pairs at once (composite keys).

        The default supports exactly one pair (delegating to
        :meth:`equijoin`); grid-aligned histogram families override it.
        """
        if len(pairs) == 1:
            return self.equijoin(other, pairs[0][0], pairs[0][1])
        raise SynopsisError(
            f"{type(self).__name__} does not support multi-key joins "
            f"({len(pairs)} key pairs requested)"
        )

    @abc.abstractmethod
    def select_range(self, dim: str, lo: int, hi: int) -> "Synopsis":
        """σ: keep mass whose ``dim`` value lies in ``[lo, hi]``."""

    @abc.abstractmethod
    def group_counts(self, dim: str) -> dict[int, float]:
        """Estimated per-value counts along one dimension (marginal)."""

    @abc.abstractmethod
    def scale(self, factor: float) -> "Synopsis":
        """Multiply all mass by ``factor`` (used by sampling estimators)."""

    @abc.abstractmethod
    def storage_size(self) -> int:
        """Number of storage cells (buckets / samples / coefficients)."""

    @abc.abstractmethod
    def empty_like(self) -> "Synopsis":
        """A fresh, empty synopsis with the same dimensions and parameters."""

    # ------------------------------------------------------------------
    # Derived conveniences
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        return self.total() <= 0

    def estimate_point(self, **assignments: int) -> float:
        """Estimated count of tuples matching the given dim=value equalities."""
        syn: Synopsis = self
        for dim, value in assignments.items():
            syn = syn.select_range(dim, value, value)
        return syn.total()

    def __repr__(self) -> str:
        dims = ", ".join(f"{d.name}[{d.lo},{d.hi}]" for d in self.dimensions)
        return (
            f"{type(self).__name__}({dims}, total={self.total():.1f}, "
            f"cells={self.storage_size()})"
        )


class SynopsisFactory(abc.ABC):
    """Creates empty synopses for a stream's dimensions.

    The triage queue asks its factory for a fresh synopsis at every window
    boundary; the factory pins the synopsis family and its tuning parameters
    (bucket width, budget, ...), which is how experiments swap synopsis types
    without touching the pipeline.
    """

    @abc.abstractmethod
    def create(self, dimensions: Sequence[Dimension]) -> Synopsis:
        """A fresh, empty synopsis over the given dimensions."""

    @property
    def name(self) -> str:
        return type(self).__name__


def require_same_dimensions(a: Synopsis, b: Synopsis) -> None:
    """Union compatibility check shared by implementations."""
    if a.dimensions != b.dimensions:
        raise SynopsisError(
            f"dimension mismatch: {a.dim_names} {[(d.lo, d.hi) for d in a.dimensions]}"
            f" vs {b.dim_names} {[(d.lo, d.hi) for d in b.dimensions]}"
        )


def union_nullable(a: Synopsis | None, b: Synopsis | None) -> Synopsis | None:
    """``a.union_all(b)`` with ``None`` as the empty bag: a window with no
    synopsis (no tuples) leaves the other side as is."""
    if a is None:
        return b
    if b is None:
        return a
    return a.union_all(b)
