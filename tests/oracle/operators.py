"""The interpreted operator tree: the reference the compiled plans answer to.

Operators follow the classic pull model: each node exposes an output
:class:`~repro.engine.types.Schema` and an ``__iter__`` that yields rows,
and every expression evaluates through its ``Expression.bind`` closure, one
Python call per node per row.  The production executor
(:class:`repro.engine.executor.QueryExecutor`) runs compiled plans only;
these operators stay here so tests can hold those plans to the plain
textbook semantics (the tree is rebuilt per window, so blocking hash joins
and hash aggregation are fine).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from typing import Any

from repro.algebra.multiset import Multiset
from repro.engine.expressions import AggregateSpec, Evaluator, Expression, _infer_type
from repro.engine.types import Column, ColumnType, Schema


class PhysicalOperator:
    """Base class: a node in a physical plan tree."""

    schema: Schema

    def __iter__(self) -> Iterator[tuple]:
        raise NotImplementedError

    def to_multiset(self) -> Multiset:
        """Drain the operator into a bag — the per-window result collector."""
        return Multiset(iter(self))


class Scan(PhysicalOperator):
    """Leaf: yields the rows of an in-memory bag (one window's contents)."""

    def __init__(self, rows: Multiset | Iterable[tuple], schema: Schema) -> None:
        self.rows = rows if isinstance(rows, Multiset) else Multiset(rows)
        self.schema = schema

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)


class Filter(PhysicalOperator):
    """σ: keeps rows whose predicate evaluates to SQL TRUE (NULL filters out)."""

    def __init__(
        self,
        child: PhysicalOperator,
        predicate: Expression,
        functions: dict[str, Callable] | None = None,
    ) -> None:
        self.child = child
        self.schema = child.schema
        self._pred: Evaluator = predicate.bind(child.schema, functions)

    def __iter__(self) -> Iterator[tuple]:
        pred = self._pred
        for row in self.child:
            if pred(row) is True:
                yield row


class Project(PhysicalOperator):
    """π: evaluates one expression per output column (bag semantics)."""

    def __init__(
        self,
        child: PhysicalOperator,
        outputs: list[tuple[str, Expression]],
        functions: dict[str, Callable] | None = None,
        output_types: list[ColumnType] | None = None,
    ) -> None:
        self.child = child
        self._evals = [expr.bind(child.schema, functions) for _, expr in outputs]
        types = output_types or [_infer_type(expr, child.schema) for _, expr in outputs]
        self.schema = Schema([Column(name, t) for (name, _), t in zip(outputs, types)])

    def __iter__(self) -> Iterator[tuple]:
        evals = self._evals
        for row in self.child:
            yield tuple(e(row) for e in evals)


class HashJoin(PhysicalOperator):
    """⋈: hash equijoin on named key columns; output = left ++ right columns.

    Output column names are qualified with the child *labels* (stream or
    alias names) so that downstream expressions can reference ``R.a`` without
    ambiguity, matching how the experiment query addresses columns.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: list[str],
        right_keys: list[str],
        left_label: str = "",
        right_label: str = "",
    ) -> None:
        if len(left_keys) != len(right_keys):
            raise ValueError("join key lists must have equal length")
        self.left, self.right = left, right
        self._lpos = [left.schema.position(k) for k in left_keys]
        self._rpos = [right.schema.position(k) for k in right_keys]
        lp = f"{left_label}." if left_label and "." not in left.schema.names[0] else ""
        rp = f"{right_label}." if right_label and "." not in right.schema.names[0] else ""
        self.schema = left.schema.concat(
            right.schema, prefix_left=lp, prefix_right=rp
        )

    def __iter__(self) -> Iterator[tuple]:
        table: dict[tuple, list[tuple]] = defaultdict(list)
        rpos = self._rpos
        for row in self.right:
            key = tuple(row[p] for p in rpos)
            if None not in key:
                table[key].append(row)
        if not table:
            # Empty build side: no probe row can match, so skip building
            # a key tuple per probe row.
            return
        lpos = self._lpos
        for lrow in self.left:
            key = tuple(lrow[p] for p in lpos)
            if None in key:
                # NULL never equals anything; mirrors the build-side check.
                continue
            for rrow in table.get(key, ()):
                yield lrow + rrow


class NestedLoopJoin(PhysicalOperator):
    """⋈θ: general theta join (used for non-equality predicates)."""

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        predicate: Expression | None = None,
        functions: dict[str, Callable] | None = None,
        left_label: str = "",
        right_label: str = "",
    ) -> None:
        self.left, self.right = left, right
        lp = f"{left_label}." if left_label else ""
        rp = f"{right_label}." if right_label else ""
        self.schema = left.schema.concat(right.schema, prefix_left=lp, prefix_right=rp)
        self._pred = predicate.bind(self.schema, functions) if predicate else None

    def __iter__(self) -> Iterator[tuple]:
        right_rows = list(self.right)
        pred = self._pred
        for lrow in self.left:
            for rrow in right_rows:
                row = lrow + rrow
                if pred is None or pred(row) is True:
                    yield row


class _AggState:
    """Running state for one group's aggregates."""

    __slots__ = ("count", "nonnull", "total", "minimum", "maximum")

    def __init__(self, n_aggs: int) -> None:
        self.count = 0
        self.nonnull = [0] * n_aggs
        self.total = [0.0] * n_aggs
        self.minimum: list[Any] = [None] * n_aggs
        self.maximum: list[Any] = [None] * n_aggs


class HashAggregate(PhysicalOperator):
    """GROUP BY + aggregates via a hash table.

    Matches SQL semantics: groups with zero rows do not appear; NULL argument
    values are ignored by all aggregates except ``COUNT(*)``.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        group_by: list[tuple[str, Expression]],
        aggregates: list[AggregateSpec],
        functions: dict[str, Callable] | None = None,
    ) -> None:
        self.child = child
        self.group_by = group_by
        self.aggregates = aggregates
        self._group_evals = [e.bind(child.schema, functions) for _, e in group_by]
        self._agg_evals = [
            spec.argument.bind(child.schema, functions) if spec.argument else None
            for spec in aggregates
        ]
        cols = [
            Column(name, _infer_type(expr, child.schema)) for name, expr in group_by
        ]
        for spec in aggregates:
            t = (
                ColumnType.INTEGER
                if spec.function.lower() == "count"
                else ColumnType.FLOAT
            )
            cols.append(Column(spec.output_name, t))
        self.schema = Schema(cols)

    def __iter__(self) -> Iterator[tuple]:
        groups: dict[tuple, _AggState] = {}
        n = len(self.aggregates)
        for row in self.child:
            key = tuple(e(row) for e in self._group_evals)
            state = groups.get(key)
            if state is None:
                state = groups[key] = _AggState(n)
            state.count += 1
            for i, ev in enumerate(self._agg_evals):
                if ev is None:
                    continue
                v = ev(row)
                if v is None:
                    continue
                state.nonnull[i] += 1
                state.total[i] += v
                if state.minimum[i] is None or v < state.minimum[i]:
                    state.minimum[i] = v
                if state.maximum[i] is None or v > state.maximum[i]:
                    state.maximum[i] = v
        for key, state in groups.items():
            out = list(key)
            for i, spec in enumerate(self.aggregates):
                fn = spec.function.lower()
                if fn == "count":
                    out.append(state.count if spec.argument is None else state.nonnull[i])
                elif fn == "sum":
                    out.append(state.total[i] if state.nonnull[i] else None)
                elif fn == "avg":
                    out.append(
                        state.total[i] / state.nonnull[i] if state.nonnull[i] else None
                    )
                elif fn == "min":
                    out.append(state.minimum[i])
                else:  # max
                    out.append(state.maximum[i])
            yield tuple(out)


class UnionAll(PhysicalOperator):
    """∪ (bag): concatenates children with identical arity."""

    def __init__(self, children: list[PhysicalOperator]) -> None:
        if not children:
            raise ValueError("UnionAll requires at least one child")
        arity = len(children[0].schema)
        for c in children[1:]:
            if len(c.schema) != arity:
                raise ValueError("UNION ALL children must have equal arity")
        self.children = children
        self.schema = children[0].schema

    def __iter__(self) -> Iterator[tuple]:
        for child in self.children:
            yield from child


class Distinct(PhysicalOperator):
    """Duplicate elimination (SELECT DISTINCT): first occurrences, in order."""

    def __init__(self, child: PhysicalOperator) -> None:
        self.child = child
        self.schema = child.schema

    def __iter__(self) -> Iterator[tuple]:
        seen: set[tuple] = set()
        for row in self.child:
            if row not in seen:
                seen.add(row)
                yield row
