"""The interpreted executor: per-window operator trees, the tests' oracle.

:class:`OracleExecutor` plans a bound query exactly as the compiled planner
(:mod:`repro.perf.compile`) does — same greedy join schedule, same schema
qualification, same ORDER BY / LIMIT tail — but instantiates the
:mod:`tests.oracle.operators` tree over each window's rows and pulls them
through ``Expression.bind`` closures.  It has the production executor's
``execute(bound, inputs)`` face, so a test can put it in a pipeline's
``executor`` slot, and :meth:`OracleExecutor.profile` counts rows per
node the way EXPLAIN ANALYZE counts them for a compiled plan.
"""

from __future__ import annotations

import copy
import time

from repro.algebra.multiset import Multiset
from repro.engine.catalog import Catalog
from repro.engine.executor import (
    QueryResult,
    _dequalify,
    _order_rows,
    _qualify,
    join_schedule,
)
from repro.engine.expressions import conjoin
from repro.obs.explain import OperatorProfile, ProfileReport
from repro.sql.binder import BoundQuery, BoundUnion
from tests.oracle.operators import (
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    NestedLoopJoin,
    PhysicalOperator,
    Project,
    Scan,
)


class OracleExecutor:
    """Executes bound queries by building a fresh operator tree per window."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._functions = catalog.functions

    def execute(self, bound, inputs: dict[str, Multiset]) -> QueryResult:
        """Run ``bound`` (BoundQuery or BoundUnion) over one window's ``inputs``."""
        if isinstance(bound, BoundUnion):
            results = [self.execute(q, inputs) for q in bound.queries]
            rows = Multiset()
            for r in results:
                rows = rows + r.rows
            return QueryResult(rows=rows, schema=results[0].schema)
        if not isinstance(bound, BoundQuery):
            raise TypeError(f"cannot execute {type(bound).__name__}")
        return self._finish(bound, self.build(bound, inputs))

    def _finish(self, bound, plan) -> QueryResult:
        """Drain ``plan`` (an operator or a counting proxy of one)."""
        if not bound.order_by and bound.limit is None:
            return QueryResult(rows=Multiset(iter(plan)), schema=plan.schema)
        rows = list(plan)
        if bound.order_by:
            rows = _order_rows(rows, plan.schema, bound.order_by, self._functions)
        if bound.limit is not None:
            rows = rows[: bound.limit]
        return QueryResult(rows=Multiset(rows), schema=plan.schema, ordered_rows=rows)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def build(self, bound: BoundQuery, inputs: dict[str, Multiset]) -> PhysicalOperator:
        """The operator tree for one SELECT block over one window's rows."""
        per_source = {src.name: self._source(src, inputs) for src in bound.sources}
        # Local selections first (predicate pushdown).
        for name, preds in bound.local_predicates.items():
            pred = conjoin(preds)
            if pred is not None:
                per_source[name] = Filter(per_source[name], pred, self._functions)

        order = [src.name for src in bound.sources]
        op: PhysicalOperator = per_source[order[0]]
        for step in join_schedule(bound):
            right = per_source[step.source]
            if step.is_cross:
                op = NestedLoopJoin(op, right, None, self._functions)
            else:
                op = HashJoin(op, right, list(step.keys_left), list(step.keys_right))

        residual = conjoin(bound.residual_predicates)
        if residual is not None:
            op = Filter(op, residual, self._functions)

        if bound.is_aggregate:
            op = HashAggregate(op, bound.group_by, bound.aggregates, self._functions)
            if bound.having is not None:
                # HAVING sees the aggregate's output row (group keys +
                # aggregate values addressed by their output names).
                op = Filter(op, bound.having, self._functions)
        elif not bound.select_star:
            op = Project(op, bound.outputs, self._functions)

        if bound.distinct:
            op = Distinct(op)
        return op

    def _source(self, src, inputs: dict[str, Multiset]) -> PhysicalOperator:
        """Scan a base stream (qualifying its columns) or execute a subquery."""
        if src.subquery is not None:
            result = self.execute(src.subquery, inputs)
            # A derived table's output columns are bare names in SQL: strip
            # the inner qualifiers (when unambiguous) before re-qualifying
            # with this source's alias.
            return Scan(result.rows, _qualify(_dequalify(result.schema), src.name))
        rows = inputs.get(src.stream_name.lower(), None)
        if rows is None:
            rows = inputs.get(src.stream_name, Multiset())
        return Scan(rows, _qualify(src.schema, src.name))

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def profile(self, bound, inputs: dict[str, Multiset]) -> ProfileReport:
        """Execute with per-node counters, named as EXPLAIN ANALYZE names them."""
        if isinstance(bound, BoundUnion):
            prof = OperatorProfile(name="UnionAll", invocations=1)
            rows = Multiset()
            schema = None
            t0 = time.perf_counter()
            for q in bound.queries:
                arm = self.profile(q, inputs)
                prof.children.append(arm.root)
                rows = rows + arm.result.rows
                schema = schema or arm.result.schema
            prof.seconds = time.perf_counter() - t0
            prof.rows_out = len(rows)
            return ProfileReport(result=QueryResult(rows=rows, schema=schema), root=prof)
        plan = self.build(bound, inputs)
        proxy, root = _wrap(plan)
        return ProfileReport(result=self._finish(bound, proxy), root=root)


class _Counted:
    """Wraps an operator: counts rows and charges pull time to ``prof``.

    The clock brackets each ``next()`` on the wrapped iterator, so a node is
    charged for its own work *and* its subtree's — inclusive time, the
    convention of :class:`repro.obs.explain.OperatorProfile`.
    """

    __slots__ = ("_inner", "_prof", "schema")

    def __init__(self, inner: PhysicalOperator, prof: OperatorProfile) -> None:
        self._inner = inner
        self._prof = prof
        self.schema = inner.schema

    def __iter__(self):
        prof = self._prof
        prof.invocations += 1
        it = iter(self._inner)
        clock = time.perf_counter
        while True:
            t0 = clock()
            try:
                row = next(it)
            except StopIteration:
                prof.seconds += clock() - t0
                return
            prof.seconds += clock() - t0
            prof.rows_out += 1
            yield row


def _wrap(node: PhysicalOperator) -> tuple[_Counted, OperatorProfile]:
    """A counting copy of ``node``'s tree; the original is left untouched."""
    prof = OperatorProfile(name=type(node).__name__)
    clone = copy.copy(node)
    for attr in ("child", "left", "right"):
        child = getattr(node, attr, None)
        if child is not None:
            proxy, child_prof = _wrap(child)
            setattr(clone, attr, proxy)
            prof.children.append(child_prof)
    return _Counted(clone, prof), prof
