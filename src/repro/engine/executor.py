"""Window-at-a-time query execution over bound queries.

:class:`QueryExecutor` takes a :class:`~repro.sql.binder.BoundQuery` plus the
current window's contents for every stream and produces the window's result
bag.  Join planning is the textbook greedy heuristic: build a left-deep tree,
always attaching a source that shares an equijoin predicate with what has
been joined so far (falling back to a cross product only when the query graph
is genuinely disconnected).

The continuous-query layer (:class:`ContinuousQuery`) drives this executor
once per window, which is the paper's execution model for the experiment
query of Figure 7.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.algebra.multiset import Multiset
from repro.engine.catalog import Catalog
from repro.engine.expressions import ColumnRef, Expression, conjoin
from repro.engine.operators import (
    Filter,
    HashAggregate,
    HashJoin,
    NestedLoopJoin,
    PhysicalOperator,
    Project,
    Scan,
    UnionAll,
)
from repro.engine.types import Column, Schema, StreamTuple
from repro.engine.window import WindowSpec, assign_windows


class ExecutionError(RuntimeError):
    """Raised when a query cannot be planned or executed."""


@dataclass(frozen=True)
class JoinStep:
    """One step of the greedy left-deep join schedule.

    ``keys_left``/``keys_right`` are qualified column names; empty key lists
    mean a cross product (disconnected query graph).  The schedule depends
    only on the bound query — not on window contents — so the interpreted
    executor and the compiled planner (:mod:`repro.perf.compile`) share it
    and are guaranteed to build identical join trees.
    """

    source: str
    keys_left: tuple[str, ...] = ()
    keys_right: tuple[str, ...] = ()

    @property
    def is_cross(self) -> bool:
        return not self.keys_left


def join_schedule(bound) -> list[JoinStep]:
    """Greedy left-deep join order for ``bound`` (paper's textbook heuristic).

    Always attaches a source that shares an equijoin predicate with what has
    been joined so far, gathering every available key at once (multi-key
    joins), and falls back to a FROM-order cross product only when the query
    graph is genuinely disconnected.
    """
    order = [src.name for src in bound.sources]
    joined_names = {order[0]}
    remaining = set(order[1:])
    pending = list(bound.join_predicates)
    steps: list[JoinStep] = []
    while remaining:
        chosen = None
        for pred in pending:
            if pred.left_source in joined_names and pred.right_source in remaining:
                chosen = pred.right_source
                break
            if pred.right_source in joined_names and pred.left_source in remaining:
                chosen = pred.left_source
                break
        if chosen is None:
            nxt = next(n for n in order if n in remaining)
            steps.append(JoinStep(source=nxt))
            remaining.discard(nxt)
            joined_names.add(nxt)
            continue
        new_name = chosen
        # Gather every pending predicate between the joined set ∪ {new}
        # so multi-key joins use all keys at once.
        keys_left, keys_right, used = [], [], []
        for p in pending:
            cand = None
            if p.left_source in joined_names and p.right_source == new_name:
                cand = p
            elif p.right_source in joined_names and p.left_source == new_name:
                cand = p.reversed()
            if cand is not None:
                keys_left.append(f"{cand.left_source}.{cand.left_column}")
                keys_right.append(f"{cand.right_source}.{cand.right_column}")
                used.append(p)
        pending = [p for p in pending if p not in used]
        steps.append(
            JoinStep(
                source=new_name,
                keys_left=tuple(keys_left),
                keys_right=tuple(keys_right),
            )
        )
        remaining.discard(new_name)
        joined_names.add(new_name)
    return steps


@dataclass
class QueryResult:
    """A window's result: the output bag plus its schema.

    ``ordered_rows`` is populated (a list, duplicates included) when the
    query has an ORDER BY and/or LIMIT — bags are unordered, so ordering
    travels separately.
    """

    rows: Multiset
    schema: Schema
    ordered_rows: list[tuple] | None = None


class QueryExecutor:
    """Executes bound queries over per-window input bags.

    Two execution modes share one planner:

    * **compiled** (default) — on first execution of a bound query, the
      plan is lowered *once* into a content-free operator tree whose
      expressions are generated whole-column kernels
      (:mod:`repro.perf.compile`).  The tree has one execution face,
      ``batch(inputs)``: subsequent windows re-bind the leaf scans to the
      new input bags by calling it, skipping per-window plan construction
      and per-row ``Evaluator`` dispatch.  Compiled plans are cached per
      executor, keyed on (query identity, source-schema fingerprint).
    * **interpreted** — the original per-window plan instantiation.  It is
      the reference semantics; any query the compiler cannot handle runs
      here instead.  The failure is remembered with its reason (the
      compile is not retried every window) and counted once per query as
      ``plan_compile_fallback_total{reason=<ExcType>}`` in
      :func:`repro.obs.metrics.global_registry`; EXPLAIN ANALYZE prints it.
    """

    #: Compiled-plan cache entries kept per executor before eviction.
    PLAN_CACHE_SIZE = 64

    def __init__(self, catalog: Catalog, *, compiled: bool = True) -> None:
        self.catalog = catalog
        self.compiled = compiled
        self._functions = catalog.functions
        # key -> (bound, CompiledQuery | None, reason | None); the bound
        # reference keeps id(bound) stable for the lifetime of the entry,
        # None marks a query that failed to compile (permanent interpreted
        # fallback) and ``reason`` says why ("<ExcType>: <msg>").
        self._plan_cache: dict[tuple, tuple[object, object, str | None]] = {}

    # ------------------------------------------------------------------
    # Compiled mode
    # ------------------------------------------------------------------
    @staticmethod
    def _plan_key(bound) -> tuple:
        """Cache key: query identity + a fingerprint of its source schemas."""
        from repro.sql.binder import BoundUnion

        if isinstance(bound, BoundUnion):
            return (id(bound), tuple(QueryExecutor._plan_key(q)[1] for q in bound.queries))
        fingerprint = tuple(
            (src.name.lower(),)
            + tuple((c.name.lower(), c.type.value) for c in src.schema.columns)
            for src in bound.sources
        )
        return (id(bound), fingerprint)

    def _compiled_plan(self, bound):
        """The cached compiled plan for ``bound`` (None: interpreted fallback)."""
        key = self._plan_key(bound)
        entry = self._plan_cache.get(key)
        if entry is not None:
            return entry[1]
        reason = None
        try:
            from repro.perf.compile import compile_query

            plan = compile_query(bound, self._functions)
        except Exception as exc:
            # Anything the compiler cannot express runs interpreted; a
            # genuinely invalid query will raise its real error there.
            from repro.obs.metrics import global_registry

            plan = None
            reason = f"{type(exc).__name__}: {exc}"
            global_registry().counter(
                "plan_compile_fallback_total",
                "Queries run interpreted because plan compilation failed",
                ("reason",),
            ).inc(reason=type(exc).__name__)
        if len(self._plan_cache) >= self.PLAN_CACHE_SIZE:
            self._plan_cache.clear()
        self._plan_cache[key] = (bound, plan, reason)
        return plan

    def _fallback_reason(self, bound) -> str | None:
        """Why ``bound`` runs interpreted on a compiled executor, if it does."""
        entry = self._plan_cache.get(self._plan_key(bound))
        return entry[2] if entry is not None else None

    # ------------------------------------------------------------------
    def execute(self, bound, inputs: dict[str, Multiset]) -> QueryResult:
        """Run ``bound`` (BoundQuery or BoundUnion) over ``inputs``.

        ``inputs`` maps *stream names* (not aliases) to the window's rows.
        Streams missing from ``inputs`` are treated as empty.
        """
        if self.compiled:
            plan = self._compiled_plan(bound)
            if plan is not None:
                return plan.execute(inputs)
        return self.execute_interpreted(bound, inputs)

    def execute_interpreted(
        self, bound, inputs: dict[str, Multiset]
    ) -> QueryResult:
        """The reference per-window interpreted path (always available)."""
        from repro.sql.binder import BoundQuery, BoundUnion

        if isinstance(bound, BoundUnion):
            results = [self.execute_interpreted(q, inputs) for q in bound.queries]
            rows = Multiset()
            for r in results:
                rows = rows + r.rows
            return QueryResult(rows=rows, schema=results[0].schema)
        if not isinstance(bound, BoundQuery):
            raise ExecutionError(f"cannot execute {type(bound).__name__}")
        plan = self._plan(bound, inputs)
        if not bound.order_by and bound.limit is None:
            return QueryResult(rows=plan.to_multiset(), schema=plan.schema)
        rows = list(plan)
        if bound.order_by:
            rows = _order_rows(rows, plan.schema, bound.order_by, self._functions)
        if bound.limit is not None:
            rows = rows[: bound.limit]
        return QueryResult(
            rows=Multiset(rows), schema=plan.schema, ordered_rows=rows
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plan(self, bound, inputs: dict[str, Multiset]) -> PhysicalOperator:
        per_source = {
            src.name: self._plan_source(src, inputs) for src in bound.sources
        }
        # Local selections first (predicate pushdown).
        for name, preds in bound.local_predicates.items():
            pred = conjoin(preds)
            if pred is not None:
                per_source[name] = Filter(
                    per_source[name], pred, self._functions
                )

        joined, joined_names = self._join_sources(bound, per_source)

        residual = conjoin(bound.residual_predicates)
        if residual is not None:
            joined = Filter(joined, residual, self._functions)

        if bound.is_aggregate:
            op: PhysicalOperator = HashAggregate(
                joined, bound.group_by, bound.aggregates, self._functions
            )
            if bound.having is not None:
                # HAVING sees the aggregate's output row (group keys +
                # aggregate values addressed by their output names).
                op = Filter(op, bound.having, self._functions)
        elif bound.select_star:
            op = joined
        else:
            op = Project(joined, bound.outputs, self._functions)

        if bound.distinct:
            op = _Distinct(op)
        return op

    def _plan_source(self, src, inputs: dict[str, Multiset]) -> PhysicalOperator:
        """Scan a base stream (qualifying its columns) or execute a subquery."""
        if src.subquery is not None:
            result = self.execute_interpreted(src.subquery, inputs)
            # A derived table's output columns are bare names in SQL: strip
            # the inner qualifiers (when unambiguous) before re-qualifying
            # with this source's alias.
            schema = _qualify(_dequalify(result.schema), src.name)
            return Scan(result.rows, schema)
        rows = inputs.get(src.stream_name.lower(), None)
        if rows is None:
            rows = inputs.get(src.stream_name, Multiset())
        return Scan(rows, _qualify(src.schema, src.name))

    def _join_sources(self, bound, per_source: dict[str, PhysicalOperator]):
        """Left-deep join tree following the shared greedy schedule."""
        order = [src.name for src in bound.sources]
        current = per_source[order[0]]
        joined_names = {order[0]}
        for step in join_schedule(bound):
            if step.is_cross:
                current = NestedLoopJoin(
                    current, per_source[step.source], None, self._functions
                )
            else:
                current = HashJoin(
                    current,
                    per_source[step.source],
                    list(step.keys_left),
                    list(step.keys_right),
                )
            joined_names.add(step.source)
        return current, joined_names


class _Distinct(PhysicalOperator):
    """Duplicate elimination (SELECT DISTINCT)."""

    def __init__(self, child: PhysicalOperator) -> None:
        self.child = child
        self.schema = child.schema

    def __iter__(self):
        seen: set[tuple] = set()
        for row in self.child:
            if row not in seen:
                seen.add(row)
                yield row


def _order_rows(rows, schema: Schema, order_by, functions) -> list[tuple]:
    """Stable multi-key sort with SQL NULL placement (NULLs sort last)."""
    evals = [(expr.bind(schema, functions), asc) for expr, asc in order_by]
    out = list(rows)
    # Apply keys from the least significant to the most (stable sort).
    for ev, ascending in reversed(evals):
        out.sort(
            key=lambda row: ((ev(row) is None), ev(row) if ev(row) is not None else 0),
            reverse=not ascending,
        )
        if not ascending:
            # reverse=True puts NULLs first; move them to the end.
            nulls = [r for r in out if ev(r) is None]
            out = [r for r in out if ev(r) is not None] + nulls
    return out


def _dequalify(schema: Schema) -> Schema:
    """Strip ``x.`` qualifiers when the bare names stay unique."""
    bare = [c.name.rsplit(".", 1)[-1] for c in schema.columns]
    if len({b.lower() for b in bare}) != len(bare):
        return schema  # collisions: keep qualified names
    return Schema([Column(b, c.type) for b, c in zip(bare, schema.columns)])


def _qualify(schema: Schema, name: str) -> Schema:
    """Prefix every unqualified column with ``name.`` for join disambiguation."""
    cols = []
    for c in schema.columns:
        cols.append(c if "." in c.name else Column(f"{name}.{c.name}", c.type))
    return Schema(cols)


@dataclass
class WindowResult:
    """Result of one window of a continuous query."""

    window_id: int
    start: float
    end: float
    rows: Multiset
    schema: Schema


class ContinuousQuery:
    """Drives a bound query window-by-window over timestamped streams.

    This is the per-window execution loop the Data Triage pipeline sits in
    front of: the pipeline decides *which* tuples reach each window (triage),
    and this class computes the per-window relational answer.
    """

    def __init__(
        self,
        executor: QueryExecutor,
        bound,
        window: WindowSpec,
    ) -> None:
        self.executor = executor
        self.bound = bound
        self.window = window

    def run(
        self, streams: dict[str, Iterable[StreamTuple]]
    ) -> list[WindowResult]:
        """Execute over full stream histories, producing one result per window."""
        per_stream_windows: dict[str, dict[int, list[StreamTuple]]] = {
            name.lower(): assign_windows(tuples, self.window)
            for name, tuples in streams.items()
        }
        window_ids = sorted(
            {w for wins in per_stream_windows.values() for w in wins}
        )
        out: list[WindowResult] = []
        for wid in window_ids:
            inputs = {
                name: Multiset(t.row for t in wins.get(wid, []))
                for name, wins in per_stream_windows.items()
            }
            result = self.executor.execute(self.bound, inputs)
            start, end = self.window.bounds(wid)
            out.append(
                WindowResult(
                    window_id=wid,
                    start=start,
                    end=end,
                    rows=result.rows,
                    schema=result.schema,
                )
            )
        return out
