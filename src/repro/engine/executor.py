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

from collections.abc import Iterable
from dataclasses import dataclass

from repro.algebra.multiset import Multiset
from repro.engine.catalog import Catalog
from repro.engine.types import Column, Schema, StreamTuple
from repro.engine.window import WindowSpec, assign_windows


@dataclass(frozen=True)
class JoinStep:
    """One step of the greedy left-deep join schedule.

    ``keys_left``/``keys_right`` are qualified column names; empty key lists
    mean a cross product (disconnected query graph).  The schedule depends
    only on the bound query — not on window contents — so the compiled
    planner (:mod:`repro.perf.compile`) builds its join tree from it once
    per query, and the reference tree in ``tests/oracle/`` builds the same.
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

    On first execution of a bound query the plan is lowered *once* into a
    content-free operator tree whose expressions are generated whole-column
    kernels (:mod:`repro.perf.compile`).  The tree has one execution face,
    ``batch(inputs)``: every later window re-binds the leaf scans to its
    input bags by calling it, with no per-window plan construction and no
    per-row ``Evaluator`` dispatch.  Plans are cached per executor, keyed on
    (query identity, source-schema fingerprint).

    A query the compiler refuses raises its error, an
    :class:`~repro.engine.expressions.ExpressionError` such as ``unknown
    function 'twice'``.  Nothing is cached for it, so the next call
    compiles afresh (a function registered in between is then found).
    """

    #: Compiled-plan cache entries kept per executor before eviction.
    PLAN_CACHE_SIZE = 64

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._functions = catalog.functions
        # key -> (bound, plan); the bound reference keeps id(bound) stable
        # for the lifetime of the entry.
        self._plan_cache: dict[tuple, tuple[object, object]] = {}

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

    def plan(self, bound):
        """The compiled plan for ``bound`` (BoundQuery or BoundUnion), cached."""
        key = self._plan_key(bound)
        entry = self._plan_cache.get(key)
        if entry is not None:
            return entry[1]
        from repro.perf.compile import compile_query

        plan = compile_query(bound, self._functions)
        if len(self._plan_cache) >= self.PLAN_CACHE_SIZE:
            self._plan_cache.clear()
        self._plan_cache[key] = (bound, plan)
        return plan

    def execute(self, bound, inputs: dict[str, Multiset]) -> QueryResult:
        """Run ``bound`` (BoundQuery or BoundUnion) over ``inputs``.

        ``inputs`` maps *stream names* (not aliases) to the window's rows.
        Streams missing from ``inputs`` are treated as empty.
        """
        return self.plan(bound).execute(inputs)


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
