"""Semantic analysis: resolve a parsed query against the catalog.

Binding turns a :class:`~repro.sql.ast.SelectStmt` into a
:class:`BoundQuery`: every FROM source gets a schema (stream lookup, view
expansion, or recursive subquery binding), WHERE conjuncts are classified as
per-source selections / equijoin predicates / residual predicates, and the
SELECT list is split into grouping outputs and aggregates.  The executor and
the Data Triage rewriter both consume this form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.catalog import Catalog
from repro.engine.executor import _dequalify
from repro.engine.expressions import (
    AggregateSpec,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    conjuncts,
    is_equijoin_conjunct,
)
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.window import WindowSpec, parse_window_clause
from repro.sql.ast import (
    PatternStmt,
    Query,
    SelectStmt,
    Star,
    SubquerySource,
    TableRef,
    UnionAllStmt,
)


class BindError(ValueError):
    """Raised for unresolvable names, ambiguous columns, unsupported shapes."""


@dataclass
class BoundSource:
    """A FROM entry after binding.

    Exactly one of ``stream_name`` / ``subquery`` is set.  ``schema`` is the
    source's *base* (unqualified) schema; the executor qualifies column names
    with ``name`` when it builds scans.
    """

    name: str  # binding name (alias if given)
    schema: Schema
    stream_name: str | None = None
    subquery: "BoundQuery | BoundUnion | None" = None


@dataclass(frozen=True)
class JoinPredicate:
    """An equality predicate between columns of two different sources."""

    left_source: str
    left_column: str
    right_source: str
    right_column: str

    def reversed(self) -> "JoinPredicate":
        return JoinPredicate(
            self.right_source, self.right_column, self.left_source, self.left_column
        )

    def __str__(self) -> str:
        return (
            f"{self.left_source}.{self.left_column} = "
            f"{self.right_source}.{self.right_column}"
        )


@dataclass
class BoundQuery:
    """A fully-resolved single SELECT block."""

    sources: list[BoundSource]
    local_predicates: dict[str, list[Expression]]
    join_predicates: list[JoinPredicate]
    residual_predicates: list[Expression]
    select_star: bool
    outputs: list[tuple[str, Expression]]  # non-aggregate SELECT items
    group_by: list[tuple[str, Expression]]
    aggregates: list[AggregateSpec]
    distinct: bool = False
    windows: dict[str, WindowSpec] = field(default_factory=dict)
    having: Expression | None = None  # evaluated over the aggregate output
    order_by: list[tuple[Expression, bool]] = field(default_factory=list)
    limit: int | None = None

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates)

    def source(self, name: str) -> BoundSource:
        for s in self.sources:
            if s.name.lower() == name.lower():
                return s
        raise BindError(f"no source {name!r} in query")


@dataclass
class BoundUnion:
    """A bound UNION ALL chain."""

    queries: list["BoundQuery | BoundUnion"]


@dataclass(frozen=True)
class BoundPatternStep:
    """One resolved SEQ step.

    ``predicates`` are the WHERE conjuncts evaluated when *this* step
    consumes an event (every conjunct is attached to the latest step it
    references, so it can be checked as early as possible).  All ColumnRefs
    inside them are rewritten to qualified ``variable.column`` form, which
    is exactly how the pattern environment schema names its slots.
    ``env_offset`` is where this step's columns start in the environment row.

    ``local_predicates`` is the run-independent subset of ``predicates``:
    conjuncts whose every column reference is *this* step's variable.  They
    depend only on the candidate event, never on partial-match state, so the
    engine's batch path can vectorize them over a whole batch and discard
    can't-ever-bind events before touching any run.
    """

    variable: str
    stream_name: str
    schema: Schema
    kleene: bool
    predicates: tuple[Expression, ...]
    env_offset: int
    local_predicates: tuple[Expression, ...] = ()


@dataclass
class BoundPattern:
    """A fully-resolved PATTERN statement, ready for the CEP engine.

    ``env_schema`` is the concatenation of every step's columns under
    qualified names (``a.k``, ``b.k``, ...); a partial match is a row of
    that schema with not-yet-bound slots NULL.  ``output_schema`` describes
    emitted match tuples: ``match_start``, ``match_end``, then per step the
    bound columns (Kleene steps contribute a ``<var>_count`` plus the last
    absorbed event's columns).
    """

    steps: list[BoundPatternStep]
    within: float
    env_schema: Schema
    output_schema: Schema

    @property
    def streams(self) -> tuple[str, ...]:
        """Distinct stream names in first-reference order."""
        out: list[str] = []
        for s in self.steps:
            if s.stream_name not in out:
                out.append(s.stream_name)
        return tuple(out)


AGGREGATE_FUNCTIONS = frozenset(AggregateSpec.SUPPORTED)


class Binder:
    """Binds queries against a :class:`~repro.engine.catalog.Catalog`."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------
    def bind(self, query: Query) -> BoundQuery | BoundUnion:
        if isinstance(query, UnionAllStmt):
            return BoundUnion([self.bind(q) for q in query.queries])
        if isinstance(query, SelectStmt):
            return self._bind_select(query)
        if isinstance(query, PatternStmt):
            return self.bind_pattern(query)
        raise BindError(f"cannot bind {type(query).__name__}")

    # ------------------------------------------------------------------
    def bind_pattern(self, stmt: PatternStmt) -> BoundPattern:
        """Resolve a PATTERN statement against the catalog."""
        if not stmt.steps:
            raise BindError("PATTERN SEQ needs at least one step")
        if stmt.within <= 0:
            raise BindError(f"WITHIN bound must be positive, got {stmt.within}")
        seen_vars: set[str] = set()
        schemas: list[Schema] = []
        for step in stmt.steps:
            key = step.variable.lower()
            if key in seen_vars:
                raise BindError(f"duplicate pattern variable {step.variable!r}")
            seen_vars.add(key)
            if not self.catalog.has_stream(step.stream):
                raise BindError(f"unknown stream {step.stream!r} in PATTERN")
            schemas.append(self.catalog.stream(step.stream).schema)

        # Environment schema: every step's columns, qualified by variable.
        env_cols: list[Column] = []
        offsets: list[int] = []
        for step, schema in zip(stmt.steps, schemas):
            offsets.append(len(env_cols))
            env_cols.extend(
                Column(f"{step.variable}.{c.name}", c.type) for c in schema
            )
        env_schema = Schema(env_cols)

        # Attach each WHERE conjunct to the latest step it references, with
        # every column reference rewritten to qualified variable.column form.
        var_index = {s.variable.lower(): i for i, s in enumerate(stmt.steps)}
        step_preds: list[list[Expression]] = [[] for _ in stmt.steps]
        step_local: list[list[Expression]] = [[] for _ in stmt.steps]
        for conj in conjuncts(stmt.where):
            qualified = self._qualify_pattern_expr(conj, stmt.steps, schemas)
            refs = _column_refs(qualified)
            latest = 0
            for ref in refs:
                latest = max(latest, var_index[ref.table.lower()])
            step_preds[latest].append(qualified)
            if all(var_index[r.table.lower()] == latest for r in refs):
                step_local[latest].append(qualified)

        bound_steps = [
            BoundPatternStep(
                variable=step.variable,
                stream_name=self.catalog.stream(step.stream).name,
                schema=schema,
                kleene=step.kleene,
                predicates=tuple(step_preds[i]),
                env_offset=offsets[i],
                local_predicates=tuple(step_local[i]),
            )
            for i, (step, schema) in enumerate(zip(stmt.steps, schemas))
        ]

        out_cols = [
            Column("match_start", ColumnType.TIMESTAMP),
            Column("match_end", ColumnType.TIMESTAMP),
        ]
        for step, schema in zip(stmt.steps, schemas):
            if step.kleene:
                out_cols.append(
                    Column(f"{step.variable}_count", ColumnType.INTEGER)
                )
            out_cols.extend(
                Column(f"{step.variable}_{c.name}", c.type) for c in schema
            )
        return BoundPattern(
            steps=bound_steps,
            within=stmt.within,
            env_schema=env_schema,
            output_schema=Schema(out_cols),
        )

    def _qualify_pattern_expr(self, expr, steps, schemas) -> Expression:
        """Rewrite ColumnRefs to ``variable.column`` form, checking names."""
        from repro.engine.expressions import BinaryOp, UnaryOp

        if isinstance(expr, ColumnRef):
            var_index = {s.variable.lower(): i for i, s in enumerate(steps)}
            if expr.table is not None:
                idx = var_index.get(expr.table.lower())
                if idx is None:
                    raise BindError(
                        f"unknown pattern variable {expr.table!r} in predicate"
                    )
                if expr.name not in schemas[idx]:
                    raise BindError(
                        f"no column {expr.name!r} in step variable "
                        f"{steps[idx].variable!r} ({schemas[idx]!r})"
                    )
                return ColumnRef(expr.name, table=steps[idx].variable)
            hits = [i for i, sch in enumerate(schemas) if expr.name in sch]
            if not hits:
                raise BindError(f"cannot resolve column {expr.name!r} in PATTERN")
            if len(hits) > 1:
                raise BindError(
                    f"ambiguous column {expr.name!r}: qualify it with one of "
                    f"{[steps[i].variable for i in hits]}"
                )
            return ColumnRef(expr.name, table=steps[hits[0]].variable)
        if isinstance(expr, BinaryOp):
            return BinaryOp(
                expr.op,
                self._qualify_pattern_expr(expr.left, steps, schemas),
                self._qualify_pattern_expr(expr.right, steps, schemas),
            )
        if isinstance(expr, UnaryOp):
            return UnaryOp(
                expr.op, self._qualify_pattern_expr(expr.operand, steps, schemas)
            )
        if isinstance(expr, FunctionCall):
            return FunctionCall(
                expr.name,
                tuple(
                    self._qualify_pattern_expr(a, steps, schemas)
                    for a in expr.args
                ),
            )
        return expr

    # ------------------------------------------------------------------
    def _bind_source(self, src) -> BoundSource:
        if isinstance(src, SubquerySource):
            bound = self.bind(src.query)
            return BoundSource(
                name=src.alias or "subquery",
                schema=_derived_schema(bound),
                subquery=bound,
            )
        assert isinstance(src, TableRef)
        if self.catalog.has_stream(src.name):
            schema = self.catalog.stream(src.name).schema
            return BoundSource(
                name=src.binding_name, schema=schema, stream_name=src.name
            )
        if self.catalog.has_view(src.name):
            bound = self.bind(self.catalog.view(src.name))
            return BoundSource(
                name=src.binding_name, schema=_derived_schema(bound), subquery=bound
            )
        raise BindError(f"unknown stream or view {src.name!r}")

    def _bind_select(self, stmt: SelectStmt) -> BoundQuery:
        sources = [self._bind_source(s) for s in stmt.from_sources]
        names = [s.name.lower() for s in sources]
        if len(set(names)) != len(names):
            raise BindError(f"duplicate source names in FROM: {names}")
        by_name = {s.name.lower(): s for s in sources}

        # --- classify WHERE conjuncts -------------------------------------
        local: dict[str, list[Expression]] = {s.name: [] for s in sources}
        joins: list[JoinPredicate] = []
        residual: list[Expression] = []
        for conj in conjuncts(stmt.where):
            refs = self._sources_of(conj, by_name)
            if len(refs) <= 1:
                target = next(iter(refs)) if refs else sources[0].name
                local[target].append(conj)
                continue
            pair = is_equijoin_conjunct(conj)
            if pair and len(refs) == 2:
                left, right = pair
                lsrc = self._source_of_column(left, by_name)
                rsrc = self._source_of_column(right, by_name)
                if lsrc != rsrc:
                    joins.append(
                        JoinPredicate(lsrc.name, left.name, rsrc.name, right.name)
                    )
                    continue
            residual.append(conj)

        # --- SELECT list ----------------------------------------------------
        select_star = False
        outputs: list[tuple[str, Expression]] = []
        aggregates: list[AggregateSpec] = []
        for idx, item in enumerate(stmt.items):
            if isinstance(item.expr, Star):
                select_star = True
                continue
            agg = _as_aggregate(item.expr)
            if agg is not None:
                func, arg = agg
                aggregates.append(
                    AggregateSpec(func, arg, item.output_name(func))
                )
            else:
                outputs.append((item.output_name(f"col{idx}"), item.expr))

        group_by: list[tuple[str, Expression]] = []
        for idx, expr in enumerate(stmt.group_by):
            name = expr.name if isinstance(expr, ColumnRef) else f"group{idx}"
            group_by.append((name, expr))
        if aggregates and not group_by:
            # Scalar aggregate (no GROUP BY): single global group.
            pass
        # Select-list, aggregate-argument and GROUP BY columns name source
        # columns by the rule WHERE uses, so a bad name fails here, not at
        # the first window.  HAVING and ORDER BY address output names.
        for expr in (
            [e for _, e in outputs]
            + [spec.argument for spec in aggregates if spec.argument is not None]
            + [e for _, e in group_by]
        ):
            self._sources_of(expr, by_name)
        if aggregates and select_star:
            raise BindError("cannot mix SELECT * with aggregates")
        if not aggregates and stmt.group_by:
            raise BindError("GROUP BY without aggregates is not supported")

        windows: dict[str, WindowSpec] = {}
        for w in stmt.windows:
            if w.table.lower() not in by_name:
                raise BindError(f"WINDOW clause names unknown source {w.table!r}")
            windows[by_name[w.table.lower()].name] = parse_window_clause(w.interval)

        if stmt.having is not None and not aggregates:
            raise BindError("HAVING requires a grouped aggregate query")
        if stmt.limit is not None and stmt.limit < 0:
            raise BindError(f"LIMIT must be non-negative, got {stmt.limit}")

        return BoundQuery(
            sources=sources,
            local_predicates=local,
            join_predicates=joins,
            residual_predicates=residual,
            select_star=select_star,
            outputs=outputs,
            group_by=group_by,
            aggregates=aggregates,
            distinct=stmt.distinct,
            windows=windows,
            having=stmt.having,
            order_by=[(o.expr, o.ascending) for o in stmt.order_by],
            limit=stmt.limit,
        )

    # ------------------------------------------------------------------
    def _sources_of(
        self, expr: Expression, by_name: dict[str, BoundSource]
    ) -> set[str]:
        """Binding names of every source the expression touches."""
        out: set[str] = set()
        for col in _column_refs(expr):
            out.add(self._source_of_column(col, by_name).name)
        return out

    def _source_of_column(
        self, ref: ColumnRef, by_name: dict[str, BoundSource]
    ) -> BoundSource:
        if ref.table is not None:
            src = by_name.get(ref.table.lower())
            if src is None:
                raise BindError(f"unknown table qualifier {ref.table!r}")
            if ref.name not in src.schema:
                raise BindError(f"no column {ref.name!r} in source {src.name!r}")
            return src
        matches = [s for s in by_name.values() if ref.name in s.schema]
        if not matches:
            raise BindError(f"cannot resolve column {ref.name!r}")
        if len(matches) > 1:
            raise BindError(
                f"ambiguous column {ref.name!r}: in "
                f"{[s.name for s in matches]}"
            )
        return matches[0]


def _column_refs(expr: Expression) -> list[ColumnRef]:
    """Collect every ColumnRef node in an expression tree."""
    from repro.engine.expressions import BinaryOp, UnaryOp

    if isinstance(expr, ColumnRef):
        return [expr]
    if isinstance(expr, BinaryOp):
        return _column_refs(expr.left) + _column_refs(expr.right)
    if isinstance(expr, UnaryOp):
        return _column_refs(expr.operand)
    if isinstance(expr, FunctionCall):
        out: list[ColumnRef] = []
        for a in expr.args:
            out.extend(_column_refs(a))
        return out
    return []


def _as_aggregate(expr: Expression) -> tuple[str, Expression | None] | None:
    """If ``expr`` is an aggregate call, return (function, argument).

    ``COUNT(*)`` is parsed as ``FunctionCall("count", (Literal("*"),))``; the
    star literal maps to ``argument=None``.
    """
    if not isinstance(expr, FunctionCall):
        return None
    name = expr.name.lower()
    if name not in AGGREGATE_FUNCTIONS:
        return None
    if len(expr.args) != 1:
        raise BindError(f"aggregate {name} takes exactly one argument")
    arg = expr.args[0]
    if isinstance(arg, Literal) and arg.value == "*":
        if name != "count":
            raise BindError(f"{name}(*) is not valid SQL")
        return (name, None)
    return (name, arg)


def _derived_schema(bound: "BoundQuery | BoundUnion") -> Schema:
    """A derived table's columns: bare names unless two collide.

    The executor strips inner qualifiers the same way (``_dequalify``), so
    a name that resolves here resolves in the plan.
    """
    return _dequalify(_output_schema(bound))


def _output_schema(bound: "BoundQuery | BoundUnion") -> Schema:
    """Static output schema of a bound query (needed to bind enclosing queries)."""
    from repro.engine.types import Column, ColumnType

    if isinstance(bound, BoundUnion):
        return _output_schema(bound.queries[0])
    if bound.is_aggregate:
        cols = [Column(n, ColumnType.FLOAT) for n, _ in bound.group_by]
        for spec in bound.aggregates:
            t = ColumnType.INTEGER if spec.function == "count" else ColumnType.FLOAT
            cols.append(Column(spec.output_name, t))
        return Schema(cols)
    if bound.select_star:
        cols = []
        for src in bound.sources:
            prefix = f"{src.name}." if len(bound.sources) > 1 else ""
            cols.extend(
                Column(prefix + c.name, c.type) for c in src.schema.columns
            )
        return Schema(cols)
    cols = []
    for name, expr in bound.outputs:
        t = ColumnType.FLOAT
        if isinstance(expr, ColumnRef):
            for src in bound.sources:
                if (expr.table is None or expr.table.lower() == src.name.lower()) and (
                    expr.name in src.schema
                ):
                    t = src.schema.column(expr.name).type
                    break
        cols.append(Column(name, t))
    return Schema(cols)
