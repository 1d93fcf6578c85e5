"""Code-generated query plans: the engine's one executor.

A plan built per window and evaluated through a tree of nested
``Evaluator`` closures pays two costs the paper's overhead budget
(Section 6, Figure 6) cannot ignore: the physical plan tree is
re-instantiated for every window, and every expression costs one Python
call per operator node per row.

This module removes both.  :func:`compile_query` lowers a bound query into
**a reusable operator tree** whose nodes hold positions and vector kernels
only (:mod:`repro.perf.vector` lowers each predicate / projection /
aggregate-input expression list into one generated whole-column function).
A node has exactly one execution face, ``batch(inputs) -> list[tuple]``:
per window the tree is *re-bound* to the new input bags by calling it, not
rebuilt, and every operator consumes and produces whole row lists —
filters gather by index vector, joins extend one output list, COUNT(*)
over a join counts fan-out without materializing the join.  That pushdown
reads its inputs *counted* (``counted(inputs) -> (distinct rows,
multiplicities)``): scans hand over a bag's pairs, filters keep the
multiplicities and joins multiply them, so it works per distinct row.

Semantics are the textbook operator tree's, verbatim: SQL three-valued
logic with both operands always evaluated (no short-circuit, so error
behaviour matches ``Expression.bind``), one join order (the shared
:func:`repro.engine.executor.join_schedule`), identical schema derivation,
identical NULL handling in joins and aggregates, and a defined row *order*
(probe order, group first-occurrence order — ``LIMIT`` without ``ORDER
BY`` sees it).  The equivalence suite
(``tests/engine/test_compiled_equivalence.py``) holds every plan
result-identical to the interpreted reference tree kept in
``tests/oracle/``, over the paper workloads and a randomized SPJ corpus.

Any construct the lowering cannot express raises
:class:`~repro.perf.vector.CompileError` (an
:class:`~repro.engine.expressions.ExpressionError`, with the message
``Expression.bind`` gives for the same input), and
:class:`~repro.engine.executor.QueryExecutor` passes it to the caller.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from operator import itemgetter
from typing import Any

from repro.algebra.multiset import Multiset
from repro.engine.catalog import Catalog  # noqa: F401 - re-exported context
from repro.engine.executor import (
    QueryResult,
    _dequalify,
    _order_rows,
    _qualify,
    join_schedule,
)
from repro.engine.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    UnaryOp,
    _infer_type,
    conjoin,
    resolve_column,
)
from repro.engine.types import Column, ColumnType, Schema
from repro.perf.vector import (
    CompileError,
    compile_filter_vector,
    compile_tuple_vector,
)


# ---------------------------------------------------------------------------
# Compiled operator tree
# ---------------------------------------------------------------------------
def _pure_key_positions(exprs, schema) -> frozenset | None:
    """Column positions read by ``exprs``, or None when ineligible.

    Eligible expressions are pure (no user function calls) and built from
    column refs, literals, and unary/binary operators — the analysis behind
    the COUNT(*)-over-join pushdown, which evaluates key expressions and
    the filters below the join once per *distinct left* row instead of
    once per joined row.
    """
    acc: set[int] = set()

    def walk(e) -> bool:
        if isinstance(e, ColumnRef):
            acc.add(resolve_column(e, schema))
            return True
        if isinstance(e, Literal):
            return True
        if isinstance(e, BinaryOp):
            return walk(e.left) and walk(e.right)
        if isinstance(e, UnaryOp):
            return walk(e.operand)
        return False

    for e in exprs:
        if not walk(e):
            return None
    return frozenset(acc)


class CompiledNode:
    """A plan node bound to schemas and vector kernels, re-bindable to inputs.

    A compiled node is content-free: ``batch(inputs)`` binds it to one
    window's input bags and returns all of its output rows as one list, so
    the tree is built once per query and reused for every window.  Row
    order is part of the contract — it is the iteration order of the
    matching pull operator in the reference tree (``tests/oracle/``).
    """

    __slots__ = ("schema",)

    schema: Schema

    def batch(self, inputs: dict[str, Multiset]) -> list[tuple]:
        raise NotImplementedError

    def counted(self, inputs) -> tuple[list[tuple], list[int]]:
        """``(rows, multiplicities)``: :meth:`batch`'s output as a bag.

        Expanding each row by its multiplicity, in order, gives
        :meth:`batch`'s rows with the same first occurrences.  A node that
        cannot count hands over its batch, one copy per row.
        """
        rows = self.batch(inputs)
        return rows, [1] * len(rows)


class _CScan(CompiledNode):
    __slots__ = ("key_lower", "key")

    def __init__(self, stream_name: str, schema: Schema) -> None:
        self.key_lower = stream_name.lower()
        self.key = stream_name
        self.schema = schema

    def batch(self, inputs):
        rows = inputs.get(self.key_lower)
        if rows is None:
            rows = inputs.get(self.key)
        if rows is None:
            return []
        if isinstance(rows, Multiset):
            return rows.rows_list()
        return list(rows)

    def counted(self, inputs):
        rows = inputs.get(self.key_lower)
        if rows is None:
            rows = inputs.get(self.key)
        if isinstance(rows, Multiset):
            return rows.distinct_counts()
        return CompiledNode.counted(self, inputs)


class _CSubquery(CompiledNode):
    __slots__ = ("inner",)

    def __init__(self, inner: "CompiledQuery | CompiledUnion", schema: Schema) -> None:
        self.inner = inner
        self.schema = schema

    def batch(self, inputs):
        return self.inner.execute(inputs).rows.rows_list()


class _CFilter(CompiledNode):
    """``pure``: the predicate calls no function, so testing each distinct
    row once (:meth:`counted`) is the same as testing every copy."""

    __slots__ = ("child", "vpred", "pure")

    def __init__(
        self, child: CompiledNode, vpred: Callable, pure: bool = False
    ) -> None:
        self.child = child
        self.vpred = vpred
        self.pure = pure
        self.schema = child.schema

    def batch(self, inputs):
        rows = self.child.batch(inputs)
        if not rows:
            return rows
        return [rows[i] for i in self.vpred(rows)]

    def counted(self, inputs):
        if not self.pure:
            return CompiledNode.counted(self, inputs)
        rows, mult = self.child.counted(inputs)
        if not rows:
            return rows, mult
        keep = self.vpred(rows)
        return [rows[i] for i in keep], [mult[i] for i in keep]


class _CProject(CompiledNode):
    __slots__ = ("child", "vrow_fn")

    def __init__(self, child: CompiledNode, vrow_fn: Callable, schema: Schema) -> None:
        self.child = child
        self.vrow_fn = vrow_fn
        self.schema = schema

    def batch(self, inputs):
        rows = self.child.batch(inputs)
        if not rows:
            return rows
        return self.vrow_fn(rows)


class _CHashJoin(CompiledNode):
    """Hash equijoin with empty-build short-circuit and NULL-probe skip.

    Single-key joins (the paper query's shape) use scalar keys to avoid a
    tuple allocation per row on both the build and probe sides.
    """

    __slots__ = ("left", "right", "lpos", "rpos", "lkey", "rkey")

    def __init__(
        self,
        left: CompiledNode,
        right: CompiledNode,
        lpos: list[int],
        rpos: list[int],
    ) -> None:
        self.left = left
        self.right = right
        self.lpos = tuple(lpos)
        self.rpos = tuple(rpos)
        # Row -> join key (a scalar for one key column, else a tuple).
        self.lkey = itemgetter(*self.lpos)
        self.rkey = itemgetter(*self.rpos)
        self.schema = left.schema.concat(right.schema)

    def batch(self, inputs):
        # Probe order (left rows, then each key's build-side arrival order)
        # is the reference HashJoin's; output rows land in one list via
        # extend-with-listcomp instead of per-row generator resumption —
        # the dominant cost of wide joins.
        out: list[tuple] = []
        right_rows = self.right.batch(inputs)
        if len(self.rpos) == 1:
            rp = self.rpos[0]
            table: dict[Any, list[tuple]] = {}
            setdefault = table.setdefault
            for row in right_rows:
                key = row[rp]
                if key is not None:
                    setdefault(key, []).append(row)
            if not table:
                return out
            lp = self.lpos[0]
            get = table.get
            append = out.append
            extend = out.extend
            for lrow in self.left.batch(inputs):
                key = lrow[lp]
                if key is None:
                    continue
                matches = get(key)
                if matches is not None:
                    if len(matches) == 1:
                        append(lrow + matches[0])
                    else:
                        extend([lrow + rrow for rrow in matches])
            return out
        rpos = self.rpos
        mtable: dict[tuple, list[tuple]] = {}
        msetdefault = mtable.setdefault
        for row in right_rows:
            key = tuple(row[p] for p in rpos)
            if None not in key:
                msetdefault(key, []).append(row)
        if not mtable:
            return out
        lpos = self.lpos
        mget = mtable.get
        append = out.append
        extend = out.extend
        for lrow in self.left.batch(inputs):
            key = tuple(lrow[p] for p in lpos)
            if None in key:
                continue
            matches = mget(key)
            if matches is not None:
                if len(matches) == 1:
                    append(lrow + matches[0])
                else:
                    extend([lrow + rrow for rrow in matches])
        return out

    def _drop_null_keys(self, table: dict) -> None:
        """Forget build keys holding a NULL: they match nothing, and with
        them gone no probe key holding one finds a match either."""
        if len(self.rpos) == 1:
            table.pop(None, None)
        else:
            for key in [key for key in table if None in key]:
                del table[key]

    def counted(self, inputs):
        # The expanded output is, per probe row copy, its build matches in
        # arrival order: distinct probe rows × distinct build rows, in that
        # order, are its first occurrences, each repeated lm × rm times.
        rrows, rmult = self.right.counted(inputs)
        table: dict[Any, list] = {}
        setdefault = table.setdefault
        for row, m, key in zip(rrows, rmult, map(self.rkey, rrows)):
            setdefault(key, []).append((row, m))
        self._drop_null_keys(table)
        out: list[tuple] = []
        out_mult: list[int] = []
        if not table:
            return out, out_mult
        lrows, lmult = self.left.counted(inputs)
        get = table.get
        append = out.append
        mappend = out_mult.append
        for lrow, lm, key in zip(lrows, lmult, map(self.lkey, lrows)):
            matches = get(key)
            if matches is not None:
                for rrow, rm in matches:
                    append(lrow + rrow)
                    mappend(lm * rm)
        return out, out_mult

    def left_match_counts(self, inputs) -> tuple[list[tuple], list[int]]:
        """Factored probe: matching left rows and their join fan-out.

        Returns ``(lrows, mult)``: the distinct probe-order left rows with
        at least one match (read :meth:`counted`) and how many joined rows
        each would produce — its multiplicity times the matching build
        rows'.  The COUNT(*) aggregate pushdown consumes this instead of
        :meth:`batch`, so wide joins never materialize their output, and
        neither side is expanded to one row per copy.
        """
        rrows, rmult = self.right.counted(inputs)
        fanout: dict[Any, int] = {}
        fget = fanout.get
        for key, m in zip(map(self.rkey, rrows), rmult):
            fanout[key] = fget(key, 0) + m
        self._drop_null_keys(fanout)
        lrows_out: list[tuple] = []
        mult: list[int] = []
        if not fanout:
            return lrows_out, mult
        lrows, lmult = self.left.counted(inputs)
        la = lrows_out.append
        ma = mult.append
        for lrow, lm, key in zip(lrows, lmult, map(self.lkey, lrows)):
            m = fget(key)
            if m is not None:
                la(lrow)
                ma(lm * m)
        return lrows_out, mult


class _CNestedLoop(CompiledNode):
    """Cross product; residual predicates are a :class:`_CFilter` above it."""

    __slots__ = ("left", "right")

    def __init__(self, left: CompiledNode, right: CompiledNode) -> None:
        self.left = left
        self.right = right
        self.schema = left.schema.concat(right.schema)

    def batch(self, inputs):
        right_rows = self.right.batch(inputs)
        # The left side is evaluated even against an empty right side, so
        # a raising left subtree raises as it does in the reference tree.
        left_rows = self.left.batch(inputs)
        out: list[tuple] = []
        if right_rows:
            extend = out.extend
            for lrow in left_rows:
                extend([lrow + rrow for rrow in right_rows])
        return out


class _CAggregate(CompiledNode):
    """GROUP BY + aggregates via one vector key/argument kernel.

    The running-state layout and finalization are the reference
    ``HashAggregate``'s (``tests/oracle/``) exactly (totals start at
    ``0.0`` so SUM of integers stays float; NULL arguments are skipped by
    everything except ``COUNT(*)``; empty input yields no groups; groups
    come out in first-occurrence order).
    """

    __slots__ = (
        "child", "vrow_fn", "n_keys", "agg_slots", "functions_", "key_positions",
    )

    def __init__(
        self,
        child: CompiledNode,
        group_by: list[tuple[str, Expression]],
        aggregates,
        functions,
    ) -> None:
        self.child = child
        exprs = [e for _, e in group_by]
        slots: list[int | None] = []  # value index per aggregate; None = COUNT(*)
        for spec in aggregates:
            if spec.argument is None:
                slots.append(None)
            else:
                slots.append(len(exprs))
                exprs.append(spec.argument)
        self.vrow_fn = compile_tuple_vector(exprs, child.schema, functions)
        self.n_keys = len(group_by)
        self.key_positions = _pure_key_positions(
            [e for _, e in group_by], child.schema
        )
        self.agg_slots = tuple(slots)
        self.functions_ = [spec.function.lower() for spec in aggregates]
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

    def batch(self, inputs):
        slots = self.agg_slots
        n = len(slots)
        if all(slot is None for slot in slots):
            # Pure COUNT(*) (the paper query's shape): no slot scan, no key
            # slicing — the kernel's output tuple *is* the group key.
            child = self.child
            kp = self.key_positions
            # Duck-typed on left_match_counts so profiling proxies (which
            # wrap _CHashJoin and forward the method with row accounting)
            # keep the pushdown instead of silently falling off it.
            lmc = getattr(child, "left_match_counts", None)
            if (
                kp is not None
                and lmc is not None
                and all(p < len(child.left.schema) for p in kp)
            ):
                # Factored COUNT(*)-over-join: the group keys only read
                # left-side columns, so count each distinct left row's join
                # fan-out instead of materializing the concatenated output.
                # Group first-occurrence order equals probe order, which is
                # the order the reference tree first sees each key.
                lrows, mult = lmc(inputs)
                if not lrows:
                    return []
                counts: dict[tuple, int] = {}
                cget = counts.get
                for key, m in zip(self.vrow_fn(lrows), mult):
                    counts[key] = cget(key, 0) + m
                return [key + (c,) * n for key, c in counts.items()]
            rows = child.batch(inputs)
            if not rows:
                return []
            # Counter's C-level counting loop preserves first-occurrence
            # order, so group order matches the reference tree's.
            return [
                key + (c,) * n for key, c in Counter(self.vrow_fn(rows)).items()
            ]
        rows = self.child.batch(inputs)
        if not rows:
            return []
        nk = self.n_keys
        # state: [count, nonnull[], total[], min[], max[]]
        groups: dict[tuple, list] = {}
        get = groups.get
        for vals in self.vrow_fn(rows):
            key = vals[:nk]
            state = get(key)
            if state is None:
                state = groups[key] = [0, [0] * n, [0.0] * n, [None] * n, [None] * n]
            state[0] += 1
            nonnull, total, minimum, maximum = state[1], state[2], state[3], state[4]
            for i, slot in enumerate(slots):
                if slot is None:
                    continue
                v = vals[slot]
                if v is None:
                    continue
                nonnull[i] += 1
                total[i] += v
                if minimum[i] is None or v < minimum[i]:
                    minimum[i] = v
                if maximum[i] is None or v > maximum[i]:
                    maximum[i] = v
        fns = self.functions_
        results: list[tuple] = []
        for key, state in groups.items():
            out = list(key)
            count, nonnull, total, minimum, maximum = state
            for i, fn in enumerate(fns):
                if fn == "count":
                    out.append(count if slots[i] is None else nonnull[i])
                elif fn == "sum":
                    out.append(total[i] if nonnull[i] else None)
                elif fn == "avg":
                    out.append(total[i] / nonnull[i] if nonnull[i] else None)
                elif fn == "min":
                    out.append(minimum[i])
                else:  # max
                    out.append(maximum[i])
            results.append(tuple(out))
        return results


class _CDistinct(CompiledNode):
    __slots__ = ("child",)

    def __init__(self, child: CompiledNode) -> None:
        self.child = child
        self.schema = child.schema

    def batch(self, inputs):
        # dict.fromkeys keeps first occurrences, in order.
        return list(dict.fromkeys(self.child.batch(inputs)))


# ---------------------------------------------------------------------------
# Query-level wrappers
# ---------------------------------------------------------------------------
class CompiledQuery:
    """A compiled single SELECT block: build once, execute per window."""

    __slots__ = ("root", "bound", "schema", "_functions")

    def __init__(self, root: CompiledNode, bound, functions) -> None:
        self.root = root
        self.bound = bound
        self.schema = root.schema
        self._functions = functions

    def execute(self, inputs: dict[str, Multiset]) -> QueryResult:
        bound = self.bound
        rows = self.root.batch(inputs)
        if not bound.order_by and bound.limit is None:
            return QueryResult(rows=Multiset(rows), schema=self.schema)
        if bound.order_by:
            rows = _order_rows(rows, self.schema, bound.order_by, self._functions)
        if bound.limit is not None:
            rows = rows[: bound.limit]
        return QueryResult(rows=Multiset(rows), schema=self.schema, ordered_rows=rows)


class CompiledUnion:
    """A compiled UNION ALL chain (bag union of member results)."""

    __slots__ = ("queries", "schema")

    def __init__(self, queries: list["CompiledQuery | CompiledUnion"]) -> None:
        self.queries = queries
        self.schema = queries[0].schema

    def execute(self, inputs: dict[str, Multiset]) -> QueryResult:
        results = [q.execute(inputs) for q in self.queries]
        rows = Multiset()
        for r in results:
            rows = rows + r.rows
        return QueryResult(rows=rows, schema=results[0].schema)


# ---------------------------------------------------------------------------
# Planning (one join schedule and schema helpers, shared with EXPLAIN)
# ---------------------------------------------------------------------------
def compile_query(bound, functions) -> "CompiledQuery | CompiledUnion":
    """Lower a bound query (or UNION ALL chain) into a compiled plan."""
    from repro.sql.binder import BoundQuery, BoundUnion

    if isinstance(bound, BoundUnion):
        return CompiledUnion([compile_query(q, functions) for q in bound.queries])
    if not isinstance(bound, BoundQuery):
        raise CompileError(f"cannot compile {type(bound).__name__}")
    return CompiledQuery(_compile_select(bound, functions), bound, functions)


def _compile_source(src, functions) -> CompiledNode:
    if src.subquery is not None:
        inner = compile_query(src.subquery, functions)
        schema = _qualify(_dequalify(inner.schema), src.name)
        return _CSubquery(inner, schema)
    return _CScan(src.stream_name, _qualify(src.schema, src.name))


def _compile_select(bound, functions) -> CompiledNode:
    per_source: dict[str, CompiledNode] = {
        src.name: _compile_source(src, functions) for src in bound.sources
    }
    for name, preds in bound.local_predicates.items():
        pred = conjoin(preds)
        if pred is not None:
            node = per_source[name]
            per_source[name] = _CFilter(
                node,
                compile_filter_vector(pred, node.schema, functions),
                pure=_pure_key_positions([pred], node.schema) is not None,
            )

    order = [src.name for src in bound.sources]
    current = per_source[order[0]]
    for step in join_schedule(bound):
        right = per_source[step.source]
        if step.is_cross:
            current = _CNestedLoop(current, right)
        else:
            lpos = [current.schema.position(k) for k in step.keys_left]
            rpos = [right.schema.position(k) for k in step.keys_right]
            current = _CHashJoin(current, right, lpos, rpos)

    residual = conjoin(bound.residual_predicates)
    if residual is not None:
        current = _CFilter(
            current, compile_filter_vector(residual, current.schema, functions)
        )

    if bound.is_aggregate:
        current = _CAggregate(current, bound.group_by, bound.aggregates, functions)
        if bound.having is not None:
            current = _CFilter(
                current,
                compile_filter_vector(bound.having, current.schema, functions),
            )
    elif not bound.select_star:
        outputs = bound.outputs
        vrow_fn = compile_tuple_vector(
            [e for _, e in outputs], current.schema, functions
        )
        types = [_infer_type(expr, current.schema) for _, expr in outputs]
        schema = Schema(
            [Column(name, t) for (name, _), t in zip(outputs, types)]
        )
        current = _CProject(current, vrow_fn, schema)

    if bound.distinct:
        current = _CDistinct(current)
    return current
