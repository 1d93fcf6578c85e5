"""Scalar and predicate expression trees, with schema-resolved evaluation.

Expressions appear in SELECT lists, WHERE clauses, and (after the Data Triage
rewrite) as calls to object-relational synopsis functions.  An expression is
*bound* against a :class:`~repro.engine.types.Schema` to produce a compiled
closure ``row -> value``; binding resolves column names to positions once so
per-row evaluation is cheap.  The plan compiler (:mod:`repro.perf.compile`)
lowers the same trees into whole-column kernels; :class:`AggregateSpec` and
:func:`_infer_type` are the aggregate and output-typing rules that the
binder, the compiler and the merge step share.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.engine.types import ColumnType, Schema, SchemaError

Evaluator = Callable[[tuple], Any]


class ExpressionError(ValueError):
    """Raised for unresolvable columns, unknown operators/functions, etc."""


def resolve_column(ref: "ColumnRef", schema: Schema) -> int:
    """Resolve a column reference to its row position in ``schema``.

    Tries the fully-qualified name first (join output schemas use
    "table.column" names), then the bare column name, then a unique
    ".column" suffix match — the latter lets an unqualified reference like
    ``a`` resolve inside a join output whose columns are all qualified
    (``R.a``, ``S.b``, ...), as SQL name resolution does.  Shared by
    :meth:`ColumnRef.bind` and the code-generating plan compiler
    (:mod:`repro.perf.compile`), so both resolve names identically.
    """
    for candidate in ((ref.qualified,) if ref.table else ()) + (ref.name,):
        try:
            return schema.position(candidate)
        except SchemaError:
            continue
    if ref.table is None:
        suffix = "." + ref.name.lower()
        matches = [
            i
            for i, c in enumerate(schema.columns)
            if c.name.lower().endswith(suffix)
        ]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise ExpressionError(
                f"ambiguous column {ref.name!r}: matches "
                f"{[schema.columns[i].name for i in matches]}"
            )
    raise ExpressionError(
        f"cannot resolve column {ref.qualified!r} against {schema!r}"
    )


class Expression:
    """Base class for all expression nodes."""

    def bind(self, schema: Schema, functions: dict[str, Callable] | None = None) -> Evaluator:
        """Compile this expression against ``schema`` into a ``row -> value`` closure.

        ``functions`` supplies user-defined functions by (lower-case) name,
        which is how the object-relational synopsis operations of paper
        Section 5.1 are reached from SQL.
        """
        raise NotImplementedError

    def columns(self) -> set[str]:
        """All column names referenced by this expression (lower-cased)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column, optionally qualified: ``R.a`` or ``a``."""

    name: str
    table: str | None = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name

    def bind(self, schema: Schema, functions=None) -> Evaluator:
        return operator.itemgetter(resolve_column(self, schema))

    def columns(self) -> set[str]:
        return {self.qualified.lower()}

    def __str__(self) -> str:
        return self.qualified


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def bind(self, schema: Schema, functions=None) -> Evaluator:
        value = self.value
        return lambda row: value

    def columns(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


def _null_safe(fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """SQL three-valued logic, simplified: any NULL operand yields NULL."""

    def wrapped(a: Any, b: Any) -> Any:
        if a is None or b is None:
            return None
        return fn(a, b)

    return wrapped


_BINARY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "=": _null_safe(operator.eq),
    "!=": _null_safe(operator.ne),
    "<>": _null_safe(operator.ne),
    "<": _null_safe(operator.lt),
    "<=": _null_safe(operator.le),
    ">": _null_safe(operator.gt),
    ">=": _null_safe(operator.ge),
    "+": _null_safe(operator.add),
    "-": _null_safe(operator.sub),
    "*": _null_safe(operator.mul),
    "/": _null_safe(operator.truediv),
    "%": _null_safe(operator.mod),
}


def _logical_and(a: Any, b: Any) -> Any:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return bool(a) and bool(b)


def _logical_or(a: Any, b: Any) -> Any:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return bool(a) or bool(b)


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary operator: comparison, arithmetic, AND/OR."""

    op: str
    left: Expression
    right: Expression

    def bind(self, schema: Schema, functions=None) -> Evaluator:
        lf = self.left.bind(schema, functions)
        rf = self.right.bind(schema, functions)
        op = self.op.upper() if self.op.isalpha() else self.op
        if op == "AND":
            return lambda row: _logical_and(lf(row), rf(row))
        if op == "OR":
            return lambda row: _logical_or(lf(row), rf(row))
        try:
            fn = _BINARY_OPS[self.op]
        except KeyError:
            raise ExpressionError(f"unknown binary operator {self.op!r}") from None
        return lambda row: fn(lf(row), rf(row))

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    """NOT / unary minus."""

    op: str
    operand: Expression

    def bind(self, schema: Schema, functions=None) -> Evaluator:
        f = self.operand.bind(schema, functions)
        op = self.op.upper()
        if op == "NOT":
            return lambda row: None if f(row) is None else not f(row)
        if self.op == "-":
            return lambda row: None if f(row) is None else -f(row)
        raise ExpressionError(f"unknown unary operator {self.op!r}")

    def columns(self) -> set[str]:
        return self.operand.columns()

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A call to a registered (user-defined) function.

    This is the hook the Data Triage shadow queries use: ``equijoin(...)``,
    ``union_all(...)``, ``project(...)`` over SYNOPSIS-typed values are plain
    FunctionCall nodes whose implementations live in the UDF registry.
    """

    name: str
    args: tuple[Expression, ...]

    def bind(self, schema: Schema, functions=None) -> Evaluator:
        functions = functions or {}
        try:
            fn = functions[self.name.lower()]
        except KeyError:
            raise ExpressionError(f"unknown function {self.name!r}") from None
        arg_fns = [a.bind(schema, functions) for a in self.args]
        return lambda row: fn(*(af(row) for af in arg_fns))

    def columns(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= a.columns()
        return out

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def conjuncts(expr: Expression | None) -> list[Expression]:
    """Flatten an AND-tree into its conjuncts (empty list for None)."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op.upper() == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(exprs: list[Expression]) -> Expression | None:
    """Rebuild an AND-tree from conjuncts (None for an empty list)."""
    if not exprs:
        return None
    out = exprs[0]
    for e in exprs[1:]:
        out = BinaryOp("AND", out, e)
    return out


def is_equijoin_conjunct(expr: Expression) -> tuple[ColumnRef, ColumnRef] | None:
    """If ``expr`` is ``col = col`` between two columns, return the pair."""
    if (
        isinstance(expr, BinaryOp)
        and expr.op == "="
        and isinstance(expr.left, ColumnRef)
        and isinstance(expr.right, ColumnRef)
    ):
        return (expr.left, expr.right)
    return None


def _infer_type(expr: Expression, schema: Schema) -> ColumnType:
    """Best-effort output typing; falls back to FLOAT for computed values."""
    if isinstance(expr, ColumnRef):
        for candidate in ((expr.qualified,) if expr.table else ()) + (expr.name,):
            if candidate in schema:
                return schema.column(candidate).type
    if isinstance(expr, Literal):
        for t in (ColumnType.BOOLEAN, ColumnType.INTEGER, ColumnType.FLOAT, ColumnType.TEXT):
            if expr.value is not None and t.validate(expr.value):
                return t
    return ColumnType.FLOAT


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in a GROUP BY query: function, argument, output name.

    ``argument is None`` means ``COUNT(*)``.
    """

    function: str  # count | sum | avg | min | max
    argument: Expression | None
    output_name: str

    SUPPORTED = ("count", "sum", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.function.lower() not in self.SUPPORTED:
            raise ValueError(f"unsupported aggregate {self.function!r}")
        if self.argument is None and self.function.lower() != "count":
            raise ValueError(f"{self.function}(*) is not valid SQL")
