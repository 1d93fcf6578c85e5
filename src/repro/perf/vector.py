"""Expression lowering: one SSA emitter, whole-column kernels for plans.

The interpreted executor evaluates every expression through a tree of
nested ``Evaluator`` closures — one Python call per operator node per row.
:class:`_Emitter` lowers an expression tree into SSA-style statements
instead (common subexpressions shared, literals folded, SQL three-valued
logic spelled out with both operands always evaluated), and
:class:`_VectorEmitter` targets those *same* statement bodies at whole
columns: every statement becomes one list comprehension over its
vector-valued inputs, so an N-row batch executes ``#statements``
comprehensions instead of ``N × #statements`` bytecode passes plus N
Python calls.

Compiled plans (:mod:`repro.perf.compile`) execute on exactly two kernel
shapes, and hold nothing else:

* :func:`compile_filter_vector` — ``rows -> [indices where pred is True]``
  (an index vector; the caller gathers survivors with one list
  comprehension, which is how compiled filters select batches);
* :func:`compile_tuple_vector` — ``rows -> [(v0, v1, ...), ...]`` (the
  projection/aggregate-input kernel; the output rows are built by one
  C-speed ``zip`` over the result columns).

:func:`compile_scalar` is the row-at-a-time target of the same lowering
(``row -> value``).  No plan node uses it; its one caller is the CEP engine,
whose step predicates run against one run's environment at a time.

Semantics note: the interpreter evaluates a whole expression for row 1,
then for row 2, …; a vector kernel evaluates statement 1 for all rows,
then statement 2, ….  Value results are identical — every statement is a
pure expression over its inputs, both operands of every operator are
always evaluated (no short-circuit), and per-row conditional bodies
(``None if x is None else …``) stay per-element inside the comprehension.
Only the *order* in which two different rows' errors would surface can
differ; the first failing statement still fails.  User function calls are
pinned per-row (``volatile`` statements) so impure functions observe the
same number of calls.

Any construct the lowering cannot express raises :class:`CompileError`.
There is no second, slower compiled form to retreat to: the error
propagates out of :func:`~repro.perf.compile.compile_query` and
:class:`~repro.engine.executor.QueryExecutor` runs that query on the
interpreter (and counts the fallback).
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import repeat
from typing import Any

from repro.engine.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    UnaryOp,
    resolve_column,
)
from repro.engine.types import Schema


class CompileError(RuntimeError):
    """Raised when a query shape cannot be lowered to generated code."""


# ---------------------------------------------------------------------------
# Expression lowering
# ---------------------------------------------------------------------------
_PY_OPS = {
    "=": "==",
    "!=": "!=",
    "<>": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "%": "%",
}

#: Literal types safe to inline as source text (repr round-trips exactly).
_INLINE_LITERALS = (bool, int, str, type(None))


class _Emitter:
    """Lowers expression trees into SSA-style Python statements.

    Nodes are emitted post-order into numbered temporaries; structurally
    equal subtrees (expressions are frozen dataclasses, hence hashable)
    share one temporary, so ``R.a = S.b AND R.a > 5`` loads ``R.a`` once.
    """

    def __init__(self, schema: Schema, functions) -> None:
        self.schema = schema
        self.functions = functions or {}
        self.lines: list[str] = []
        self.env: dict[str, Any] = {}
        self._n = 0
        self._cse: dict[Expression, str] = {}
        self._lit: dict[str, Any] = {}  # inline-literal atom -> its value

    def _fresh(self) -> str:
        self._n += 1
        return f"_t{self._n}"

    def _stmt(
        self, target: str, body: str, deps: tuple = (), volatile: bool = False
    ) -> None:
        """Emit one SSA statement ``target = body``.

        ``deps`` lists every atom the body references — unused here, but
        :class:`_VectorEmitter` rewrites the statement into a list
        comprehension over its vector-valued deps.  ``volatile`` marks
        bodies that must run once per row even with no row-dependent
        inputs (user function calls may be impure).
        """
        self.lines.append(f"{target} = {body}")

    def _const(self, value: Any) -> str:
        name = f"_c{len(self.env)}"
        self.env[name] = value
        return name

    def emit(self, expr: Expression) -> str:
        """Return an atom (temp name or inline source) holding ``expr``."""
        atom = self._cse.get(expr)
        if atom is None:
            atom = self._lower(expr)
            self._cse[expr] = atom
        return atom

    def _lower(self, expr: Expression) -> str:
        if isinstance(expr, ColumnRef):
            return f"row[{resolve_column(expr, self.schema)}]"
        if isinstance(expr, Literal):
            if type(expr.value) in _INLINE_LITERALS:
                atom = repr(expr.value)
                self._lit.setdefault(atom, expr.value)
                return atom
            return self._const(expr.value)
        if isinstance(expr, BinaryOp):
            return self._lower_binary(expr)
        if isinstance(expr, UnaryOp):
            a = self.emit(expr.operand)
            t = self._fresh()
            op = expr.op.upper()
            if op == "NOT":
                val = f"not ({a})"
            elif expr.op == "-":
                val = f"-({a})"
            else:
                raise CompileError(f"unknown unary operator {expr.op!r}")
            nt = self._null_test(a)
            if nt == "False":
                body = val
            elif nt == "True":
                body = "None"
            else:
                body = f"None if {nt} else {val}"
            self._stmt(t, body, (a,))
            return t
        if isinstance(expr, FunctionCall):
            try:
                fn = self.functions[expr.name.lower()]
            except KeyError:
                raise CompileError(f"unknown function {expr.name!r}") from None
            args = [self.emit(a) for a in expr.args]
            fvar = self._const(fn)
            t = self._fresh()
            self._stmt(t, f"{fvar}({', '.join(args)})", tuple(args), volatile=True)
            return t
        raise CompileError(f"cannot compile {type(expr).__name__} nodes")

    def _null_test(self, *atoms: str) -> str:
        """Source for "any operand is NULL"; folds statically-known atoms.

        Returns ``"True"``/``"False"`` when decidable at compile time so no
        ``<literal> is None`` comparison ever reaches the generated code.
        """
        parts = []
        for x in atoms:
            if x in self._lit:
                if self._lit[x] is None:
                    return "True"
                continue  # a non-None literal can never be NULL
            parts.append(f"{x} is None")
        return " or ".join(parts) if parts else "False"

    def _is_test(self, atom: str, const: bool) -> str:
        """Source for ``atom is True/False``; folds literal atoms."""
        if atom in self._lit:
            return "True" if self._lit[atom] is const else "False"
        return f"{atom} is {const}"

    def _lower_binary(self, expr: BinaryOp) -> str:
        op = expr.op.upper() if expr.op.isalpha() else expr.op
        # Post-order: both operands are materialized before the combiner,
        # exactly like the interpreted evaluator (no short-circuit — a
        # raising right operand raises here too).
        a = self.emit(expr.left)
        b = self.emit(expr.right)
        t = self._fresh()
        nt = self._null_test(a, b)
        if op in ("AND", "OR"):
            const = False if op == "AND" else True
            word = "and" if op == "AND" else "or"
            absorb = " or ".join(
                p for p in (self._is_test(a, const), self._is_test(b, const))
                if p != "False"
            ) or "False"
            if absorb == "True":
                body = f"{const}"
            elif nt == "True":
                body = f"{const} if {absorb} else None"
            else:
                inner = (
                    f"bool({a}) {word} bool({b})"
                    if nt == "False"
                    else f"None if {nt} else bool({a}) {word} bool({b})"
                )
                if absorb == "False":
                    body = inner
                else:
                    body = f"{const} if {absorb} else ({inner})"
        else:
            try:
                py = _PY_OPS[expr.op]
            except KeyError:
                raise CompileError(
                    f"unknown binary operator {expr.op!r}"
                ) from None
            if nt == "False":
                body = f"{a} {py} {b}"
            elif nt == "True":
                body = "None"
            else:
                body = f"None if {nt} else {a} {py} {b}"
        self._stmt(t, body, (a, b))
        return t


class _VectorEmitter(_Emitter):
    """The scalar emitter with statements re-targeted at column vectors.

    Atom kinds: *vectors* (column loads and any statement with a vector
    input — one list element per row) and *scalars* (inline literals,
    bound constants, and loop-invariant temps computed once per batch).
    A statement with vector deps becomes a comprehension whose loop
    variables deliberately reuse the dep names — the comprehension scope
    shadows the outer vector, so the statement body emitted by the scalar
    lowering is reused verbatim.
    """

    def __init__(self, schema: Schema, functions) -> None:
        super().__init__(schema, functions)
        self.vectors: set[str] = set()
        self._col_names: dict[int, str] = {}

    def _lower(self, expr: Expression) -> str:
        if isinstance(expr, ColumnRef):
            pos = resolve_column(expr, self.schema)
            name = self._col_names.get(pos)
            if name is None:
                name = f"_col{pos}"
                self._col_names[pos] = name
                self.lines.append(f"{name} = [_r[{pos}] for _r in rows]")
                self.vectors.add(name)
            return name
        return super()._lower(expr)

    def _stmt(
        self, target: str, body: str, deps: tuple = (), volatile: bool = False
    ) -> None:
        vdeps = [d for d in dict.fromkeys(deps) if d in self.vectors]
        if not vdeps:
            if volatile:
                # Constant-argument user function: still once per row.
                self.lines.append(f"{target} = [{body} for _ in range(len(rows))]")
                self.vectors.add(target)
            else:
                self.lines.append(f"{target} = {body}")
            return
        if len(vdeps) == 1:
            d = vdeps[0]
            self.lines.append(f"{target} = [{body} for {d} in {d}]")
        else:
            lv = ", ".join(vdeps)
            self.lines.append(f"{target} = [{body} for {lv} in zip({lv})]")
        self.vectors.add(target)


def _finish(em: _Emitter, arg: str, return_expr: str, name: str) -> Callable:
    body = "\n    ".join(em.lines) if em.lines else "pass"
    src = f"def {name}({arg}):\n    {body}\n    return {return_expr}\n"
    namespace = dict(em.env, _repeat=repeat)
    exec(compile(src, f"<repro.perf.vector:{name}>", "exec"), namespace)
    fn = namespace[name]
    fn.__repro_source__ = src  # introspection / EXPLAIN / debugging
    return fn


def compile_scalar(
    expr: Expression, schema: Schema, functions=None
) -> Callable[[tuple], Any]:
    """Compile one expression into a flat ``row -> value`` closure."""
    em = _Emitter(schema, functions)
    return _finish(em, "row", em.emit(expr), "_compiled_scalar")


def compile_filter_vector(
    expr: Expression, schema: Schema, functions=None
) -> Callable[[list], list]:
    """Compile a predicate into ``rows -> [i for rows[i] passing]``.

    Matches the compiled filter's acceptance test exactly: a row survives
    iff the predicate value ``is True`` (SQL three-valued logic — NULL and
    False both reject).
    """
    em = _VectorEmitter(schema, functions)
    atom = em.emit(expr)
    if atom in em.vectors:
        ret = f"[_i for _i, _v in enumerate({atom}) if _v is True]"
    elif atom in em._lit:
        # Constant predicate, folded at compile time.
        ret = "list(range(len(rows)))" if em._lit[atom] is True else "[]"
    else:
        ret = f"list(range(len(rows))) if {atom} is True else []"
    return _finish(em, "rows", ret, "_vector_filter")


def compile_tuple_vector(
    exprs: list[Expression], schema: Schema, functions=None
) -> Callable[[list], list[tuple]]:
    """Compile expressions into ``rows -> [(v0, v1, ...), ...]``.

    Scalar (loop-invariant) result atoms are broadcast across the batch
    via ``itertools.repeat``, so the final pivot is one ``zip``.
    """
    em = _VectorEmitter(schema, functions)
    atoms = [em.emit(e) for e in exprs]
    if not atoms:
        return _finish(em, "rows", "[()] * len(rows)", "_vector_tuple")
    if all(a not in em.vectors for a in atoms):
        tup = "(" + "".join(a + ", " for a in atoms) + ")"
        return _finish(em, "rows", f"[{tup}] * len(rows)", "_vector_tuple")
    parts = [a if a in em.vectors else f"_repeat({a})" for a in atoms]
    return _finish(
        em, "rows", f"list(zip({', '.join(parts)}))", "_vector_tuple"
    )


def vector_source(fn: Callable) -> str | None:
    """The generated source of a vector kernel (debugging aid)."""
    return getattr(fn, "__repro_source__", None)


__all__ = [
    "CompileError",
    "compile_scalar",
    "compile_filter_vector",
    "compile_tuple_vector",
    "vector_source",
]
