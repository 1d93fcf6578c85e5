"""Vectorized expression kernels: whole-column evaluation of compiled plans.

:mod:`repro.perf.compile` lowers each expression tree into SSA statements
and runs the generated closure once per row.  This module retargets the
*same* lowering — same CSE, same literal folding, same three-valued-logic
statement bodies — at whole columns: every SSA statement becomes one list
comprehension over its vector-valued inputs, so an N-row batch executes
``#statements`` comprehensions instead of ``N × #statements`` bytecode
passes plus N Python calls.

Two kernel shapes are produced:

* :func:`compile_filter_vector` — ``rows -> [indices where pred is True]``
  (an index vector; the caller gathers survivors with one list
  comprehension, which is how compiled filters select batches);
* :func:`compile_tuple_vector` — ``rows -> [(v0, v1, ...), ...]`` (the
  projection/aggregate-input kernel; the output rows are built by one
  C-speed ``zip`` over the result columns).

Semantics note: the scalar closure evaluates statement 1..K for row 1,
then for row 2, …; the vector kernel evaluates statement 1 for all rows,
then statement 2, ….  Value results are identical — every statement is a
pure expression over its inputs, both operands of every operator are
always evaluated (the compiler emits no short-circuit), and per-row
conditional bodies (``None if x is None else …``) stay per-element inside
the comprehension.  Only the *order* in which two different rows' errors
would surface can differ; the first failing statement still fails.  User
function calls are pinned per-row (``volatile`` statements) so impure
functions observe the same number of calls.

The scalar emitter remains the permanent fallback: any
:class:`~repro.perf.compile.CompileError` here leaves the plan on the
row-at-a-time closures.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import repeat
from typing import Any

from repro.engine.expressions import ColumnRef, Expression, resolve_column
from repro.engine.types import Schema
from repro.perf.compile import _Emitter


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


def _finish_vector(em: _VectorEmitter, return_expr: str, name: str) -> Callable:
    body = "\n    ".join(em.lines) if em.lines else "pass"
    src = f"def {name}(rows):\n    {body}\n    return {return_expr}\n"
    namespace = dict(em.env)
    namespace["_repeat"] = repeat
    exec(compile(src, f"<repro.perf.vector:{name}>", "exec"), namespace)
    fn = namespace[name]
    fn.__repro_source__ = src  # introspection / EXPLAIN / debugging
    return fn


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
    return _finish_vector(em, ret, "_vector_filter")


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
        return _finish_vector(em, "[()] * len(rows)", "_vector_tuple")
    if all(a not in em.vectors for a in atoms):
        tup = "(" + "".join(a + ", " for a in atoms) + ")"
        return _finish_vector(em, f"[{tup}] * len(rows)", "_vector_tuple")
    parts = [a if a in em.vectors else f"_repeat({a})" for a in atoms]
    return _finish_vector(
        em, f"list(zip({', '.join(parts)}))", "_vector_tuple"
    )


def vector_source(fn: Callable) -> str | None:
    """The generated source of a vector kernel (debugging aid)."""
    return getattr(fn, "__repro_source__", None)


__all__ = [
    "compile_filter_vector",
    "compile_tuple_vector",
    "vector_source",
]
