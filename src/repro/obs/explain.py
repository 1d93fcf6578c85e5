"""Per-operator profiling: EXPLAIN ANALYZE for both execution modes.

:func:`profile_execution` runs a bound query over one window's inputs and
returns the result together with an :class:`OperatorProfile` tree — rows
out, invocations, and inclusive wall time per plan node — for either
executor mode:

* **compiled** — the cached :class:`~repro.perf.compile.CompiledNode` tree
  is *never mutated* (it is shared across windows and cached per executor);
  instead each node is shallow-copied and its child links are replaced with
  counting proxies, so the profiled tree is a throwaway parallel structure.
  A proxy brackets the node's one execution face, ``batch(inputs)``, with
  a single clock pair;
* **interpreted** — the physical plan is built fresh for the call (exactly
  as :meth:`~repro.engine.executor.QueryExecutor.execute_interpreted`
  does per window) and each operator's iterator is wrapped in a
  per-``next()`` clock.  When the executor runs compiled but the query
  fell back, the report carries the reason.

Timing is *inclusive*: a node's seconds cover everything spent producing
its rows, children included — the same convention as PostgreSQL's
``EXPLAIN ANALYZE`` actual-time column.  :func:`render_profile` derives the
exclusive ("self") share by subtracting the children.

Profiling adds clock reads (one pair per compiled node, one per interpreted
``next()``), so a profiled execution is slower than a plain one; use it to
find *where* time goes, and the repo benchmark (``benchmarks/e2e/run.py``)
to measure *how fast* the plain path is.
"""

from __future__ import annotations

import copy
import io
import time
from dataclasses import dataclass, field

from repro.algebra.multiset import Multiset
from repro.engine.executor import QueryResult, _order_rows

__all__ = ["OperatorProfile", "ProfileReport", "profile_execution", "render_profile"]


@dataclass
class OperatorProfile:
    """One plan node's counters: rows out, invocations, inclusive seconds."""

    name: str
    detail: str = ""
    rows_out: int = 0
    invocations: int = 0
    seconds: float = 0.0
    children: list["OperatorProfile"] = field(default_factory=list)

    @property
    def rows_in(self) -> int:
        """Rows the node consumed: the sum of its children's outputs."""
        return sum(c.rows_out for c in self.children)

    @property
    def self_seconds(self) -> float:
        """Exclusive time: inclusive minus the children's inclusive time."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    def find(self, name: str) -> "OperatorProfile | None":
        """First node named ``name`` in pre-order (self, then children)."""
        if self.name == name:
            return self
        for c in self.children:
            hit = c.find(name)
            if hit is not None:
                return hit
        return None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "detail": self.detail,
            "rows_out": self.rows_out,
            "rows_in": self.rows_in,
            "invocations": self.invocations,
            "seconds": self.seconds,
            "children": [c.to_dict() for c in self.children],
        }


@dataclass
class ProfileReport:
    """One profiled execution: the window result, the tree, and the mode."""

    result: QueryResult
    root: OperatorProfile
    mode: str  # "compiled" | "interpreted"
    #: Why a compiled executor ran this query interpreted ("<ExcType>: <msg>").
    fallback: str | None = None

    @property
    def seconds(self) -> float:
        return self.root.seconds


# ---------------------------------------------------------------------------
# Counting proxies
# ---------------------------------------------------------------------------
_CLOCK = time.perf_counter


class _ProfiledIter:
    """Wraps an iterable: counts rows and charges pull time to ``prof``.

    The clock brackets each ``next()`` on the wrapped iterator, so a node is
    charged for its own work *and* its subtree's — inclusive time.  Children
    are themselves wrapped, so the exclusive share falls out by subtraction.
    """

    __slots__ = ("_inner", "_prof")

    def __init__(self, inner, prof: OperatorProfile) -> None:
        self._inner = inner
        self._prof = prof

    def __iter__(self):
        prof = self._prof
        prof.invocations += 1
        it = iter(self._inner)
        clock = _CLOCK
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


class _CompiledProxy:
    """Stands in for a compiled node's child: same rows, counted.

    Implements the node's one face, ``batch``, bracketed by a single clock
    pair, so the parent reports the rows that flowed through this node.
    """

    __slots__ = ("_node", "_prof")

    def __init__(self, node, prof: OperatorProfile) -> None:
        self._node = node
        self._prof = prof

    @property
    def schema(self):
        return self._node.schema

    def batch(self, inputs):
        prof = self._prof
        prof.invocations += 1
        t0 = _CLOCK()
        rows = self._node.batch(inputs)
        prof.seconds += _CLOCK() - t0
        prof.rows_out += len(rows)
        return rows


class _CompiledJoinProxy(_CompiledProxy):
    """Join proxy additionally forwarding the COUNT(*) pushdown probe.

    ``left_match_counts`` never materializes joined rows, so the proxy
    charges its time and counts the *logical* fan-out (``sum(mult)``) as
    rows out — the same cardinality ``batch`` would have reported.  The
    ``left`` forward lets the aggregate's key-position check see the join's
    left schema through the proxy.
    """

    __slots__ = ()

    @property
    def left(self):
        return self._node.left

    def left_match_counts(self, inputs):
        prof = self._prof
        prof.invocations += 1
        t0 = _CLOCK()
        lrows, mult = self._node.left_match_counts(inputs)
        prof.seconds += _CLOCK() - t0
        prof.rows_out += sum(mult)
        return lrows, mult


# ---------------------------------------------------------------------------
# Node labelling
# ---------------------------------------------------------------------------
_NODE_NAMES = {
    "Scan": "Scan",
    "_CScan": "Scan",
    "Filter": "Filter",
    "_CFilter": "Filter",
    "Project": "Project",
    "_CProject": "Project",
    "HashJoin": "HashJoin",
    "_CHashJoin": "HashJoin",
    "NestedLoopJoin": "NestedLoopJoin",
    "_CNestedLoop": "NestedLoopJoin",
    "HashAggregate": "HashAggregate",
    "_CAggregate": "HashAggregate",
    "_Distinct": "Distinct",
    "_CDistinct": "Distinct",
    "UnionAll": "UnionAll",
    "_CSubquery": "Subquery",
}


def _label(node) -> tuple[str, str]:
    cls = type(node).__name__
    name = _NODE_NAMES.get(cls, cls)
    detail = ""
    if name == "Scan":
        key = getattr(node, "key", None)  # compiled scans carry the stream
        detail = key if key else ""
    return name, detail


# ---------------------------------------------------------------------------
# Compiled-tree wrapping (shallow-copy, never mutate the cached plan)
# ---------------------------------------------------------------------------
def _wrap_compiled_node(node) -> tuple[_CompiledProxy, OperatorProfile]:
    name, detail = _label(node)
    prof = OperatorProfile(name=name, detail=detail)
    clone = copy.copy(node)
    for attr in ("child", "left", "right"):
        child = getattr(node, attr, None)
        if child is not None:
            proxy, child_prof = _wrap_compiled_node(child)
            setattr(clone, attr, proxy)
            prof.children.append(child_prof)
    inner = getattr(node, "inner", None)
    if inner is not None:  # _CSubquery: its body is a whole compiled query
        wrapped, inner_prof = _wrap_compiled_plan(inner)
        clone.inner = wrapped
        prof.children.append(inner_prof)
    proxy_cls = (
        _CompiledJoinProxy
        if hasattr(node, "left_match_counts")
        else _CompiledProxy
    )
    return proxy_cls(clone, prof), prof


def _wrap_compiled_plan(plan) -> tuple[object, OperatorProfile]:
    """A profiled stand-in for a CompiledQuery / CompiledUnion."""
    queries = getattr(plan, "queries", None)
    if queries is not None:  # CompiledUnion
        clone = copy.copy(plan)
        prof = OperatorProfile(name="UnionAll", invocations=1)
        wrapped = []
        for q in queries:
            wq, qp = _wrap_compiled_plan(q)
            wrapped.append(wq)
            prof.children.append(qp)
        clone.queries = wrapped
        return clone, prof
    clone = copy.copy(plan)  # CompiledQuery
    proxy, prof = _wrap_compiled_node(plan.root)
    clone.root = proxy
    return clone, prof


# ---------------------------------------------------------------------------
# Interpreted-tree wrapping
# ---------------------------------------------------------------------------
def _wrap_physical(node) -> tuple[_ProfiledIter, OperatorProfile]:
    name, detail = _label(node)
    prof = OperatorProfile(name=name, detail=detail)
    clone = copy.copy(node)
    for attr in ("child", "left", "right"):
        child = getattr(node, attr, None)
        if child is not None:
            proxy, child_prof = _wrap_physical(child)
            setattr(clone, attr, proxy)
            prof.children.append(child_prof)
    children = getattr(node, "children", None)
    if children is not None:  # UnionAll
        wrapped = []
        for child in children:
            proxy, child_prof = _wrap_physical(child)
            wrapped.append(proxy)
            prof.children.append(child_prof)
        clone.children = wrapped
    return _ProfiledIter(clone, prof), prof


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def profile_execution(executor, bound, inputs) -> ProfileReport:
    """Run ``bound`` over ``inputs`` with per-operator counters.

    Takes the same path :meth:`QueryExecutor.execute` would — the cached
    compiled plan when the executor runs compiled and the query compiled
    successfully, the interpreted plan otherwise — so the profile describes
    the plan that actually runs in production, and the returned result is
    identical to an unprofiled execution.
    """
    if executor.compiled:
        plan = executor._compiled_plan(bound)
        if plan is not None:
            wrapped, root = _wrap_compiled_plan(plan)
            t0 = _CLOCK()
            result = wrapped.execute(inputs)
            elapsed = _CLOCK() - t0
            _finish_synthetic(root, result, elapsed)
            return ProfileReport(result=result, root=root, mode="compiled")
    result, root = _profile_interpreted(executor, bound, inputs)
    return ProfileReport(
        result=result,
        root=root,
        mode="interpreted",
        fallback=executor._fallback_reason(bound),
    )


def _finish_synthetic(prof: OperatorProfile, result: QueryResult, elapsed: float) -> None:
    """Fill counters for container nodes that never iterate rows themselves."""
    if prof.name == "UnionAll" and prof.rows_out == 0:
        prof.rows_out = len(result.rows)
        prof.seconds = elapsed


def _profile_interpreted(executor, bound, inputs) -> tuple[QueryResult, OperatorProfile]:
    from repro.sql.binder import BoundQuery, BoundUnion

    if isinstance(bound, BoundUnion):
        prof = OperatorProfile(name="UnionAll", invocations=1)
        rows = Multiset()
        schema = None
        t0 = _CLOCK()
        for q in bound.queries:
            r, arm = _profile_interpreted(executor, q, inputs)
            prof.children.append(arm)
            rows = rows + r.rows
            schema = schema or r.schema
        prof.seconds = _CLOCK() - t0
        prof.rows_out = len(rows)
        return QueryResult(rows=rows, schema=schema), prof
    if not isinstance(bound, BoundQuery):
        raise TypeError(f"cannot profile {type(bound).__name__}")
    plan = executor._plan(bound, inputs)
    proxy, prof = _wrap_physical(plan)
    # Replicate execute_interpreted's tail over the wrapped tree.
    if not bound.order_by and bound.limit is None:
        return QueryResult(rows=Multiset(iter(proxy)), schema=plan.schema), prof
    rows = list(proxy)
    if bound.order_by:
        rows = _order_rows(rows, plan.schema, bound.order_by, executor._functions)
    if bound.limit is not None:
        rows = rows[: bound.limit]
    return (
        QueryResult(rows=Multiset(rows), schema=plan.schema, ordered_rows=rows),
        prof,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def render_profile(report: ProfileReport) -> str:
    """EXPLAIN ANALYZE text: the profiled tree plus a totals line."""
    out = io.StringIO()
    why = f"; fallback: {report.fallback}" if report.fallback else ""
    out.write(f"EXPLAIN ANALYZE ({report.mode}{why})\n")

    def render(prof: OperatorProfile, indent: int) -> None:
        label = prof.name + (f" {prof.detail}" if prof.detail else "")
        out.write(
            "  " * indent
            + f"{label}  (rows={prof.rows_out} loops={prof.invocations} "
            + f"time={_fmt_ms(prof.seconds)} self={_fmt_ms(prof.self_seconds)})\n"
        )
        for c in prof.children:
            render(c, indent + 1)

    render(report.root, 1)
    out.write(
        f"Execution: {len(report.result.rows)} row(s) in {_fmt_ms(report.seconds)}\n"
    )
    return out.getvalue()
