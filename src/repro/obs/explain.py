"""Per-operator profiling: EXPLAIN ANALYZE for the compiled plan.

:func:`profile_execution` runs a bound query over one window's inputs and
returns the result together with an :class:`OperatorProfile` tree — rows
out, invocations, and inclusive wall time per plan node.  The executor's
cached :class:`~repro.perf.compile.CompiledNode` tree is *never mutated*
(it is shared across windows); instead each node is shallow-copied and its
child links are replaced with counting proxies, so the profiled tree is a
throwaway parallel structure.  A proxy brackets the node's execution face,
``batch(inputs)`` or its counted form ``counted(inputs)``, with a single
clock pair.

Timing is *inclusive*: a node's seconds cover everything spent producing
its rows, children included — the same convention as PostgreSQL's
``EXPLAIN ANALYZE`` actual-time column.  :func:`render_profile` derives the
exclusive ("self") share by subtracting the children.

Profiling adds one clock pair per node, so a profiled execution is slower
than a plain one; use it to find *where* time goes, and the repo benchmark
(``benchmarks/e2e/run.py``) to measure *how fast* the plain path is.
"""

from __future__ import annotations

import copy
import io
import time
from dataclasses import dataclass, field

from repro.engine.executor import QueryResult

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
    """One profiled execution: the window result and the operator tree."""

    result: QueryResult
    root: OperatorProfile

    @property
    def seconds(self) -> float:
        return self.root.seconds


# ---------------------------------------------------------------------------
# Counting proxies
# ---------------------------------------------------------------------------
_CLOCK = time.perf_counter


class _CompiledProxy:
    """Stands in for a compiled node's child: same rows, counted.

    Implements the node's faces, ``batch`` and ``counted``, each bracketed
    by a single clock pair, so the parent reports the rows that flowed
    through this node.
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

    def counted(self, inputs):
        """The counted face (the COUNT(*) pushdown's read), rows counted
        with their multiplicities: the rows ``batch`` would have reported."""
        prof = self._prof
        prof.invocations += 1
        t0 = _CLOCK()
        rows, mult = self._node.counted(inputs)
        prof.seconds += _CLOCK() - t0
        prof.rows_out += sum(mult)
        return rows, mult


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
    "_CScan": "Scan",
    "_CFilter": "Filter",
    "_CProject": "Project",
    "_CHashJoin": "HashJoin",
    "_CNestedLoop": "NestedLoopJoin",
    "_CAggregate": "HashAggregate",
    "_CDistinct": "Distinct",
    "_CSubquery": "Subquery",
}


def _label(node) -> tuple[str, str]:
    cls = type(node).__name__
    name = _NODE_NAMES.get(cls, cls)
    detail = ""
    if name == "Scan":
        detail = node.key  # the scanned stream
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
# Entry points
# ---------------------------------------------------------------------------
def profile_execution(executor, bound, inputs) -> ProfileReport:
    """Run ``bound`` over ``inputs`` with per-operator counters.

    Profiles the executor's own cached plan (:meth:`QueryExecutor.plan`),
    so the profile describes the plan that runs in production, and the
    returned result is identical to an unprofiled execution.
    """
    wrapped, root = _wrap_compiled_plan(executor.plan(bound))
    t0 = _CLOCK()
    result = wrapped.execute(inputs)
    elapsed = _CLOCK() - t0
    _finish_synthetic(root, result, elapsed)
    return ProfileReport(result=result, root=root)


def _finish_synthetic(prof: OperatorProfile, result: QueryResult, elapsed: float) -> None:
    """Fill counters for container nodes that never iterate rows themselves."""
    if prof.name == "UnionAll" and prof.rows_out == 0:
        prof.rows_out = len(result.rows)
        prof.seconds = elapsed


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def render_profile(report: ProfileReport) -> str:
    """EXPLAIN ANALYZE text: the profiled tree plus a totals line."""
    out = io.StringIO()
    out.write("EXPLAIN ANALYZE (compiled)\n")

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
