"""EXPLAIN: human-readable plans for bound queries.

Renders the executor's own join schedule (:func:`join_schedule`), so the
output is the plan, not a guess; each join key prints as ``joined side =
attached side``.  Used by the CLI and by debugging sessions; the Data
Triage rewriter has its own EXPLAIN in :mod:`repro.rewrite.explain`.
"""

from __future__ import annotations

import io

from repro.engine.executor import join_schedule


def explain(bound) -> str:
    """A textual operator tree for a BoundQuery / BoundUnion."""
    from repro.sql.binder import BoundQuery, BoundUnion

    out = io.StringIO()
    _explain(bound, out, indent=0)
    return out.getvalue()


def explain_analyze(executor, bound, inputs) -> str:
    """EXPLAIN ANALYZE: run ``bound`` over ``inputs`` and report per-operator
    rows, invocations, and wall time for the executor's compiled plan, the
    one plan every query runs on.
    """
    from repro.obs.explain import profile_execution, render_profile

    return render_profile(profile_execution(executor, bound, inputs))


def _w(out: io.StringIO, indent: int, text: str) -> None:
    out.write("  " * indent + text + "\n")


def _explain(bound, out: io.StringIO, indent: int) -> None:
    from repro.sql.binder import BoundQuery, BoundUnion

    if isinstance(bound, BoundUnion):
        _w(out, indent, f"UnionAll ({len(bound.queries)} arms)")
        for q in bound.queries:
            _explain(q, out, indent + 1)
        return
    assert isinstance(bound, BoundQuery)
    if bound.limit is not None:
        _w(out, indent, f"Limit {bound.limit}")
        indent += 1
    if bound.order_by:
        keys = ", ".join(
            f"{e}{'' if asc else ' DESC'}" for e, asc in bound.order_by
        )
        _w(out, indent, f"Sort [{keys}]")
        indent += 1
    if bound.distinct:
        _w(out, indent, "Distinct")
        indent += 1
    if bound.is_aggregate:
        groups = ", ".join(n for n, _ in bound.group_by) or "()"
        aggs = ", ".join(
            f"{a.function}({a.argument if a.argument else '*'}) AS {a.output_name}"
            for a in bound.aggregates
        )
        _w(out, indent, f"HashAggregate group=[{groups}] aggs=[{aggs}]")
        indent += 1
        if bound.having is not None:
            _w(out, indent, f"Having {bound.having}")
            indent += 1
    elif not bound.select_star:
        cols = ", ".join(n for n, _ in bound.outputs)
        _w(out, indent, f"Project [{cols}]")
        indent += 1
    for pred in bound.residual_predicates:
        _w(out, indent, f"Filter {pred}")
        indent += 1

    _explain_joins(bound, out, indent)


def _explain_joins(bound, out: io.StringIO, indent: int) -> None:
    """The executor's left-deep join tree, last join outermost."""
    first = bound.sources[0].name
    steps = join_schedule(bound)

    def render(i: int, indent: int) -> None:
        if i < 0:
            _explain_source(bound, first, out, indent)
            return
        step = steps[i]
        if step.is_cross:
            _w(out, indent, "NestedLoopJoin (cross)")
        else:
            keys = " AND ".join(
                f"{left} = {right}"
                for left, right in zip(step.keys_left, step.keys_right)
            )
            _w(out, indent, f"HashJoin on {keys}")
        render(i - 1, indent + 1)
        _explain_source(bound, step.source, out, indent + 1)

    render(len(steps) - 1, indent)


def _explain_source(bound, name: str, out: io.StringIO, indent: int) -> None:
    src = bound.source(name)
    preds = bound.local_predicates.get(name, [])
    label = (
        f"Scan {src.stream_name} AS {name}"
        if src.stream_name
        else f"Subquery AS {name}"
    )
    filters = f" filter [{' AND '.join(str(p) for p in preds)}]" if preds else ""
    _w(out, indent, label + filters)
    if src.subquery is not None:
        _explain(src.subquery, out, indent + 1)
