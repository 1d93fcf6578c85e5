"""EXPLAIN ANALYZE profiling: row counts must equal actual cardinalities.

Each profiling test runs twice: on the executor's compiled plan
(``compiled``), and on the interpreted reference tree of ``tests/oracle/``
(``interpreted``), whose per-node counts the cardinality-parity test holds
the compiled profile to — so the oracle's own counting is pinned to the
same true cardinalities.
"""

import pytest

from repro.algebra import Multiset
from repro.engine import QueryExecutor
from repro.engine.explain import explain_analyze
from repro.obs.explain import profile_execution, render_profile
from repro.sql import Binder, parse_statement
from tests.oracle import OracleExecutor

INPUTS = {
    "r": Multiset([(1,), (1,), (2,), (5,)]),
    "s": Multiset([(1, 10), (2, 20), (3, 30)]),
    "t": Multiset([(10,), (20,), (20,)]),
}

JOIN_AGG = (
    "SELECT a, COUNT(*) AS n FROM R, S, T "
    "WHERE R.a = S.b AND S.c = T.d GROUP BY a"
)


def bind(catalog, sql):
    return Binder(catalog).bind(parse_statement(sql))


@pytest.fixture(params=["compiled", "interpreted"])
def executor(request, paper_catalog):
    if request.param == "compiled":
        return QueryExecutor(paper_catalog)
    return OracleExecutor(paper_catalog)


def profile(executor, bound, inputs):
    """EXPLAIN ANALYZE's profile, or the oracle tree's counted the same way."""
    if isinstance(executor, OracleExecutor):
        return executor.profile(bound, inputs)
    return profile_execution(executor, bound, inputs)


def test_profile_result_matches_plain_execution(executor, paper_catalog):
    bound = bind(paper_catalog, JOIN_AGG)
    plain = executor.execute(bound, INPUTS)
    report = profile(executor, bound, INPUTS)
    assert report.result.rows == plain.rows
    assert report.result.schema.names == plain.schema.names


def test_operator_rows_equal_actual_cardinalities(executor, paper_catalog):
    bound = bind(paper_catalog, JOIN_AGG)
    report = profile(executor, bound, INPUTS)
    root = report.root

    # The aggregate emits one row per group: a=1 (2 matches), a=2 (2).
    agg = root.find("HashAggregate")
    assert agg is not None
    assert agg.rows_out == 2
    assert agg.invocations == 1

    # The join tree produces the 4 matching triples; scans emit their
    # full inputs (4 + 3 + 3 rows across the leaves).
    joins = _collect(root, "HashJoin") + _collect(root, "NestedLoopJoin")
    assert joins, "expected at least one join node"
    assert joins[0].rows_out == 4  # topmost join = final join cardinality
    scans = _collect(root, "Scan")
    assert len(scans) == 3
    assert sorted(s.rows_out for s in scans) == [3, 3, 4]

    # Inclusive timing: the root's time covers its subtree.
    assert root.seconds >= max((c.seconds for c in root.children), default=0.0)
    assert all(p.self_seconds >= 0.0 for p in [root, agg, *scans])


def _collect(prof, name):
    out = []
    if prof.name == name:
        out.append(prof)
    for c in prof.children:
        out.extend(_collect(c, name))
    return out


def test_profile_single_stream_projection(executor, paper_catalog):
    bound = bind(paper_catalog, "SELECT c FROM S")
    report = profile(executor, bound, INPUTS)
    assert len(report.result.rows) == 3
    assert report.root.rows_out == 3
    scan = report.root.find("Scan")
    assert scan is not None and scan.rows_out == 3


def test_profile_union_all(executor, paper_catalog):
    bound = bind(paper_catalog, "(SELECT a FROM R) UNION ALL (SELECT d FROM T)")
    report = profile(executor, bound, INPUTS)
    assert len(report.result.rows) == 7
    union = report.root.find("UnionAll")
    assert union is not None
    assert union.rows_out == 7
    # Each arm's subtree reports its own cardinality.
    arm_rows = sorted(c.rows_out for c in union.children)
    assert arm_rows == [3, 4]


def test_profile_order_by_limit(executor, paper_catalog):
    bound = bind(paper_catalog, "SELECT c FROM S ORDER BY c DESC LIMIT 2")
    report = profile(executor, bound, INPUTS)
    assert report.result.ordered_rows == [(30,), (20,)]


def test_compiled_plan_cache_not_mutated(paper_catalog):
    executor = QueryExecutor(paper_catalog)
    bound = bind(paper_catalog, JOIN_AGG)
    cached = executor.plan(bound)
    before = cached.root
    profile_execution(executor, bound, INPUTS)
    # The cached tree must be untouched: same root object, and a plain
    # execution afterwards still works and agrees.
    assert executor.plan(bound) is cached
    assert cached.root is before
    assert executor.execute(bound, INPUTS).rows == Multiset([(1, 2), (2, 2)])


def test_render_profile_shape(executor, paper_catalog):
    bound = bind(paper_catalog, JOIN_AGG)
    text = render_profile(profile(executor, bound, INPUTS))
    assert text.startswith("EXPLAIN ANALYZE (compiled)\n")
    assert "HashAggregate  (rows=2 loops=1" in text
    assert text.rstrip().endswith("row(s) in " + text.rstrip().rsplit("in ", 1)[1])
    assert "Execution: 2 row(s)" in text


def test_explain_analyze_entry_point(executor, paper_catalog):
    bound = bind(paper_catalog, JOIN_AGG)
    if isinstance(executor, OracleExecutor):
        text = render_profile(executor.profile(bound, INPUTS))
    else:
        text = explain_analyze(executor, bound, INPUTS)
    assert "EXPLAIN ANALYZE" in text
    assert "rows=2" in text


def _cardinalities(report):
    """Flatten a profile tree into sorted (operator, rows_out, loops)."""
    out = []

    def walk(node):
        out.append((node.name, node.rows_out, node.invocations))
        for child in node.children:
            walk(child)

    walk(report.root)
    return sorted(out)


def test_cardinality_parity_interpreted_compiled_vectorized(paper_catalog):
    """Row accounting agrees between the compiled plan and the oracle tree.

    The oracle's interpreted tree (per-``next()`` iterator proxies) and the
    compiled executor (vector kernels behind ``batch()`` proxies, COUNT(*)
    pushdown through the join proxy included) must report the same
    per-operator cardinalities.
    """
    bound = bind(paper_catalog, JOIN_AGG)

    interpreted = OracleExecutor(paper_catalog).profile(bound, INPUTS)
    compiled = profile_execution(QueryExecutor(paper_catalog), bound, INPUTS)
    assert interpreted.result.rows == compiled.result.rows
    assert _cardinalities(interpreted) == _cardinalities(compiled)
