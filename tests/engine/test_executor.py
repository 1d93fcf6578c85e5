"""Tests for bound-query planning and window-at-a-time execution."""

import pytest

from repro.algebra import Multiset
from repro.engine import (
    Catalog,
    ColumnType,
    ContinuousQuery,
    QueryExecutor,
    Schema,
    StreamTuple,
    WindowSpec,
)
from repro.sql import Binder, parse_statement


@pytest.fixture
def catalog(paper_catalog):
    return paper_catalog


def execute(catalog, sql, inputs):
    bound = Binder(catalog).bind(parse_statement(sql))
    return QueryExecutor(catalog).execute(bound, inputs)


BASE_INPUTS = {
    "r": Multiset([(1,), (1,), (2,)]),
    "s": Multiset([(1, 10), (2, 20), (3, 30)]),
    "t": Multiset([(10,), (20,), (20,)]),
}


class TestExecution:
    def test_three_way_join_select_star(self, catalog):
        res = execute(
            catalog,
            "SELECT * FROM R, S, T WHERE R.a = S.b AND S.c = T.d",
            BASE_INPUTS,
        )
        assert res.rows.multiplicity((1, 1, 10, 10)) == 2
        assert res.rows.multiplicity((2, 2, 20, 20)) == 2
        assert len(res.rows) == 4

    def test_group_by_count(self, catalog):
        res = execute(
            catalog,
            "SELECT a, COUNT(*) AS n FROM R, S, T "
            "WHERE R.a = S.b AND S.c = T.d GROUP BY a",
            BASE_INPUTS,
        )
        assert res.rows == Multiset([(1, 2), (2, 2)])
        assert res.schema.names == ("a", "n")

    def test_local_predicate_pushdown(self, catalog):
        res = execute(
            catalog,
            "SELECT * FROM R, S WHERE R.a = S.b AND S.c > 15",
            BASE_INPUTS,
        )
        assert res.rows == Multiset([(2, 2, 20)])

    def test_missing_stream_treated_empty(self, catalog):
        res = execute(catalog, "SELECT * FROM R, S WHERE R.a = S.b", {"r": BASE_INPUTS["r"]})
        assert len(res.rows) == 0

    def test_single_stream_projection(self, catalog):
        res = execute(catalog, "SELECT c FROM S", BASE_INPUTS)
        assert res.rows == Multiset([(10,), (20,), (30,)])

    def test_cross_product_when_no_predicate(self, catalog):
        res = execute(catalog, "SELECT * FROM R, T", BASE_INPUTS)
        assert len(res.rows) == 9

    def test_union_all_query(self, catalog):
        res = execute(
            catalog,
            "(SELECT a FROM R) UNION ALL (SELECT d FROM T)",
            BASE_INPUTS,
        )
        assert len(res.rows) == 6

    def test_subquery_in_from(self, catalog):
        res = execute(
            catalog,
            "SELECT * FROM (SELECT a FROM R) sub, S WHERE sub.a = S.b",
            BASE_INPUTS,
        )
        assert len(res.rows) == 3

    def test_view_expansion(self, catalog):
        stmt = parse_statement(
            "(SELECT * FROM R) UNION ALL (SELECT d FROM T)"
        )
        catalog.create_view("R_all", stmt)
        res = execute(catalog, "SELECT * FROM R_all", BASE_INPUTS)
        assert len(res.rows) == 6

    def test_distinct(self, catalog):
        res = execute(catalog, "SELECT DISTINCT a FROM R", BASE_INPUTS)
        assert res.rows == Multiset([(1,), (2,)])

    def test_scalar_aggregate(self, catalog):
        res = execute(catalog, "SELECT COUNT(*) AS n FROM R", BASE_INPUTS)
        assert res.rows == Multiset([(3,)])

    def test_residual_predicate_after_join(self, catalog):
        res = execute(
            catalog,
            "SELECT * FROM R, S WHERE R.a = S.b AND R.a + S.c > 12",
            BASE_INPUTS,
        )
        # (1,1,10): 1+10=11 no; (1,1,10) x2 no; (2,2,20): 22 yes
        assert res.rows == Multiset([(2, 2, 20)])


class TestAggregateExpressions:
    def test_sum_over_expression(self, catalog):
        res = execute(
            catalog, "SELECT b, SUM(c + 1) AS s FROM S GROUP BY b", BASE_INPUTS
        )
        assert res.rows == Multiset([(1, 11.0), (2, 21.0), (3, 31.0)])

    def test_count_qualified_column(self, catalog):
        res = execute(
            catalog, "SELECT COUNT(S.c) AS n FROM S", BASE_INPUTS
        )
        assert res.rows == Multiset([(3,)])

    def test_group_by_expression(self, catalog):
        res = execute(
            catalog,
            "SELECT c % 20 AS bucket, COUNT(*) AS n FROM S GROUP BY c % 20",
            BASE_INPUTS,
        )
        # c values 10, 20, 30 -> buckets 10, 0, 10
        assert res.rows == Multiset([(10, 2), (0, 1)])


class TestCompileFallback:
    def test_unknown_function_is_counted_once_and_named(self, catalog):
        """A query the compiler rejects runs interpreted: same outcome every
        window, one ``plan_compile_fallback_total`` bump for the query (not
        one per window), and EXPLAIN ANALYZE says why."""
        from repro.engine.expressions import ExpressionError
        from repro.obs.metrics import global_registry
        from repro.obs.explain import profile_execution, render_profile

        counter = global_registry().counter(
            "plan_compile_fallback_total",
            "Queries run interpreted because plan compilation failed",
            ("reason",),
        )
        before = counter.value(reason="CompileError")
        bound = Binder(catalog).bind(parse_statement("SELECT twice(a) AS x FROM R"))
        compiled = QueryExecutor(catalog)
        interpreter = QueryExecutor(catalog, compiled=False)

        # Window 1: the function does not exist; the interpreter's error is
        # the one the caller sees.
        for executor in (interpreter, compiled):
            with pytest.raises(ExpressionError, match="unknown function 'twice'"):
                executor.execute(bound, BASE_INPUTS)

        # Windows 2-3: it exists now, the remembered fallback still answers.
        catalog.functions.register_function("twice", lambda x: 2 * x)
        for _ in range(2):
            got = compiled.execute(bound, BASE_INPUTS)
            assert got.rows == interpreter.execute(bound, BASE_INPUTS).rows
            assert got.rows == Multiset([(2,), (2,), (4,)])

        assert counter.value(reason="CompileError") == before + 1
        text = render_profile(profile_execution(compiled, bound, BASE_INPUTS))
        assert text.startswith(
            "EXPLAIN ANALYZE (interpreted; fallback: "
            "CompileError: unknown function 'twice')\n"
        )
        assert counter.value(reason="CompileError") == before + 1

    def test_interpreted_executor_reports_no_fallback(self, catalog):
        from repro.obs.explain import profile_execution, render_profile

        bound = Binder(catalog).bind(parse_statement("SELECT a FROM R"))
        for compiled, mode in ((True, "compiled"), (False, "interpreted")):
            report = profile_execution(
                QueryExecutor(catalog, compiled=compiled), bound, BASE_INPUTS
            )
            assert report.fallback is None
            assert render_profile(report).startswith(f"EXPLAIN ANALYZE ({mode})\n")


class TestContinuousQuery:
    def test_per_window_results(self, catalog):
        bound = Binder(catalog).bind(
            parse_statement("SELECT a, COUNT(*) AS n FROM R GROUP BY a")
        )
        cq = ContinuousQuery(QueryExecutor(catalog), bound, WindowSpec(width=1.0))
        streams = {
            "R": [
                StreamTuple(0.1, (1,)),
                StreamTuple(0.9, (1,)),
                StreamTuple(1.5, (2,)),
            ]
        }
        results = cq.run(streams)
        assert [r.window_id for r in results] == [0, 1]
        assert results[0].rows == Multiset([(1, 2)])
        assert results[1].rows == Multiset([(2, 1)])
        assert results[0].start == 0.0 and results[0].end == 1.0
