"""Tests for semantic analysis (binding) of parsed queries."""

import pytest

from repro.sql import (
    Binder,
    BindError,
    BoundQuery,
    BoundUnion,
    parse_statement,
)


@pytest.fixture
def binder(paper_catalog):
    return Binder(paper_catalog)


def bind(binder, sql):
    return binder.bind(parse_statement(sql))


class TestSources:
    def test_stream_sources(self, binder):
        b = bind(binder, "SELECT * FROM R, S")
        assert [s.name for s in b.sources] == ["R", "S"]
        assert b.sources[0].stream_name == "R"

    def test_alias_binding(self, binder):
        b = bind(binder, "SELECT * FROM R alpha WHERE alpha.a = 1")
        assert b.sources[0].name == "alpha"
        assert len(b.local_predicates["alpha"]) == 1

    def test_unknown_stream(self, binder):
        with pytest.raises(BindError, match="unknown stream"):
            bind(binder, "SELECT * FROM ghost")

    def test_duplicate_source_names(self, binder):
        with pytest.raises(BindError, match="duplicate"):
            bind(binder, "SELECT * FROM R, R")

    def test_subquery_source(self, binder):
        b = bind(binder, "SELECT * FROM (SELECT a FROM R) sub")
        assert b.sources[0].subquery is not None
        assert "a" in b.sources[0].schema

    def test_view_source(self, binder, paper_catalog):
        paper_catalog.create_view("v", parse_statement("SELECT a FROM R"))
        b = bind(binder, "SELECT * FROM v")
        assert b.sources[0].subquery is not None


class TestPredicateClassification:
    def test_equijoin_extraction(self, binder):
        b = bind(binder, "SELECT * FROM R, S, T WHERE R.a = S.b AND S.c = T.d")
        assert [str(p) for p in b.join_predicates] == ["R.a = S.b", "S.c = T.d"]
        assert not b.residual_predicates

    def test_local_predicates_per_source(self, binder):
        b = bind(binder, "SELECT * FROM R, S WHERE R.a = S.b AND S.c > 5 AND R.a < 3")
        assert len(b.local_predicates["S"]) == 1
        assert len(b.local_predicates["R"]) == 1

    def test_residual_non_equijoin(self, binder):
        b = bind(binder, "SELECT * FROM R, S WHERE R.a < S.b")
        assert len(b.residual_predicates) == 1
        assert not b.join_predicates

    def test_residual_multi_column_expression(self, binder):
        b = bind(binder, "SELECT * FROM R, S WHERE R.a + S.b = 10")
        assert len(b.residual_predicates) == 1

    def test_unqualified_column_resolution(self, binder):
        b = bind(binder, "SELECT * FROM R, S WHERE a = b")
        assert [str(p) for p in b.join_predicates] == ["R.a = S.b"]

    def test_ambiguous_column(self, paper_catalog):
        from repro.engine import ColumnType, Schema

        paper_catalog.create_stream("R2", Schema.of(("a", ColumnType.INTEGER)))
        binder = Binder(paper_catalog)
        with pytest.raises(BindError, match="ambiguous"):
            bind(binder, "SELECT * FROM R, R2 WHERE a = 1")

    def test_unknown_qualifier(self, binder):
        with pytest.raises(BindError, match="unknown table qualifier"):
            bind(binder, "SELECT * FROM R WHERE Z.a = 1")

    def test_unknown_column_in_source(self, binder):
        with pytest.raises(BindError, match="no column"):
            bind(binder, "SELECT * FROM R WHERE R.zzz = 1")


class TestSelectList:
    def test_aggregates_extracted(self, binder):
        b = bind(binder, "SELECT a, COUNT(*) AS n, SUM(c) AS s FROM R, S "
                         "WHERE R.a = S.b GROUP BY a")
        assert [a.function for a in b.aggregates] == ["count", "sum"]
        assert b.aggregates[0].argument is None  # COUNT(*)
        assert b.outputs == [("a", b.outputs[0][1])]
        assert b.group_by[0][0] == "a"

    def test_count_star_alias_default(self, binder):
        b = bind(binder, "SELECT COUNT(*) FROM R")
        assert b.aggregates[0].output_name == "count"

    def test_star_with_aggregate_rejected(self, binder):
        with pytest.raises(BindError, match="mix"):
            bind(binder, "SELECT *, COUNT(*) FROM R GROUP BY a")

    def test_group_by_without_aggregate_rejected(self, binder):
        with pytest.raises(BindError):
            bind(binder, "SELECT a FROM R GROUP BY a")

    def test_sum_star_rejected(self, binder):
        with pytest.raises(BindError):
            bind(binder, "SELECT SUM(*) FROM R")

    def test_is_aggregate_flag(self, binder):
        assert bind(binder, "SELECT COUNT(*) FROM R").is_aggregate
        assert not bind(binder, "SELECT a FROM R").is_aggregate

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT nope FROM R",
            "SELECT a + nope AS x FROM R",
            "SELECT COUNT(nope) AS n FROM R",
            "SELECT a, COUNT(*) AS n FROM R GROUP BY nope",
            "SELECT R.nope FROM R",
        ],
    )
    def test_unknown_output_column_fails_at_bind(self, binder, sql):
        with pytest.raises(BindError, match="nope"):
            bind(binder, sql)

    def test_derived_table_columns_are_bare_names(self, binder):
        b = bind(binder, "SELECT a, c FROM (SELECT * FROM R, S WHERE R.a = S.b) AS x")
        assert b.sources[0].schema.names == ("a", "b", "c")


class TestWindowsAndUnions:
    def test_window_clause_bound(self, binder):
        b = bind(
            binder,
            "SELECT * FROM R WINDOW R ['2 seconds']",
        )
        assert b.windows["R"].width == 2.0

    def test_window_unknown_source(self, binder):
        with pytest.raises(BindError, match="unknown source"):
            bind(binder, "SELECT * FROM R WINDOW Z ['1 second']")

    def test_union_bound(self, binder):
        b = bind(binder, "(SELECT a FROM R) UNION ALL (SELECT d FROM T)")
        assert isinstance(b, BoundUnion)
        assert all(isinstance(q, BoundQuery) for q in b.queries)

    def test_paper_query_binds(self, binder, paper_query_text):
        b = bind(binder, paper_query_text)
        assert len(b.sources) == 3
        assert len(b.join_predicates) == 2
        assert b.aggregates[0].output_name == "count"
