"""Tests for EXPLAIN output (engine plans and the triage rewrite)."""

import pytest

from repro.engine import explain
from repro.rewrite import RewriteError, SPJPlan, explain_rewrite
from repro.sql import Binder, parse_statement


@pytest.fixture
def binder(paper_catalog):
    return Binder(paper_catalog)


def plan_text(binder, sql):
    return explain(binder.bind(parse_statement(sql)))


class TestEngineExplain:
    def test_three_way_join_tree(self, binder, paper_query_text):
        text = plan_text(binder, paper_query_text)
        assert "HashAggregate group=[a]" in text
        assert text.count("HashJoin") == 2
        assert "Scan R AS R" in text
        # The inner join binds R to S first (the greedy order).
        assert text.index("R.a = S.b") > text.index("S.c = T.d")

    def test_keys_print_joined_side_first(self, binder):
        # The executor's schedule attaches S to R, however the key is written.
        for where in ("R.a = S.b", "S.b = R.a"):
            text = plan_text(binder, f"SELECT * FROM R, S WHERE {where}")
            assert "HashJoin on R.a = S.b" in text

    def test_plan_follows_the_executor_schedule(self, binder):
        # The first pending predicate picks the next source: T before S.
        text = plan_text(
            binder, "SELECT * FROM R, S, T WHERE R.a = T.d AND R.a = S.b"
        )
        assert text.splitlines() == [
            "HashJoin on R.a = S.b",
            "  HashJoin on R.a = T.d",
            "    Scan R AS R",
            "    Scan T AS T",
            "  Scan S AS S",
        ]

    def test_filters_shown_on_scans(self, binder):
        text = plan_text(binder, "SELECT * FROM S WHERE S.c > 5")
        assert "filter [(S.c > 5)]" in text

    def test_cross_product_labelled(self, binder):
        text = plan_text(binder, "SELECT * FROM R, T")
        assert "NestedLoopJoin (cross)" in text

    def test_order_limit_distinct_having(self, binder):
        text = plan_text(
            binder,
            "SELECT b, COUNT(*) AS n FROM S GROUP BY b HAVING n > 1 "
            "ORDER BY n DESC LIMIT 3",
        )
        assert "Limit 3" in text
        assert "Sort [n DESC]" in text
        assert "Having" in text

    def test_union_and_subquery(self, binder):
        text = explain(
            binder.bind(
                parse_statement(
                    "(SELECT a FROM R) UNION ALL "
                    "(SELECT d FROM (SELECT d FROM T) sub)"
                )
            )
        )
        assert "UnionAll (2 arms)" in text
        assert "Subquery AS sub" in text

    def test_residual_filter(self, binder):
        text = plan_text(binder, "SELECT * FROM R, S WHERE R.a + S.b = 9")
        assert "Filter ((R.a + S.b) = 9)" in text


class TestRewriteExplain:
    def test_full_account(self, paper_catalog, paper_query_text):
        plan = SPJPlan.from_bound(
            Binder(paper_catalog).bind(parse_statement(paper_query_text))
        )
        text = explain_rewrite(plan)
        assert "R1: R" in text and "R3: T" in text
        assert "term 1: R_dropped ⋈ S_all ⋈ T_all" in text
        assert "term 3: R_kept ⋈ S_kept ⋈ T_dropped" in text
        assert "equijoin on S.c = T.d" in text

    def test_selections_listed(self, paper_catalog):
        plan = SPJPlan.from_bound(
            Binder(paper_catalog).bind(
                parse_statement("SELECT * FROM R, S WHERE R.a = S.b AND S.c > 7")
            )
        )
        text = explain_rewrite(plan)
        assert "select S.c in [8, inf]" in text

    def test_composite_key_link_shown(self, paper_catalog):
        from repro.engine import ColumnType, Schema

        paper_catalog.create_stream(
            "U", Schema.of(("x", ColumnType.INTEGER), ("y", ColumnType.INTEGER))
        )
        plan = SPJPlan.from_bound(
            Binder(paper_catalog).bind(
                parse_statement("SELECT * FROM S, U WHERE S.b = U.x AND S.c = U.y")
            )
        )
        text = explain_rewrite(plan)
        assert "equijoin on S.b = U.x AND S.c = U.y" in text

    def test_uncompilable_shadow_reported(self, paper_catalog):
        # A non-range local predicate defeats the shadow selection compiler.
        plan = SPJPlan.from_bound(
            Binder(paper_catalog).bind(
                parse_statement(
                    "SELECT * FROM R, S WHERE R.a = S.b AND S.c % 2 = 1"
                )
            )
        )
        text = explain_rewrite(plan)
        assert "NOT COMPILABLE" in text
