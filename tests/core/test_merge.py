"""Tests for merging exact grouped aggregates with synopsis estimates."""

import pytest

from repro.algebra import Multiset
from repro.core import MergeSpec, estimate_groups, exact_groups, merge_groups
from repro.engine import ColumnType, Schema
from repro.rewrite import RewriteError, SPJPlan
from repro.sql import Binder, parse_statement
from repro.synopses import Dimension, SparseCubicHistogram


def spec_for(catalog, sql):
    return MergeSpec.from_plan(
        SPJPlan.from_bound(Binder(catalog).bind(parse_statement(sql)))
    )


@pytest.fixture
def count_spec(paper_catalog):
    return spec_for(
        paper_catalog,
        "SELECT a, COUNT(*) AS n FROM R, S WHERE R.a = S.b GROUP BY a",
    )


class TestMergeSpec:
    def test_group_and_agg_dims_qualified(self, paper_catalog):
        spec = spec_for(
            paper_catalog,
            "SELECT a, COUNT(*) AS n, SUM(c) AS s FROM R, S "
            "WHERE R.a = S.b GROUP BY a",
        )
        assert spec.group_dims == ("R.a",)
        assert spec.agg_dims == (None, "S.c")

    def test_qualified_group_column(self, paper_catalog):
        spec = spec_for(
            paper_catalog,
            "SELECT S.c, COUNT(*) AS n FROM R, S WHERE R.a = S.b GROUP BY S.c",
        )
        assert spec.group_dims == ("S.c",)

    def test_joined_away_columns_read_their_class_survivor(self, paper_catalog):
        # The shadow plan's joins keep the left key: S.b is gone after
        # R.a = S.b, and T.d after S.c = T.d.
        spec = spec_for(
            paper_catalog,
            "SELECT b, d, COUNT(*) AS n, SUM(b) AS s, MAX(c) AS hi "
            "FROM R, S, T WHERE R.a = S.b AND S.c = T.d GROUP BY b, d",
        )
        assert spec.group_dims == ("R.a", "S.c")
        assert spec.agg_dims == (None, "R.a", "S.c")

    def test_non_aggregate_query_rejected(self, paper_catalog):
        with pytest.raises(RewriteError, match="grouped aggregate"):
            spec_for(paper_catalog, "SELECT a FROM R")


class TestExactGroups:
    def test_reads_rows(self, count_spec):
        schema = Schema.of(("a", ColumnType.INTEGER), ("n", ColumnType.INTEGER))
        rows = Multiset([(1, 5), (2, 7)])
        groups = exact_groups(rows, schema, count_spec)
        assert groups == {(1,): {"n": 5}, (2,): {"n": 7}}

    def test_duplicate_group_rows_rejected(self, count_spec):
        schema = Schema.of(("a", ColumnType.INTEGER), ("n", ColumnType.INTEGER))
        rows = Multiset([(1, 5), (1, 5)])
        with pytest.raises(ValueError):
            exact_groups(rows, schema, count_spec)


def hist(dims, rows, width=1):
    syn = SparseCubicHistogram(dims, bucket_width=width)
    syn.insert_many(rows)
    return syn


class TestEstimateGroups:
    def test_count_from_marginal(self, count_spec):
        syn = hist([Dimension("R.a", 1, 10)], [(1,), (1,), (3,)])
        est = estimate_groups(syn, count_spec)
        assert est == {(1,): {"n": 2.0}, (3,): {"n": 1.0}}

    def test_none_synopsis_empty(self, count_spec):
        assert estimate_groups(None, count_spec) == {}

    def test_sum_avg_min_max(self, paper_catalog):
        spec = spec_for(
            paper_catalog,
            "SELECT a, COUNT(*) AS n, SUM(c) AS s, AVG(c) AS m, "
            "MIN(c) AS lo, MAX(c) AS hi "
            "FROM R, S WHERE R.a = S.b GROUP BY a",
        )
        syn = hist(
            [Dimension("R.a", 1, 10), Dimension("S.c", 1, 10)],
            [(1, 2), (1, 4), (3, 9)],
        )
        est = estimate_groups(syn, spec)
        g1 = est[(1,)]
        assert g1["n"] == pytest.approx(2.0)
        assert g1["s"] == pytest.approx(6.0)
        assert g1["m"] == pytest.approx(3.0)
        assert g1["lo"] == pytest.approx(2.0)
        assert g1["hi"] == pytest.approx(4.0)
        assert est[(3,)]["s"] == pytest.approx(9.0)

    def test_two_group_columns(self, paper_catalog):
        spec = spec_for(
            paper_catalog,
            "SELECT b, c, COUNT(*) AS n FROM S GROUP BY b, c",
        )
        syn = hist(
            [Dimension("S.b", 1, 10), Dimension("S.c", 1, 10)],
            [(1, 2), (1, 2), (1, 3)],
        )
        est = estimate_groups(syn, spec)
        assert est[(1, 2)]["n"] == pytest.approx(2.0)
        assert est[(1, 3)]["n"] == pytest.approx(1.0)


    def test_no_group_columns_is_one_global_group(self, paper_catalog):
        spec = spec_for(
            paper_catalog, "SELECT COUNT(*) AS n, SUM(c) AS s FROM S"
        )
        syn = hist(
            [Dimension("S.b", 1, 10), Dimension("S.c", 1, 10)],
            [(1, 2), (1, 4), (3, 9)],
        )
        assert estimate_groups(syn, spec) == {(): {"n": 3.0, "s": 15.0}}

    def test_three_group_columns(self, paper_catalog):
        spec = spec_for(
            paper_catalog,
            "SELECT a, c, d, COUNT(*) AS n FROM R, S, T "
            "WHERE R.a = S.b AND S.c = T.d GROUP BY a, c, d",
        )
        syn = hist(
            [Dimension("R.a", 1, 10), Dimension("S.c", 1, 10)],
            [(1, 2), (1, 2), (1, 3), (4, 2)],
        )
        # d reads S.c, so it always equals c.
        assert estimate_groups(syn, spec) == {
            (1, 2, 2): {"n": 2.0},
            (1, 3, 3): {"n": 1.0},
            (4, 2, 2): {"n": 1.0},
        }


class TestMergeGroups:
    def test_counts_and_sums_add(self, paper_catalog):
        spec = spec_for(
            paper_catalog,
            "SELECT a, COUNT(*) AS n, SUM(c) AS s FROM R, S "
            "WHERE R.a = S.b GROUP BY a",
        )
        exact = {(1,): {"n": 2, "s": 10.0}}
        est = {(1,): {"n": 3.0, "s": 5.0}, (2,): {"n": 1.0, "s": 7.0}}
        merged = merge_groups(exact, est, spec)
        assert merged[(1,)] == {"n": 5.0, "s": 15.0}
        assert merged[(2,)] == {"n": 1.0, "s": 7.0}  # estimate-only group

    def test_min_max_extremes(self, paper_catalog):
        spec = spec_for(
            paper_catalog,
            "SELECT a, COUNT(*) AS n, MIN(c) AS lo, MAX(c) AS hi "
            "FROM R, S WHERE R.a = S.b GROUP BY a",
        )
        exact = {(1,): {"n": 1, "lo": 5.0, "hi": 6.0}}
        est = {(1,): {"n": 1.0, "lo": 2.0, "hi": 9.0}}
        merged = merge_groups(exact, est, spec)
        assert merged[(1,)]["lo"] == 2.0
        assert merged[(1,)]["hi"] == 9.0

    def test_avg_recombined_by_counts(self, paper_catalog):
        spec = spec_for(
            paper_catalog,
            "SELECT a, COUNT(*) AS n, AVG(c) AS m FROM R, S "
            "WHERE R.a = S.b GROUP BY a",
        )
        exact = {(1,): {"n": 2, "m": 10.0}}
        est = {(1,): {"n": 2.0, "m": 20.0}}
        merged = merge_groups(exact, est, spec)
        assert merged[(1,)]["m"] == pytest.approx(15.0)

    def test_avg_lone_side_passes_through(self, paper_catalog):
        spec = spec_for(
            paper_catalog,
            "SELECT a, COUNT(*) AS n, AVG(c) AS m FROM R, S "
            "WHERE R.a = S.b GROUP BY a",
        )
        # (0.1 * 3) / 3 rounds to 0.10000000000000002: a lone side's
        # average is carried as is, not rescaled by its count.
        exact = {(1,): {"n": 3, "m": 0.1}}
        est = {(2,): {"n": 3.0, "m": 0.7}}
        merged = merge_groups(exact, est, spec)
        assert merged[(1,)]["m"] == 0.1
        assert merged[(2,)]["m"] == 0.7

    def test_avg_without_count_rejected(self, paper_catalog):
        spec = spec_for(
            paper_catalog,
            "SELECT a, AVG(c) AS m FROM R, S WHERE R.a = S.b GROUP BY a",
        )
        with pytest.raises(RewriteError, match="COUNT"):
            merge_groups({(1,): {"m": 1.0}}, {(1,): {"m": 2.0}}, spec)

    def test_exact_only_passthrough(self, count_spec):
        merged = merge_groups({(1,): {"n": 4}}, {}, count_spec)
        assert merged == {(1,): {"n": 4.0}}

    def test_none_values(self, count_spec):
        merged = merge_groups({(1,): {"n": None}}, {}, count_spec)
        assert merged[(1,)]["n"] is None
