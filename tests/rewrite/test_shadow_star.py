"""Tests for flat-mode shadow plans over star-shaped join graphs."""

import pytest

from repro.algebra import Multiset
from repro.engine import ColumnType, Schema
from repro.rewrite import (
    RewriteError,
    ShadowPlan,
    SPJPlan,
    evaluate_exact,
    evaluate_expansion,
    shadow_view,
)
from repro.sql import Binder, parse_statement
from repro.synopses import Dimension, SparseCubicHistogram

# Star: R is the hub; S joins on R.a, T joins on R.x (not on S).
STAR_QUERY = "SELECT * FROM R, S, T WHERE R.a = S.b AND R.x = T.y;"


@pytest.fixture
def catalog(paper_catalog):
    paper_catalog.create_stream(
        "R",
        Schema.of(("a", ColumnType.INTEGER), ("x", ColumnType.INTEGER)),
        replace=True,
    )
    paper_catalog.create_stream(
        "T", Schema.of(("y", ColumnType.INTEGER)), replace=True
    )
    return paper_catalog


@pytest.fixture
def plan(catalog):
    return SPJPlan.from_bound(Binder(catalog).bind(parse_statement(STAR_QUERY)))


DIMS = {
    "R": [Dimension("R.a", 1, 8), Dimension("R.x", 1, 8)],
    "S": [Dimension("S.b", 1, 8), Dimension("S.c", 1, 8)],
    "T": [Dimension("T.y", 1, 8)],
}


def synopsize(bags):
    out = {}
    for name, bag in bags.items():
        syn = SparseCubicHistogram(DIMS[name], bucket_width=1)
        syn.insert_many(bag)
        out[name] = syn
    return out


def random_data(rng, n=40):
    g = lambda: rng.randint(1, 8)
    return {
        "R": Multiset((g(), g()) for _ in range(n)),
        "S": Multiset((g(), g()) for _ in range(n)),
        "T": Multiset((g(),) for _ in range(n)),
    }


def random_split(full, rng, keep_p=0.6):
    kept, dropped = {}, {}
    for name, rel in full.items():
        k, d = Multiset(), Multiset()
        for row in rel:
            (k if rng.random() < keep_p else d).add(row)
        kept[name], dropped[name] = k, d
    return kept, dropped


class TestStarShadow:
    def test_compiles_in_flat_mode(self, plan):
        shadow = ShadowPlan(plan)
        assert not shadow.nested
        assert shadow.links[2].left_keys == ("R.x",)  # joins the hub, not S

    def test_sql_view_uses_flat_form(self, plan):
        from repro.sql import parse_statement as reparse
        from repro.sql import render_statement

        sql = render_statement(shadow_view(plan))
        # Flat form: one term per relation, unioned; the T term joins the
        # hub's R.x, not anything of S.
        assert "'R.x'" in sql
        assert sql.count("union(") >= 3
        reparse(sql)  # still valid SQL

    def test_flat_estimate_exact_at_width1(self, plan, rng):
        full = random_data(rng)
        kept, dropped = random_split(full, rng)
        shadow = ShadowPlan(plan)
        est = shadow.estimate_dropped(synopsize(kept), synopsize(dropped))
        true_lost = evaluate_expansion(plan, kept, dropped)
        total = est.total() if est is not None else 0.0
        assert total == pytest.approx(len(true_lost), rel=1e-9)

    def test_flat_estimate_full_exact_at_width1(self, plan, rng):
        full = random_data(rng)
        shadow = ShadowPlan(plan)
        est = shadow.estimate_dropped({}, synopsize(full))
        assert est.total() == pytest.approx(
            len(evaluate_exact(plan, full)), rel=1e-9
        )

    def test_flat_group_counts_exact(self, plan, rng):
        from collections import Counter

        full = random_data(rng)
        kept, dropped = random_split(full, rng)
        shadow = ShadowPlan(plan)
        est = shadow.estimate_dropped(synopsize(kept), synopsize(dropped))
        true_lost = evaluate_expansion(plan, kept, dropped)
        by_a = Counter(row[0] for row in true_lost)  # R.a is column 0
        gc = est.group_counts("R.a")
        for v in range(1, 9):
            assert gc.get(v, 0.0) == pytest.approx(by_a.get(v, 0), abs=1e-6)

    def test_none_channels(self, plan, rng):
        full = random_data(rng)
        shadow = ShadowPlan(plan)
        nothing = {name: None for name in full}
        assert shadow.estimate_dropped(synopsize(full), nothing) is None
        est = shadow.estimate_dropped(nothing, synopsize(full))
        assert est.total() == pytest.approx(
            len(evaluate_exact(plan, full)), rel=1e-9
        )

    def test_path_queries_still_use_nested_mode(self, paper_catalog):
        plan = SPJPlan.from_bound(
            Binder(paper_catalog).bind(
                parse_statement(
                    "SELECT * FROM R, S, T WHERE R.a = S.b AND S.c = T.d"
                )
            )
        )
        assert ShadowPlan(plan).nested


class TestStarPipeline:
    def test_end_to_end_star_query(self, catalog, rng):
        """The full pipeline handles star queries via the flat shadow mode."""
        from repro.core import DataTriagePipeline, PipelineConfig, ShedStrategy
        from repro.engine import StreamTuple, WindowSpec
        from repro.quality import run_rms

        def gauss():
            return min(100, max(1, int(rng.gauss(50, 15))))

        streams = {
            "R": [StreamTuple(i / 300, (gauss(), gauss())) for i in range(300)],
            "S": [StreamTuple(i / 300, (gauss(), gauss())) for i in range(300)],
            "T": [StreamTuple(i / 300, (gauss(),)) for i in range(300)],
        }
        results = {}
        for strategy in (ShedStrategy.DATA_TRIAGE, ShedStrategy.DROP_ONLY):
            config = PipelineConfig(
                strategy=strategy,
                window=WindowSpec(width=0.5),
                queue_capacity=25,
                service_time=1 / 300.0,
                seed=2,
            )
            pipeline = DataTriagePipeline(
                catalog,
                "SELECT a, COUNT(*) AS n FROM R, S, T "
                "WHERE R.a = S.b AND R.x = T.y GROUP BY a;",
                config,
            )
            results[strategy] = pipeline.run(streams)
        assert results[ShedStrategy.DATA_TRIAGE].total_dropped > 0
        assert run_rms(results[ShedStrategy.DATA_TRIAGE]) < run_rms(
            results[ShedStrategy.DROP_ONLY]
        )
