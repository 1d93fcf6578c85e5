"""Tests for the programmatic shadow plan over synopses."""

import pytest

from repro.algebra import Multiset
from repro.rewrite import (
    RangeSelection,
    RewriteError,
    ShadowPlan,
    SPJPlan,
    evaluate_exact,
    evaluate_expansion,
)
from repro.rewrite.shadow import _compile_selection
from repro.sql import Binder, parse_statement
from repro.synopses import Dimension, SparseCubicHistogram

QUERY = "SELECT * FROM R, S, T WHERE R.a = S.b AND S.c = T.d;"

DIMS = {
    "R": [Dimension("R.a", 1, 12)],
    "S": [Dimension("S.b", 1, 12), Dimension("S.c", 1, 12)],
    "T": [Dimension("T.d", 1, 12)],
}


def plan_for(catalog, sql=QUERY):
    return SPJPlan.from_bound(Binder(catalog).bind(parse_statement(sql)))


def synopsize(bags, width=1):
    out = {}
    for name, bag in bags.items():
        syn = SparseCubicHistogram(DIMS[name], bucket_width=width)
        syn.insert_many(bag)
        out[name] = syn
    return out


def random_data(rng, n=60):
    return {
        "R": Multiset((rng.randint(1, 12),) for _ in range(n)),
        "S": Multiset((rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)),
        "T": Multiset((rng.randint(1, 12),) for _ in range(n)),
    }


def random_split(full, rng, keep_p=0.6):
    kept, dropped = {}, {}
    for name, rel in full.items():
        k, d = Multiset(), Multiset()
        for row in rel:
            (k if rng.random() < keep_p else d).add(row)
        kept[name], dropped[name] = k, d
    return kept, dropped


class TestShadowEstimates:
    def test_width1_estimate_is_exact(self, paper_catalog, rng):
        """With value-resolution histograms the shadow estimate equals the
        true count of lost results."""
        plan = plan_for(paper_catalog)
        shadow = ShadowPlan(plan)
        full = random_data(rng)
        kept, dropped = random_split(full, rng)
        est = shadow.estimate_dropped(synopsize(kept), synopsize(dropped))
        true_lost = evaluate_expansion(plan, kept, dropped)
        assert est.total() == pytest.approx(len(true_lost), rel=1e-9)

    def test_width1_group_counts_exact(self, paper_catalog, rng):
        plan = plan_for(paper_catalog)
        shadow = ShadowPlan(plan)
        full = random_data(rng)
        kept, dropped = random_split(full, rng)
        est = shadow.estimate_dropped(synopsize(kept), synopsize(dropped))
        true_lost = evaluate_expansion(plan, kept, dropped)
        from collections import Counter

        by_a = Counter(row[0] for row in true_lost)
        gc = est.group_counts("R.a")
        for v in range(1, 13):
            assert gc.get(v, 0.0) == pytest.approx(by_a.get(v, 0), abs=1e-6)

    def test_coarse_buckets_approximate(self, paper_catalog, rng):
        plan = plan_for(paper_catalog)
        shadow = ShadowPlan(plan)
        full = random_data(rng, n=200)
        kept, dropped = random_split(full, rng)
        est = shadow.estimate_dropped(
            synopsize(kept, width=4), synopsize(dropped, width=4)
        )
        true_lost = len(evaluate_expansion(plan, kept, dropped))
        assert est.total() == pytest.approx(true_lost, rel=0.5)

    def test_estimate_full_matches_whole_query(self, paper_catalog, rng):
        plan = plan_for(paper_catalog)
        shadow = ShadowPlan(plan)
        full = random_data(rng)
        est = shadow.estimate_dropped({}, synopsize(full))
        assert est.total() == pytest.approx(
            len(evaluate_exact(plan, full)), rel=1e-9
        )

    def test_none_channels_tolerated(self, paper_catalog, rng):
        plan = plan_for(paper_catalog)
        shadow = ShadowPlan(plan)
        full = random_data(rng)
        kept = synopsize(full)
        nothing = {name: None for name in full}
        # Nothing dropped anywhere -> no lost results.
        assert shadow.estimate_dropped(kept, nothing) is None

    def test_all_dropped(self, paper_catalog, rng):
        plan = plan_for(paper_catalog)
        shadow = ShadowPlan(plan)
        full = random_data(rng)
        nothing = {name: None for name in full}
        est = shadow.estimate_dropped(nothing, synopsize(full))
        assert est.total() == pytest.approx(
            len(evaluate_exact(plan, full)), rel=1e-9
        )


class TestSelections:
    def test_local_predicate_respected(self, paper_catalog, rng):
        plan = plan_for(
            paper_catalog,
            "SELECT * FROM R, S WHERE R.a = S.b AND S.c > 6",
        )
        shadow = ShadowPlan(plan)
        full = {k: random_data(rng)[k] for k in ("R", "S")}
        kept, dropped = random_split(full, rng)
        syn_k = {n: synopsize({n: kept[n]})[n] for n in kept}
        syn_d = {n: synopsize({n: dropped[n]})[n] for n in dropped}
        est = shadow.estimate_dropped(syn_k, syn_d)
        true_lost = evaluate_expansion(plan, kept, dropped)
        total = est.total() if est is not None else 0.0
        assert total == pytest.approx(len(true_lost), rel=1e-9)

    @pytest.mark.parametrize(
        "sql_pred,lo,hi",
        [
            ("a = 5", 5, 5),
            ("a < 5", float("-inf"), 4),
            ("a <= 5", float("-inf"), 5),
            ("a > 5", 6, float("inf")),
            ("a >= 5", 5, float("inf")),
            ("5 > a", float("-inf"), 4),  # reversed operands
        ],
    )
    def test_compile_selection(self, sql_pred, lo, hi):
        stmt = parse_statement(f"SELECT * FROM R WHERE {sql_pred}")
        sel = _compile_selection("R", stmt.where)
        assert isinstance(sel, RangeSelection)
        assert sel.dim == "R.a"
        assert (sel.lo, sel.hi) == (lo, hi)

    def test_unsupported_selection_rejected(self, paper_catalog):
        with pytest.raises(RewriteError, match="unsupported shadow selection"):
            plan = plan_for(
                paper_catalog,
                "SELECT * FROM R, S WHERE R.a = S.b AND S.c + 1 > 6",
            )
            ShadowPlan(plan)

    def test_contradictory_selection_yields_none(self, paper_catalog, rng):
        plan = plan_for(
            paper_catalog,
            "SELECT * FROM R, S WHERE R.a = S.b AND S.c > 100",
        )
        shadow = ShadowPlan(plan)
        full = {k: random_data(rng)[k] for k in ("R", "S")}
        syn = {n: synopsize({n: full[n]})[n] for n in full}
        # c ranges 1..12 (< 101): the selection empties the channel.
        assert shadow.estimate_dropped({}, syn) is None
