"""Tests for composite-key (multi-predicate) joins in shadow plans."""

import pytest

from repro.algebra import Multiset
from repro.engine import ColumnType, Schema
from repro.rewrite import (
    ShadowPlan,
    SPJPlan,
    evaluate_exact,
    evaluate_expansion,
)
from repro.sql import Binder, parse_statement
from repro.synopses import (
    CountMinSynopsis,
    Dimension,
    SparseCubicHistogram,
    SynopsisError,
)

# S and U join on BOTH columns: a composite key.
QUERY = "SELECT * FROM S, U WHERE S.b = U.x AND S.c = U.y;"


@pytest.fixture
def catalog(paper_catalog):
    paper_catalog.create_stream(
        "U", Schema.of(("x", ColumnType.INTEGER), ("y", ColumnType.INTEGER))
    )
    return paper_catalog


@pytest.fixture
def plan(catalog):
    return SPJPlan.from_bound(Binder(catalog).bind(parse_statement(QUERY)))


DIMS = {
    "S": [Dimension("S.b", 1, 6), Dimension("S.c", 1, 6)],
    "U": [Dimension("U.x", 1, 6), Dimension("U.y", 1, 6)],
}


def synopsize(bags, width=1):
    out = {}
    for name, bag in bags.items():
        syn = SparseCubicHistogram(DIMS[name], bucket_width=width)
        syn.insert_many(bag)
        out[name] = syn
    return out


def random_data(rng, n=40):
    g = lambda: rng.randint(1, 6)
    return {
        "S": Multiset((g(), g()) for _ in range(n)),
        "U": Multiset((g(), g()) for _ in range(n)),
    }


def random_split(full, rng, keep_p=0.6):
    kept, dropped = {}, {}
    for name, rel in full.items():
        k, d = Multiset(), Multiset()
        for row in rel:
            (k if rng.random() < keep_p else d).add(row)
        kept[name], dropped[name] = k, d
    return kept, dropped


class TestMultiKeySynopsisJoin:
    def test_width1_composite_join_exact(self, rng):
        full = random_data(rng)
        s = SparseCubicHistogram(DIMS["S"], bucket_width=1)
        u = SparseCubicHistogram(DIMS["U"], bucket_width=1)
        s.insert_many(full["S"])
        u.insert_many(full["U"])
        j = s.equijoin_multi(u, [("S.b", "U.x"), ("S.c", "U.y")])
        from repro.algebra import equijoin

        exact = equijoin(full["S"], full["U"], [0, 1], [0, 1])
        assert j.total() == pytest.approx(len(exact), rel=1e-9)
        assert j.dim_names == ("S.b", "S.c")  # both U join dims removed

    def test_coarse_composite_join_divides_by_cell_product(self):
        s = SparseCubicHistogram(DIMS["S"], bucket_width=3)
        u = SparseCubicHistogram(DIMS["U"], bucket_width=3)
        for _ in range(9):
            s.insert((1, 1))
        for _ in range(18):
            u.insert((2, 2))
        j = s.equijoin_multi(u, [("S.b", "U.x"), ("S.c", "U.y")])
        # One shared bucket covering 3x3 value cells: 9*18/(3*3) = 18.
        assert j.total() == pytest.approx(18.0)

    def test_single_pair_delegates(self, rng):
        s = SparseCubicHistogram(DIMS["S"], bucket_width=1)
        u = SparseCubicHistogram(DIMS["U"], bucket_width=1)
        s.insert((1, 2))
        u.insert((1, 5))
        j = s.equijoin_multi(u, [("S.b", "U.x")])
        assert j.total() == pytest.approx(s.equijoin(u, "S.b", "U.x").total())

    def test_unsupported_family_raises(self):
        a = CountMinSynopsis(DIMS["S"])
        b = CountMinSynopsis(DIMS["U"])
        a.insert((1, 1))
        b.insert((1, 1))
        with pytest.raises(SynopsisError, match="multi-key"):
            a.equijoin_multi(b, [("S.b", "U.x"), ("S.c", "U.y")])


class TestCompositeKeyShadow:
    def test_compiles_flat(self, plan):
        shadow = ShadowPlan(plan)
        assert not shadow.nested
        assert shadow.links[1].key_pairs == (
            ("S.b", "U.x"),
            ("S.c", "U.y"),
        )

    def test_estimate_exact_at_width1(self, plan, rng):
        full = random_data(rng)
        kept, dropped = random_split(full, rng)
        shadow = ShadowPlan(plan)
        est = shadow.estimate_dropped(synopsize(kept), synopsize(dropped))
        true_lost = evaluate_expansion(plan, kept, dropped)
        total = est.total() if est is not None else 0.0
        assert total == pytest.approx(len(true_lost), rel=1e-9)

    def test_estimate_full_exact_at_width1(self, plan, rng):
        full = random_data(rng)
        shadow = ShadowPlan(plan)
        est = shadow.estimate_dropped({}, synopsize(full))
        assert est.total() == pytest.approx(
            len(evaluate_exact(plan, full)), rel=1e-9
        )
