"""The COUNT(*) pushdown reads its bags counted, and nothing shows.

A pure ``COUNT(*)`` grouped on the left side of a hash join counts each
distinct left row's fan-out from ``(distinct rows, multiplicities)`` pairs:
scans hand over a bag's pairs, filters keep the multiplicities and joins
multiply them.  COUNT is integer arithmetic and first occurrences keep
their order, so for any bags (duplicates, NULL keys), any join shape (2- to
4-way chains and stars, composite keys) and any local or residual filter,
the plan's rows *and group order* must equal those of its row-expanding
``batch`` path and of the interpreted oracle.  The depth histogram's
counted input is held to its expanded form the same way.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import Multiset
from repro.engine import QueryExecutor
from repro.engine.catalog import Catalog
from repro.engine.types import ColumnType, Schema
from repro.obs.metrics import MetricsRegistry
from repro.perf.compile import _CAggregate, _CHashJoin
from repro.sql import Binder, parse_statement
from tests.oracle import OracleExecutor

TABLES = ("W", "X", "Y", "Z")


def col(table: str, c: str) -> str:
    """``table``'s key (``c="k"``) or value column, qualified."""
    return f"{table}.{table.lower()}{c}"


def catalog() -> Catalog:
    cat = Catalog()
    for name in TABLES:
        low = name.lower()
        cat.create_stream(
            name,
            Schema.of((f"{low}k", ColumnType.INTEGER), (f"{low}v", ColumnType.INTEGER)),
        )
    return cat


CATALOG = catalog()
value = st.sampled_from([None, 0, 1, 2, 3])
bag = st.lists(
    st.tuples(st.tuples(value, value), st.integers(1, 3)), max_size=8
).map(lambda pairs: Multiset([row for row, n in pairs for _ in range(n)]))


@st.composite
def counted_queries(draw):
    """A pure COUNT(*) over a 2-4-way chain or star join of W, X, Y, Z."""
    n = draw(st.integers(2, 4))
    tables = TABLES[:n]
    star = draw(st.booleans())
    preds = []
    for i in range(1, n):
        left = tables[0] if star else tables[i - 1]
        right = tables[i]
        preds.append(f"{col(left, 'k')} = {col(right, 'k')}")
        if draw(st.booleans()):  # a composite key
            preds.append(f"{col(left, 'v')} = {col(right, 'v')}")
    if draw(st.booleans()):  # a local filter below the joins
        table = draw(st.sampled_from(tables))
        v = col(table, "v")
        preds.append(draw(st.sampled_from([f"{v} > 0", f"{v} <> 2"])))
    if draw(st.booleans()):  # a residual filter above them
        preds.append(f"{col(tables[0], 'v')} + {col(tables[-1], 'v')} > 2")
    # Group columns the top join's left side holds (every table but the
    # last), so the pushdown applies unless a residual filter is in the way.
    group = draw(
        st.lists(
            st.sampled_from([col(t, c) for t in tables[:-1] for c in "kv"]),
            unique=True,
            max_size=2,
        )
    )
    select = ", ".join(
        [f"{g} AS g{i}" for i, g in enumerate(group)] + ["COUNT(*) AS n"]
    )
    sql = f"SELECT {select} FROM {', '.join(tables)} WHERE {' AND '.join(preds)}"
    if group:
        sql += f" GROUP BY {', '.join(group)}"
    return sql


@settings(max_examples=300, deadline=None)
@given(
    sql=counted_queries(),
    inputs=st.fixed_dictionaries({name.lower(): bag for name in TABLES}),
)
def test_counted_count_star_equals_the_expanded_plans(sql, inputs):
    bound = Binder(CATALOG).bind(parse_statement(sql))
    executor = QueryExecutor(CATALOG)
    root = executor.plan(bound).root
    assert isinstance(root, _CAggregate)
    rows = root.batch(inputs)
    # The row-expanding path: the aggregate's child batch, counted by key.
    expanded = root.child.batch(inputs)
    want = [key + (c,) for key, c in Counter(root.vrow_fn(expanded)).items()]
    assert rows == want
    if isinstance(root.child, _CHashJoin):
        # The pushdown ran on counted inputs: every left row it returned
        # is distinct, and the fan-outs add up to the join's size.
        lrows, mult = root.child.left_match_counts(inputs)
        assert len(set(lrows)) == len(lrows)
        assert sum(mult) == len(expanded)
        assert root.child.counted(inputs)[0] == list(dict.fromkeys(expanded))
    oracle = OracleExecutor(CATALOG).execute(bound, inputs)
    assert executor.execute(bound, inputs).rows == oracle.rows
    assert list(Multiset(rows).distinct_counts()[0]) == list(
        oracle.rows.distinct_counts()[0]
    )


@settings(max_examples=200, deadline=None)
@given(
    counts=st.dictionaries(st.integers(0, 3000), st.integers(1, 50), max_size=40)
)
def test_observe_counts_equals_observe_many_expanded(counts):
    reg = MetricsRegistry()
    counted = reg.histogram("counted", "depths", ("stream",))
    expanded = reg.histogram("expanded", "depths", ("stream",))
    counted.observe_counts(counts, stream="R")
    expanded.observe_many(
        [depth for depth, c in counts.items() for _ in range(c)], stream="R"
    )
    assert counted._counts == expanded._counts
    assert counted.sum(stream="R") == expanded.sum(stream="R")
    assert counted.count(stream="R") == expanded.count(stream="R")
    assert counted._snapshot() == expanded._snapshot()
