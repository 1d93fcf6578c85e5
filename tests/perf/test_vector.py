"""Vector kernels and the factored COUNT(*)-over-join pushdown.

The vectorized closures of :mod:`repro.perf.vector` re-target the scalar
SSA lowering at whole columns; every kernel must be value-identical to the
row-at-a-time closure it replaces, including SQL three-valued logic over
NULLs and per-row invocation of impure user functions.  The pushdown in
:class:`~repro.perf.compile._CAggregate` must be invisible too: same
groups, same counts, same first-occurrence order as the fused iterator.
"""

import random

import pytest

from repro.algebra import Multiset
from repro.engine.expressions import (
    BinaryOp,
    ColumnRef,
    FunctionCall,
    Literal,
    UnaryOp,
)
from repro.engine.types import Column, ColumnType, Schema
from repro.experiments import paper_catalog
from repro.perf.compile import compile_query, compile_scalar, compile_tuple
from repro.perf.vector import (
    compile_filter_vector,
    compile_tuple_vector,
    vector_source,
)
from repro.sql import Binder, parse_statement

SCHEMA = Schema(
    [
        Column("a", ColumnType.INTEGER),
        Column("b", ColumnType.INTEGER),
        Column("c", ColumnType.FLOAT),
    ]
)


def random_rows(rng, n=200):
    def val():
        return rng.choice([None, rng.randint(-5, 5), rng.randint(-5, 5)])

    return [(val(), val(), val()) for _ in range(n)]


def col(name):
    return ColumnRef(name)


EXPRS = [
    col("a"),
    Literal(3),
    BinaryOp("+", col("a"), col("b")),
    BinaryOp("*", BinaryOp("-", col("a"), Literal(1)), col("c")),
    UnaryOp("-", col("b")),
    BinaryOp("+", BinaryOp("+", col("a"), col("b")), BinaryOp("+", col("a"), col("b"))),
]

PREDS = [
    BinaryOp(">", col("a"), Literal(0)),
    BinaryOp("AND", BinaryOp(">", col("a"), Literal(-2)), BinaryOp("<=", col("b"), Literal(3))),
    BinaryOp("OR", BinaryOp("=", col("a"), col("b")), BinaryOp("<>", col("c"), Literal(1))),
    UnaryOp("NOT", BinaryOp("<", col("a"), col("c"))),
    Literal(True),
    Literal(False),
    BinaryOp("=", Literal(1), Literal(1)),
]


class TestKernelEquivalence:
    @pytest.mark.parametrize("pred", PREDS)
    def test_filter_vector_matches_scalar(self, pred):
        rows = random_rows(random.Random(3))
        scalar = compile_scalar(pred, SCHEMA)
        expected = [i for i, row in enumerate(rows) if scalar(row) is True]
        assert compile_filter_vector(pred, SCHEMA)(rows) == expected

    def test_tuple_vector_matches_scalar(self):
        rows = random_rows(random.Random(4))
        scalar = compile_tuple(EXPRS, SCHEMA)
        vector = compile_tuple_vector(EXPRS, SCHEMA)
        assert vector(rows) == [scalar(row) for row in rows]

    def test_empty_rows_and_empty_exprs(self):
        vector = compile_tuple_vector(EXPRS, SCHEMA)
        assert vector([]) == []
        assert compile_tuple_vector([], SCHEMA)([(1, 2, 3.0)]) == [()]
        assert compile_filter_vector(PREDS[0], SCHEMA)([]) == []

    def test_constant_predicate_is_folded(self):
        src_true = vector_source(compile_filter_vector(Literal(True), SCHEMA))
        src_false = vector_source(compile_filter_vector(Literal(False), SCHEMA))
        # Folded at compile time: no per-row work, no `x is True` on a literal.
        assert "range(len(rows))" in src_true
        assert "return []" in src_false

    def test_scalar_only_tuple_broadcasts(self):
        exprs = [Literal(7), BinaryOp("+", Literal(1), Literal(2))]
        vector = compile_tuple_vector(exprs, SCHEMA)
        assert vector([(0, 0, 0.0)] * 3) == [(7, 3)] * 3

    def test_impure_function_called_once_per_row(self):
        calls = []

        def tick():
            calls.append(1)
            return len(calls)

        expr = FunctionCall("tick", ())
        vector = compile_tuple_vector([expr], SCHEMA, {"tick": tick})
        rows = [(1, 2, 3.0)] * 5
        # Constant-argument calls must NOT be hoisted to once per batch.
        assert vector(rows) == [(1,), (2,), (3,), (4,), (5,)]
        assert len(calls) == 5

    def test_function_with_column_arg_matches_scalar(self):
        def double(x):
            return None if x is None else 2 * x

        expr = FunctionCall("double", (col("a"),))
        rows = random_rows(random.Random(5))
        scalar = compile_tuple([expr], SCHEMA, {"double": double})
        vector = compile_tuple_vector([expr], SCHEMA, {"double": double})
        assert vector(rows) == [scalar(row) for row in rows]


# ---------------------------------------------------------------------------
# Factored COUNT(*)-over-join pushdown
# ---------------------------------------------------------------------------
JOIN_SQL = "SELECT a, COUNT(*) AS n FROM R, S WHERE R.a = S.b GROUP BY a"


def join_inputs(rng, n=300):
    return {
        "r": Multiset([(rng.choice([None, rng.randint(0, 8)]),) for _ in range(n)]),
        "s": Multiset(
            [
                (rng.choice([None, rng.randint(0, 8)]), rng.randint(0, 99))
                for _ in range(n)
            ]
        ),
        "t": Multiset(),
    }


def compile_paper(sql):
    bound = Binder(paper_catalog()).bind(parse_statement(sql))
    return compile_query(bound, None)


class TestAggregatePushdown:
    def test_pushdown_eligibility_analysis(self):
        cq = compile_paper(JOIN_SQL)
        agg = cq.root
        # LIMIT/ORDER wrappers absent: root is the aggregate itself.
        assert type(agg).__name__ == "_CAggregate"
        assert agg.key_positions is not None
        assert all(p < len(agg.child.left.schema) for p in agg.key_positions)

    def test_pushdown_matches_iterate_exactly(self):
        rng = random.Random(11)
        for _ in range(5):
            cq = compile_paper(JOIN_SQL)
            inputs = join_inputs(rng)
            assert cq.root.batch(inputs) == list(cq.root.iterate(inputs))

    def test_pushdown_never_materializes_join_output(self, monkeypatch):
        from repro.perf import compile as compile_mod

        cq = compile_paper(JOIN_SQL)

        def boom(self, inputs):  # pragma: no cover - must not run
            raise AssertionError("join output was materialized")

        monkeypatch.setattr(compile_mod._CHashJoin, "batch", boom)
        inputs = join_inputs(random.Random(2))
        assert cq.root.batch(inputs)  # served via left_match_counts

    def test_left_match_counts_equals_fanout(self):
        cq = compile_paper(JOIN_SQL)
        join = cq.root.child
        inputs = join_inputs(random.Random(7))
        lrows, mult = join.left_match_counts(inputs)
        joined = join.batch(inputs)
        assert sum(mult) == len(joined)
        assert len(lrows) == len(mult)

    def test_three_way_join_count_star(self):
        # The paper query shape: keys still left-prefix after two joins.
        sql = (
            "SELECT a, COUNT(*) AS n FROM R, S, T "
            "WHERE R.a = S.b AND S.c = T.d GROUP BY a"
        )
        rng = random.Random(13)
        cq = compile_paper(sql)
        inputs = {
            "r": Multiset([(rng.randint(0, 5),) for _ in range(100)]),
            "s": Multiset(
                [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(100)]
            ),
            "t": Multiset([(rng.randint(0, 5),) for _ in range(100)]),
        }
        assert cq.root.batch(inputs) == list(cq.root.iterate(inputs))

    def test_non_countstar_aggregate_not_factored(self):
        sql = "SELECT a, SUM(c) AS s FROM R, S WHERE R.a = S.b GROUP BY a"
        cq = compile_paper(sql)
        inputs = join_inputs(random.Random(17))
        assert cq.root.batch(inputs) == list(cq.root.iterate(inputs))

    def test_empty_sides(self):
        cq = compile_paper(JOIN_SQL)
        empty = {"r": Multiset(), "s": Multiset(), "t": Multiset()}
        assert cq.root.batch(empty) == []
        one_side = {
            "r": Multiset([(1,)]),
            "s": Multiset(),
            "t": Multiset(),
        }
        assert cq.root.batch(one_side) == []
