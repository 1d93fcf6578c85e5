"""Vector kernels and the factored COUNT(*)-over-join pushdown.

The vector kernels of :mod:`repro.perf.vector` are the only thing a
compiled plan executes; every kernel must be value-identical to the
interpreted ``Expression.bind`` closure evaluated row by row, including SQL
three-valued logic over NULLs and per-row invocation of impure user
functions.  The pushdown in :class:`~repro.perf.compile._CAggregate` must
be invisible too: same groups, same counts, same first-occurrence order as
the interpreted executor.
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
from repro.engine import QueryExecutor
from repro.engine.types import Column, ColumnType, Schema
from repro.experiments import paper_catalog
from repro.perf.compile import compile_query
from repro.perf.vector import (
    compile_filter_vector,
    compile_scalar,
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
        interpreted = pred.bind(SCHEMA)
        expected = [i for i, row in enumerate(rows) if interpreted(row) is True]
        assert compile_filter_vector(pred, SCHEMA)(rows) == expected
        scalar = compile_scalar(pred, SCHEMA)
        assert [scalar(row) for row in rows] == [interpreted(row) for row in rows]

    def test_tuple_vector_matches_scalar(self):
        rows = random_rows(random.Random(4))
        evals = [e.bind(SCHEMA) for e in EXPRS]
        vector = compile_tuple_vector(EXPRS, SCHEMA)
        assert vector(rows) == [tuple(ev(row) for ev in evals) for row in rows]

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
        scalar = expr.bind(SCHEMA, {"double": double})
        vector = compile_tuple_vector([expr], SCHEMA, {"double": double})
        assert vector(rows) == [(scalar(row),) for row in rows]


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


def assert_matches_interpreter(sql, inputs):
    """Compiled == interpreted: bag, schema, and (through LIMIT) row order.

    A LIMIT without ORDER BY keeps the plan's own emission order in
    ``ordered_rows``, so the second pass pins probe / group
    first-occurrence order, not just the bag.
    """
    catalog = paper_catalog()
    interpreter = QueryExecutor(catalog, compiled=False)
    for text in (sql, sql + " LIMIT 100000"):
        bound = Binder(catalog).bind(parse_statement(text))
        got = compile_query(bound, catalog.functions).execute(inputs)
        want = interpreter.execute(bound, inputs)
        assert got.rows == want.rows, text
        assert got.schema.names == want.schema.names, text
        assert got.ordered_rows == want.ordered_rows, text
    assert want.ordered_rows  # the LIMIT pass really compared an order


class TestAggregatePushdown:
    def test_pushdown_eligibility_analysis(self):
        cq = compile_paper(JOIN_SQL)
        agg = cq.root
        # LIMIT/ORDER wrappers absent: root is the aggregate itself.
        assert type(agg).__name__ == "_CAggregate"
        assert agg.key_positions is not None
        assert all(p < len(agg.child.left.schema) for p in agg.key_positions)

    def test_pushdown_matches_interpreter_exactly(self):
        rng = random.Random(11)
        for _ in range(5):
            assert_matches_interpreter(JOIN_SQL, join_inputs(rng))

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
        inputs = {
            "r": Multiset([(rng.randint(0, 5),) for _ in range(100)]),
            "s": Multiset(
                [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(100)]
            ),
            "t": Multiset([(rng.randint(0, 5),) for _ in range(100)]),
        }
        assert_matches_interpreter(sql, inputs)

    def test_non_countstar_aggregate_not_factored(self):
        sql = "SELECT a, SUM(c) AS s FROM R, S WHERE R.a = S.b GROUP BY a"
        assert_matches_interpreter(sql, join_inputs(random.Random(17)))

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


# ---------------------------------------------------------------------------
# One execution face
# ---------------------------------------------------------------------------
class TestOneFace:
    def test_vector_compile_error_sends_query_to_interpreter(self, monkeypatch):
        """There is no scalar closure to retreat to: a kernel that cannot be
        generated fails the plan, and the executor answers interpreted."""
        from repro.perf import compile as compile_mod
        from repro.perf.vector import CompileError

        def refuse(expr, schema, functions=None):
            raise CompileError("no vector kernel")

        monkeypatch.setattr(compile_mod, "compile_filter_vector", refuse)
        catalog = paper_catalog()
        sql = "SELECT a, c FROM R, S WHERE R.a = S.b AND S.c > 20"
        bound = Binder(catalog).bind(parse_statement(sql))
        inputs = join_inputs(random.Random(23))
        executor = QueryExecutor(catalog)
        got = executor.execute(bound, inputs)
        assert executor._compiled_plan(bound) is None
        assert executor._fallback_reason(bound) == "CompileError: no vector kernel"
        want = QueryExecutor(catalog, compiled=False).execute(bound, inputs)
        assert got.rows == want.rows and len(got.rows) > 0
        assert got.schema.names == want.schema.names

    def test_every_compiled_node_defines_batch_and_none_iterate(self):
        from repro.perf.compile import CompiledNode

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        nodes = list(subclasses(CompiledNode))
        assert len(nodes) >= 8
        for node in nodes:
            assert "batch" in vars(node), node.__name__
        for node in [CompiledNode, *nodes]:
            assert not hasattr(node, "iterate"), node.__name__
