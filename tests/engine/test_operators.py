"""Tests for the interpreted operator tree that ``tests/oracle/`` keeps.

Every compiled-plan equivalence test compares against these operators, so
their textbook semantics (bag multiplicities, NULL handling, aggregate
rules) are pinned here one node at a time.
"""

import pytest

from repro.algebra import Multiset
from repro.engine import (
    AggregateSpec,
    BinaryOp,
    ColumnRef,
    ColumnType,
    Literal,
    Schema,
)
from tests.oracle.operators import (
    Filter,
    HashAggregate,
    HashJoin,
    NestedLoopJoin,
    Project,
    Scan,
    UnionAll,
)

AB = Schema.of(("a", ColumnType.INTEGER), ("b", ColumnType.INTEGER))
C = Schema.of(("c", ColumnType.INTEGER))


def bag(op):
    return op.to_multiset()


class TestScanFilterProject:
    def test_scan_yields_rows_with_multiplicity(self):
        rows = Multiset([(1, 2), (1, 2)])
        assert bag(Scan(rows, AB)) == rows

    def test_scan_accepts_iterable(self):
        assert len(bag(Scan([(1, 2)], AB))) == 1

    def test_filter_true_only(self):
        scan = Scan([(1, 2), (3, 4)], AB)
        out = bag(Filter(scan, BinaryOp(">", ColumnRef("a"), Literal(2))))
        assert out == Multiset([(3, 4)])

    def test_filter_null_predicate_excludes(self):
        scan = Scan([(None, 2)], AB)
        out = bag(Filter(scan, BinaryOp(">", ColumnRef("a"), Literal(0))))
        assert len(out) == 0

    def test_project_expressions(self):
        scan = Scan([(1, 2)], AB)
        op = Project(
            scan,
            [("sum", BinaryOp("+", ColumnRef("a"), ColumnRef("b"))), ("a", ColumnRef("a"))],
        )
        assert bag(op) == Multiset([(3, 1)])
        assert op.schema.names == ("sum", "a")

    def test_project_keeps_duplicates(self):
        scan = Scan([(1, 2), (1, 3)], AB)
        out = bag(Project(scan, [("a", ColumnRef("a"))]))
        assert out.multiplicity((1,)) == 2


class TestJoins:
    def test_hash_join_basic(self):
        left = Scan([(1, 10), (2, 20)], AB)
        right = Scan([(1,), (1,)], C)
        out = bag(HashJoin(left, right, ["a"], ["c"]))
        assert out.multiplicity((1, 10, 1)) == 2
        assert len(out) == 2

    def test_hash_join_null_keys_never_match(self):
        left = Scan([(None, 10)], AB)
        right = Scan([(None,)], C)
        assert len(bag(HashJoin(left, right, ["a"], ["c"]))) == 0

    def test_hash_join_label_qualification(self):
        left = Scan([(1, 2)], AB)
        right = Scan([(1,)], C)
        op = HashJoin(left, right, ["a"], ["c"], left_label="L", right_label="R")
        assert op.schema.names == ("L.a", "L.b", "R.c")

    def test_hash_join_key_mismatch(self):
        with pytest.raises(ValueError):
            HashJoin(Scan([], AB), Scan([], C), ["a", "b"], ["c"])

    def test_nested_loop_theta(self):
        left = Scan([(1, 0), (5, 0)], AB)
        right = Scan([(3,)], C)
        pred = BinaryOp("<", ColumnRef("a"), ColumnRef("c"))
        out = bag(NestedLoopJoin(left, right, pred))
        assert out == Multiset([(1, 0, 3)])

    def test_nested_loop_cross(self):
        out = bag(NestedLoopJoin(Scan([(1, 2)], AB), Scan([(9,), (8,)], C)))
        assert len(out) == 2


class TestAggregates:
    def make(self, rows, aggs, group=("a",)):
        scan = Scan(rows, AB)
        group_by = [(g, ColumnRef(g)) for g in group]
        return bag(HashAggregate(scan, group_by, aggs))

    def test_count_star(self):
        out = self.make(
            [(1, 10), (1, 20), (2, 30)],
            [AggregateSpec("count", None, "n")],
        )
        assert out == Multiset([(1, 2), (2, 1)])

    def test_count_column_ignores_null(self):
        out = self.make(
            [(1, None), (1, 5)],
            [AggregateSpec("count", ColumnRef("b"), "n")],
        )
        assert out == Multiset([(1, 1)])

    def test_sum_avg_min_max(self):
        out = self.make(
            [(1, 10), (1, 20)],
            [
                AggregateSpec("sum", ColumnRef("b"), "s"),
                AggregateSpec("avg", ColumnRef("b"), "m"),
                AggregateSpec("min", ColumnRef("b"), "lo"),
                AggregateSpec("max", ColumnRef("b"), "hi"),
            ],
        )
        assert out == Multiset([(1, 30.0, 15.0, 10, 20)])

    def test_all_null_group_aggregates_to_none(self):
        out = self.make(
            [(1, None)],
            [AggregateSpec("sum", ColumnRef("b"), "s")],
        )
        assert out == Multiset([(1, None)])

    def test_empty_input_no_groups(self):
        out = self.make([], [AggregateSpec("count", None, "n")])
        assert len(out) == 0

    def test_scalar_aggregate_no_group_by(self):
        scan = Scan([(1, 2), (3, 4)], AB)
        out = bag(HashAggregate(scan, [], [AggregateSpec("count", None, "n")]))
        assert out == Multiset([(2,)])

    def test_invalid_aggregate_function(self):
        with pytest.raises(ValueError, match="unsupported aggregate"):
            AggregateSpec("median", ColumnRef("b"), "x")

    def test_star_only_for_count(self):
        with pytest.raises(ValueError):
            AggregateSpec("sum", None, "x")

    def test_output_schema(self):
        scan = Scan([], AB)
        op = HashAggregate(
            scan, [("a", ColumnRef("a"))], [AggregateSpec("count", None, "n")]
        )
        assert op.schema.names == ("a", "n")
        assert op.schema.column("n").type is ColumnType.INTEGER


class TestUnionAll:
    def test_concatenates(self):
        out = bag(UnionAll([Scan([(1,)], C), Scan([(1,), (2,)], C)]))
        assert out.multiplicity((1,)) == 2
        assert len(out) == 3

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            UnionAll([Scan([], C), Scan([], AB)])

    def test_empty_children_list(self):
        with pytest.raises(ValueError):
            UnionAll([])
