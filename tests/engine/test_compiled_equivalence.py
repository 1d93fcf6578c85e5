"""Compiled plans must be invisible: byte-identical to the reference tree.

The executor runs every query as a compiled plan (:mod:`repro.perf.compile`),
a pure performance layer: each query must produce exactly the rows, schema,
and ordering the interpreted operator tree kept in ``tests/oracle/``
produces, including SQL three-valued logic over NULLs.  These tests pin that
contract three ways: a fixed corpus of feature-covering queries, a
randomized SPJ corpus, and full Figure 8/9 pipeline runs with the oracle in
the pipeline's executor slot.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra import Multiset
from repro.core.pipeline import DataTriagePipeline
from repro.core.strategies import PipelineConfig, ShedStrategy
from repro.engine import QueryExecutor, WindowSpec
from repro.experiments import (
    PAPER_QUERY,
    STREAM_NAMES,
    ExperimentParams,
    paper_catalog,
)
from repro.sources.arrival import MarkovBurstArrival, SteadyArrival, generate_stream
from repro.sources.generators import paper_row_generators
from repro.sql import Binder, parse_statement
from tests.oracle import OracleExecutor


def assert_equivalent(catalog, sql, inputs):
    """Execute ``sql`` both ways; results must match in every observable."""
    bound = Binder(catalog).bind(parse_statement(sql))
    compiled = QueryExecutor(catalog).execute(bound, inputs)
    interpreted = OracleExecutor(catalog).execute(bound, inputs)
    assert compiled.rows == interpreted.rows, sql
    assert compiled.schema.names == interpreted.schema.names, sql
    assert compiled.ordered_rows == interpreted.ordered_rows, sql
    return compiled


# Inputs with duplicates, NULLs, and non-joining values: the cases where
# three-valued logic and multiset semantics can diverge.
NULLY_INPUTS = {
    "r": Multiset([(1,), (1,), (2,), (None,), (7,)]),
    "s": Multiset([(1, 10), (1, 10), (2, None), (None, 30), (3, 30), (7, 20)]),
    "t": Multiset([(10,), (20,), (20,), (None,), (30,)]),
}

FIXED_CORPUS = [
    PAPER_QUERY,
    "SELECT * FROM R, S, T WHERE R.a = S.b AND S.c = T.d",
    "SELECT a, c FROM R, S WHERE R.a = S.b AND c > 5",
    "SELECT a + 1 AS up, a * 2 - 3 AS expr FROM R WHERE NOT (a < 2 OR a > 50)",
    "SELECT -a AS neg FROM R WHERE a > 0",
    "SELECT b, COUNT(*) AS n, SUM(c) AS s, AVG(c) AS av, MIN(c) AS mn, "
    "MAX(c) AS mx FROM S GROUP BY b",
    "SELECT b, COUNT(*) AS n FROM S GROUP BY b HAVING n > 1",
    "SELECT DISTINCT a FROM R ORDER BY a LIMIT 3",
    "SELECT a FROM R ORDER BY a DESC LIMIT 2",
    "SELECT a, b FROM R, S WHERE R.a = S.b OR c = 30",
]


class TestFixedCorpus:
    @pytest.mark.parametrize("sql", FIXED_CORPUS)
    def test_equivalent(self, paper_catalog, sql):
        assert_equivalent(paper_catalog, sql, NULLY_INPUTS)

    def test_empty_inputs(self, paper_catalog):
        empty = {name.lower(): Multiset() for name in STREAM_NAMES}
        for sql in FIXED_CORPUS:
            assert_equivalent(paper_catalog, sql, empty)


# ---------------------------------------------------------------------------
# Randomized SPJ corpus
# ---------------------------------------------------------------------------
PROJECTIONS = ["a", "b", "c", "d", "a + c", "c - d", "-a"]
PREDICATES = [
    "a > 3",
    "c <= 40",
    "d <> 20",
    "a = 1 OR c = 30",
    "NOT (d > 10)",
    "a + 1 < c",
]


def random_spj(rng: random.Random) -> str:
    n_proj = rng.randint(1, 3)
    outputs = ", ".join(
        f"{expr} AS o{i}"
        for i, expr in enumerate(rng.sample(PROJECTIONS, n_proj))
    )
    preds = ["R.a = S.b", "S.c = T.d"] + rng.sample(
        PREDICATES, rng.randint(0, 3)
    )
    return f"SELECT {outputs} FROM R, S, T WHERE {' AND '.join(preds)}"


def random_inputs(rng: random.Random) -> dict[str, Multiset]:
    def column(width):
        rows = []
        for _ in range(rng.randint(0, 25)):
            rows.append(
                tuple(
                    None if rng.random() < 0.1 else rng.randint(1, 12)
                    for _ in range(width)
                )
            )
        return Multiset(rows)

    return {"r": column(1), "s": column(2), "t": column(1)}


class TestRandomizedCorpus:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_spj(self, paper_catalog, seed):
        rng = random.Random(9000 + seed)
        sql = random_spj(rng)
        assert_equivalent(paper_catalog, sql, random_inputs(rng))


# ---------------------------------------------------------------------------
# Figure 8/9 pipeline runs: compiled plans and the oracle give identical RunResults
# ---------------------------------------------------------------------------
def _pipeline_run(streams, window, params, *, oracle: bool):
    config = PipelineConfig(
        strategy=ShedStrategy.DATA_TRIAGE,
        window=window,
        queue_capacity=params.queue_capacity,
        policy=params.policy,
        synopsis_factory=params.synopsis_factory,
        service_time=params.service_time,
        seed=5,
    )
    pipeline = DataTriagePipeline(paper_catalog(), PAPER_QUERY, config)
    if oracle:
        pipeline.executor = OracleExecutor(pipeline.catalog)
    return pipeline.run(streams)


def assert_runs_identical(a, b):
    assert a.total_arrived == b.total_arrived
    assert a.total_kept == b.total_kept
    assert a.total_dropped == b.total_dropped
    assert len(a.windows) == len(b.windows)
    for wa, wb in zip(a.windows, b.windows):
        assert wa.window_id == wb.window_id
        assert wa.merged == wb.merged
        assert wa.exact == wb.exact
        assert wa.estimated == wb.estimated
        assert wa.ideal == wb.ideal
        assert wa.arrived == wb.arrived
        assert wa.kept == wb.kept
        assert wa.dropped == wb.dropped


def _bursty_streams(params):
    arrival = MarkovBurstArrival(
        base_rate=1500.0 / 100.0 / len(STREAM_NAMES),
        burst_speedup=100.0,
        burst_fraction=0.6,
        expected_burst_length=200.0,
    )
    window = WindowSpec(width=params.tuples_per_window / arrival.mean_rate)
    rng = random.Random(5)
    gens = paper_row_generators()
    burst_gens = {n: g.shifted(params.burst_mean_shift) for n, g in gens.items()}
    streams = {
        name: generate_stream(
            params.tuples_per_stream, arrival, gens[name], burst_gens[name], rng
        )
        for name in STREAM_NAMES
    }
    return streams, window


class TestPipelineConfigs:
    def test_figure8_steady(self):
        params = ExperimentParams(tuples_per_window=40, n_windows=4)
        per_stream = 900.0 / len(STREAM_NAMES)
        window = WindowSpec(width=params.tuples_per_window / per_stream)
        rng = random.Random(5)
        gens = paper_row_generators()
        streams = {
            name: generate_stream(
                params.tuples_per_stream,
                SteadyArrival(per_stream),
                gens[name],
                None,
                rng,
            )
            for name in STREAM_NAMES
        }
        assert_runs_identical(
            _pipeline_run(streams, window, params, oracle=False),
            _pipeline_run(streams, window, params, oracle=True),
        )

    def test_figure9_bursty(self):
        params = ExperimentParams(tuples_per_window=40, n_windows=4)
        streams, window = _bursty_streams(params)
        assert_runs_identical(
            _pipeline_run(streams, window, params, oracle=False),
            _pipeline_run(streams, window, params, oracle=True),
        )
