"""The paper's experiment harness: workloads, sweeps, and figure series.

Everything the evaluation section needs, shared between the benchmark suite
(``benchmarks/``) and the examples:

* the experiment query and catalog (paper Figure 7);
* per-run drivers for the constant-rate (Figure 8) and bursty (Figure 9)
  workloads — windows scaled with rate so tuples/window stays constant
  (Section 6.2.1), ≥N runs per point with distinct seeds (Section 6.2.2);
* the Figure 6 microbenchmark pieces: the original 3-way join versus the
  rewritten synopsis query with fast (sparse histogram) and slow (unaligned
  MHIST) synopses.

Scale substitution (see DESIGN.md): the paper loaded 10 000 tuples per table
for the microbenchmark and drove a C engine at hundreds of tuples/second;
the defaults here are sized for a Python engine so that full sweeps run in
minutes, and EXPERIMENTS.md records the mapping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.algebra.multiset import Multiset
from repro.core.pipeline import DataTriagePipeline, RunResult
from repro.core.policies import DropPolicy, RandomDropPolicy
from repro.core.strategies import PipelineConfig, ShedStrategy
from repro.engine.catalog import Catalog
from repro.engine.executor import QueryExecutor
from repro.engine.types import ColumnType, Schema
from repro.engine.window import WindowSpec
from repro.quality.report import Series
from repro.quality.rms import ErrorSummary, run_rms
from repro.rewrite.plan import SPJPlan
from repro.rewrite.shadow import ShadowPlan
from repro.sources.arrival import MarkovBurstArrival, SteadyArrival, generate_stream
from repro.sources.generators import paper_row_generators
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.synopses.base import Dimension, SynopsisFactory
from repro.synopses.mhist import MHistFactory
from repro.synopses.sparse_hist import SparseHistogramFactory

#: Paper Figure 7, verbatim (windows are supplied per run, scaled to rate).
PAPER_QUERY = (
    "SELECT a, COUNT(*) AS count "
    "FROM R, S, T "
    "WHERE R.a = S.b AND S.c = T.d "
    "GROUP BY a;"
)

STREAM_NAMES = ("R", "S", "T")


def paper_catalog() -> Catalog:
    """The experiment's three streams: R(a), S(b, c), T(d), all INTEGER."""
    cat = Catalog()
    cat.create_stream("R", Schema.of(("a", ColumnType.INTEGER)))
    cat.create_stream(
        "S", Schema.of(("b", ColumnType.INTEGER), ("c", ColumnType.INTEGER))
    )
    cat.create_stream("T", Schema.of(("d", ColumnType.INTEGER)))
    return cat


@dataclass(frozen=True)
class ExperimentParams:
    """Shared knobs of the load experiments."""

    tuples_per_window: int = 150  # per stream; constant across rates (§6.2.1)
    n_windows: int = 8
    engine_capacity: float = 500.0  # tuples/sec through the standard path
    queue_capacity: int = 50
    burst_mean_shift: float = 25.0  # burst data: Gaussian mean moved by this
    synopsis_factory: SynopsisFactory = field(default_factory=SparseHistogramFactory)
    policy: DropPolicy = field(default_factory=RandomDropPolicy)

    @property
    def tuples_per_stream(self) -> int:
        return self.tuples_per_window * self.n_windows

    @property
    def service_time(self) -> float:
        return 1.0 / self.engine_capacity


# ---------------------------------------------------------------------------
# Figures 8 & 9: per-run drivers
# ---------------------------------------------------------------------------
def run_constant_rate(
    strategy: ShedStrategy,
    total_rate: float,
    params: ExperimentParams,
    seed: int,
    query: str = PAPER_QUERY,
) -> RunResult:
    """One Figure 8 run: steady arrivals at ``total_rate`` tuples/sec (all streams).

    ``query`` defaults to the paper's Figure 7 query; extension experiments
    pass variants (e.g. with SUM/AVG aggregates) over the same workload.
    """
    per_stream = total_rate / len(STREAM_NAMES)
    window = WindowSpec(width=params.tuples_per_window / per_stream)
    rng = random.Random(seed)
    gens = paper_row_generators()
    streams = {
        name: generate_stream(
            params.tuples_per_stream, SteadyArrival(per_stream), gens[name], None, rng
        )
        for name in STREAM_NAMES
    }
    return _run(strategy, window, params, seed, streams, query)


def bursty_workload(
    peak_rate: float,
    params: ExperimentParams,
    seed: int,
    burst_speedup: float = 100.0,
    burst_fraction: float = 0.6,
    expected_burst_length: float = 200.0,
):
    """The Figure 9 workload: ``(window, streams)`` for a bursty run.

    Burst tuples draw from Gaussians with shifted means (Section 6.2.2); the
    window width is scaled by the process's *mean* rate so the expected
    tuples/window matches the constant-rate experiments.
    """
    per_stream_base = peak_rate / burst_speedup / len(STREAM_NAMES)
    arrival = MarkovBurstArrival(
        base_rate=per_stream_base,
        burst_speedup=burst_speedup,
        burst_fraction=burst_fraction,
        expected_burst_length=expected_burst_length,
    )
    window = WindowSpec(width=params.tuples_per_window / arrival.mean_rate)
    rng = random.Random(seed)
    gens = paper_row_generators()
    burst_gens = {
        name: gen.shifted(params.burst_mean_shift) for name, gen in gens.items()
    }
    streams = {
        name: generate_stream(
            params.tuples_per_stream, arrival, gens[name], burst_gens[name], rng
        )
        for name in STREAM_NAMES
    }
    return window, streams


def bursty_pipeline(
    strategy: ShedStrategy,
    peak_rate: float,
    params: ExperimentParams,
    seed: int,
    *,
    obs=None,
    query: str = PAPER_QUERY,
    burst_speedup: float = 100.0,
    burst_fraction: float = 0.6,
    expected_burst_length: float = 200.0,
):
    """A ready-to-run Figure 9 pipeline: ``(pipeline, streams)``.

    ``run_bursty_rate`` and ``repro trace`` share this so instrumented runs
    (``obs``) drive byte-identical workloads to the plain ones.
    """
    window, streams = bursty_workload(
        peak_rate, params, seed, burst_speedup, burst_fraction, expected_burst_length
    )
    pipeline = DataTriagePipeline(
        paper_catalog(), query, _config(strategy, window, params, seed), obs=obs
    )
    return pipeline, streams


def run_bursty_rate(
    strategy: ShedStrategy,
    peak_rate: float,
    params: ExperimentParams,
    seed: int,
    burst_speedup: float = 100.0,
    burst_fraction: float = 0.6,
    expected_burst_length: float = 200.0,
) -> RunResult:
    """One Figure 9 run: two-state Markov bursts peaking at ``peak_rate``."""
    pipeline, streams = bursty_pipeline(
        strategy,
        peak_rate,
        params,
        seed,
        burst_speedup=burst_speedup,
        burst_fraction=burst_fraction,
        expected_burst_length=expected_burst_length,
    )
    return pipeline.run(streams)


def _config(strategy, window, params: ExperimentParams, seed) -> PipelineConfig:
    return PipelineConfig(
        strategy=strategy,
        window=window,
        queue_capacity=params.queue_capacity,
        policy=params.policy,
        synopsis_factory=params.synopsis_factory,
        service_time=params.service_time,
        seed=seed,
    )


def _run(
    strategy, window, params: ExperimentParams, seed, streams, query=PAPER_QUERY
) -> RunResult:
    pipeline = DataTriagePipeline(
        paper_catalog(), query, _config(strategy, window, params, seed)
    )
    return pipeline.run(streams)


# ---------------------------------------------------------------------------
# Series builders (one per figure)
# ---------------------------------------------------------------------------
METHOD_LABELS = {
    ShedStrategy.DATA_TRIAGE: "data_triage",
    ShedStrategy.DROP_ONLY: "drop_only",
    ShedStrategy.SUMMARIZE_ONLY: "summarize_only",
}


def figure8_series(
    rates: list[float],
    n_runs: int = 9,
    params: ExperimentParams | None = None,
) -> Series:
    """Figure 8: RMS error vs. constant data rate, all three methods."""
    params = params or ExperimentParams()
    series = Series(
        title="Figure 8: RMS error vs. constant data rate",
        x_label="rate_tuples_per_sec",
        methods=list(METHOD_LABELS.values()),
    )
    for rate in rates:
        summaries = {}
        for strategy, label in METHOD_LABELS.items():
            values = [
                run_rms(run_constant_rate(strategy, rate, params, seed))
                for seed in range(n_runs)
            ]
            summaries[label] = ErrorSummary.from_values(values)
        series.add_point(rate, summaries)
    return series


def figure9_series(
    peak_rates: list[float],
    n_runs: int = 9,
    params: ExperimentParams | None = None,
) -> Series:
    """Figure 9: RMS error vs. peak data rate under bursty arrivals."""
    params = params or ExperimentParams()
    series = Series(
        title="Figure 9: RMS error vs. peak data rate (bursty)",
        x_label="peak_rate_tuples_per_sec",
        methods=list(METHOD_LABELS.values()),
    )
    for peak in peak_rates:
        summaries = {}
        for strategy, label in METHOD_LABELS.items():
            values = [
                run_rms(run_bursty_rate(strategy, peak, params, seed))
                for seed in range(n_runs)
            ]
            summaries[label] = ErrorSummary.from_values(values)
        series.add_point(peak, summaries)
    return series


# ---------------------------------------------------------------------------
# Figure 6: the query-rewrite overhead microbenchmark
# ---------------------------------------------------------------------------
@dataclass
class MicrobenchSetup:
    """Pre-generated tables and compiled plans for the Figure 6 comparison.

    ``tables`` holds each stream's full contents; ``kept``/``dropped`` are a
    50/50 split of the same rows, matching the microbenchmark's use of the
    rewritten query over substream tables.
    """

    catalog: Catalog
    plan: SPJPlan
    shadow: ShadowPlan
    executor: QueryExecutor
    bound: object
    tables: dict[str, Multiset]
    kept: dict[str, Multiset]
    dropped: dict[str, Multiset]
    dims: dict[str, list[Dimension]]


def microbench_setup(rows_per_table: int = 2000, seed: int = 7) -> MicrobenchSetup:
    """Build the microbenchmark fixtures (paper: 10 000 random rows/table).

    The default is scaled down for a Python engine; pass 10000 to match the
    paper's table sizes exactly (the *ratios* are what Figure 6 reports).
    """
    catalog = paper_catalog()
    stmt = parse_statement(PAPER_QUERY)
    bound = Binder(catalog).bind(stmt)
    plan = SPJPlan.from_bound(bound)
    shadow = ShadowPlan(plan)
    rng = random.Random(seed)
    gens = paper_row_generators()
    tables, kept, dropped = {}, {}, {}
    for name in STREAM_NAMES:
        rows = [gens[name].draw(rng) for _ in range(rows_per_table)]
        tables[name] = Multiset(rows)
        half = rows_per_table // 2
        kept[name] = Multiset(rows[:half])
        dropped[name] = Multiset(rows[half:])
    dims = {
        "R": [Dimension("R.a", 1, 100)],
        "S": [Dimension("S.b", 1, 100), Dimension("S.c", 1, 100)],
        "T": [Dimension("T.d", 1, 100)],
    }
    return MicrobenchSetup(
        catalog=catalog,
        plan=plan,
        shadow=shadow,
        executor=QueryExecutor(catalog),
        bound=bound,
        tables=tables,
        kept=kept,
        dropped=dropped,
        dims=dims,
    )


def microbench_original(setup: MicrobenchSetup) -> int:
    """Run the original (relational) query over the full tables.

    Returns the number of result groups, so callers can sanity-check work
    actually happened.
    """
    inputs = {name.lower(): bag for name, bag in setup.tables.items()}
    result = setup.executor.execute(setup.bound, inputs)
    return len(result.rows)


def microbench_rewritten(
    setup: MicrobenchSetup, factory: SynopsisFactory
) -> float:
    """Run the rewritten (synopsized) query: build synopses, evaluate Q-.

    Includes synopsis construction from the substream tables, exactly as the
    microbenchmark's UDFs built histograms from tables.  Returns the
    estimated count of dropped results.
    """
    kept_syn, dropped_syn = {}, {}
    for name in STREAM_NAMES:
        for split, target in ((setup.kept, kept_syn), (setup.dropped, dropped_syn)):
            syn = factory.create(setup.dims[name])
            syn.insert_many(split[name])
            target[name] = syn
    est = setup.shadow.estimate_dropped(kept_syn, dropped_syn)
    return 0.0 if est is None else est.total()


def fast_synopsis_factory() -> SynopsisFactory:
    """Figure 6's "fast synopsis": the sparse cubic histogram."""
    return SparseHistogramFactory(bucket_width=5)


def slow_synopsis_factory() -> SynopsisFactory:
    """Figure 6's "slow synopsis": an untuned (unaligned) MHIST."""
    return MHistFactory(max_buckets=100, grid=None)


def aligned_mhist_factory() -> SynopsisFactory:
    """The Future-Work mitigation: MHIST with grid-constrained boundaries."""
    return MHistFactory(max_buckets=100, grid=5)
