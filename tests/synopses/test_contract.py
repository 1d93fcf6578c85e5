"""Cross-family contract tests: every synopsis obeys the shared interface.

The shadow-plan machinery treats synopses uniformly; these parametrized
tests pin the behavioural contract each family must honour for Data Triage
to be correct regardless of the configured synopsis type.
"""

import random

import pytest

from repro.synopses import (
    CountMinFactory,
    Dimension,
    EndBiasedFactory,
    MHistFactory,
    ReservoirSampleFactory,
    SparseHistogramFactory,
    WaveletFactory,
)

FACTORIES = [
    pytest.param(SparseHistogramFactory(bucket_width=5), id="sparse_hist"),
    pytest.param(MHistFactory(max_buckets=30), id="mhist"),
    pytest.param(MHistFactory(max_buckets=30, grid=5), id="mhist_aligned"),
    pytest.param(ReservoirSampleFactory(capacity=400), id="reservoir"),
    pytest.param(CountMinFactory(width=128), id="cms"),
    pytest.param(WaveletFactory(budget=96), id="wavelet"),
    pytest.param(EndBiasedFactory(k=12), id="end_biased"),
]

A = [Dimension("a", 1, 100)]
BC = [Dimension("b", 1, 100), Dimension("c", 1, 100)]


@pytest.fixture
def rows(rng):
    return [(rng.randint(1, 100),) for _ in range(200)]


@pytest.fixture
def rows2(rng):
    return [(rng.randint(1, 100), rng.randint(1, 100)) for _ in range(200)]


def tolerance(factory) -> float:
    """Wavelets are lossy in *totals* too (thresholding + padding leakage);
    every other family preserves inserted mass near-exactly."""
    return 0.15 if "wavelet" in factory.name else 0.02


@pytest.mark.parametrize("factory", FACTORIES)
class TestSynopsisContract:
    def test_total_counts_inserts(self, factory, rows):
        syn = factory.create(A)
        syn.insert_many(rows)
        assert syn.total() == pytest.approx(len(rows), rel=0.02)

    def test_empty_like_is_empty(self, factory, rows):
        syn = factory.create(A)
        syn.insert_many(rows)
        fresh = syn.empty_like()
        assert fresh.total() == pytest.approx(0.0, abs=1e-9)

    def test_union_totals_add(self, factory, rows):
        a = factory.create(A)
        b = factory.create(A)
        a.insert_many(rows[:100])
        b.insert_many(rows[100:])
        assert a.union_all(b).total() == pytest.approx(
            len(rows), rel=tolerance(factory)
        )

    def test_project_preserves_total(self, factory, rows2):
        syn = factory.create(BC)
        syn.insert_many(rows2)
        assert syn.project(["c"]).total() == pytest.approx(
            syn.total(), rel=tolerance(factory)
        )

    def test_group_counts_nonnegative_and_sum_to_total(self, factory, rows):
        syn = factory.create(A)
        syn.insert_many(rows)
        gc = syn.group_counts("a")
        assert all(v >= 0 for v in gc.values())
        assert sum(gc.values()) == pytest.approx(
            syn.total(), rel=max(0.05, tolerance(factory))
        )

    def test_select_range_bounded_by_total(self, factory, rows):
        syn = factory.create(A)
        syn.insert_many(rows)
        sel = syn.select_range("a", 25, 75)
        assert -1e-6 <= sel.total() <= syn.total() * 1.05

    def test_select_full_range_is_identity_mass(self, factory, rows):
        syn = factory.create(A)
        syn.insert_many(rows)
        assert syn.select_range("a", 1, 100).total() == pytest.approx(
            syn.total(), rel=tolerance(factory)
        )

    def test_scale_is_linear(self, factory, rows):
        syn = factory.create(A)
        syn.insert_many(rows)
        assert syn.scale(2.5).total() == pytest.approx(
            syn.total() * 2.5, rel=tolerance(factory)
        )

    def test_join_output_dims(self, factory, rows, rows2):
        a = factory.create(A)
        b = factory.create(BC)
        a.insert_many(rows)
        b.insert_many(rows2)
        j = a.equijoin(b, "a", "b")
        assert j.dim_names == ("a", "c")
        assert j.total() >= 0

    def test_join_estimate_in_right_ballpark(self, factory, rng):
        """Every estimator must land within 2x of the true join size on
        well-behaved (uniform, dense) data."""
        rows_a = [(rng.randint(1, 20),) for _ in range(300)]
        rows_b = [(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(300)]
        from collections import Counter

        ca = Counter(r[0] for r in rows_a)
        cb = Counter(r[0] for r in rows_b)
        exact = sum(ca[v] * cb[v] for v in range(1, 21))
        dims_a = [Dimension("a", 1, 20)]
        dims_b = [Dimension("b", 1, 20), Dimension("c", 1, 20)]
        a = factory.create(dims_a)
        b = factory.create(dims_b)
        a.insert_many(rows_a)
        b.insert_many(rows_b)
        est = a.equijoin(b, "a", "b").total()
        assert exact / 2 <= est <= exact * 2
