"""Metric definitions against direct arithmetic and pair-enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_ci
from dtanet.metrics import (
    MetricError,
    aggregate,
    concordance_index,
    evaluate_predictions,
    r2,
    rmse,
)


class TestRmse:
    def test_perfect(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert rmse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_three_four(self):
        # mean squared error (9 + 16) / 2 = 12.5; the root is applied
        assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - np.sqrt(12.5)) < 1e-12

    def test_root_is_taken_not_mse(self):
        value = rmse([0.0, 0.0], [2.0, 2.0])
        assert value == 2.0 and value != 4.0

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.normal(size=10)
            f = rng.normal(size=10)
            assert rmse(y, f) == rmse(f, y)
            assert rmse(y, f) >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(MetricError, match="empty"):
            rmse([], [])


class TestR2:
    def test_perfect_is_one(self):
        assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_predictor_is_zero(self):
        y = [1.0, 2.0, 3.0, 7.0]
        mean = [float(np.mean(y))] * 4
        assert r2(y, mean) == 0.0

    def test_half(self):
        assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == 0.5

    def test_can_be_negative(self):
        assert r2([1.0, 2.0, 3.0], [10.0, -10.0, 10.0]) < 0.0

    def test_zero_variance_rejected(self):
        with pytest.raises(MetricError, match="variance"):
            r2([2.0, 2.0], [1.0, 3.0])


class TestConcordanceIndex:
    def test_constant_predictor_is_half(self):
        y = [1.0, 2.0, 3.0, 4.0]
        assert concordance_index(y, [2.5] * 4) == 0.5

    def test_perfect_order_is_one(self):
        y = [1.0, 2.0, 3.0, 4.0]
        assert concordance_index(y, [10.0, 20.0, 30.0, 40.0]) == 1.0

    def test_reversed_order_is_zero(self):
        y = [1.0, 2.0, 3.0, 4.0]
        assert concordance_index(y, [4.0, 3.0, 2.0, 1.0]) == 0.0

    def test_equal_truths_rejected(self):
        with pytest.raises(MetricError, match="all true values"):
            concordance_index([2.0, 2.0], [1.0, 3.0])

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(123)
        for trial in range(200):
            n = int(rng.integers(2, 51))
            # coarse grids force plenty of ties on both sides
            y = rng.integers(0, 6, size=n).astype(float)
            f = rng.integers(0, 6, size=n).astype(float)
            if np.all(y == y[0]):
                continue
            assert concordance_index(y, f) == brute_force_ci(y, f)

    def test_matches_brute_force_continuous(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = int(rng.integers(2, 51))
            y = rng.normal(size=n)
            f = rng.normal(size=n)
            assert concordance_index(y, f) == brute_force_ci(y, f)

    @settings(max_examples=60)
    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=30))
    def test_invariant_under_monotone_transform(self, f):
        # cube is strictly increasing and exact on small integers, so the
        # transform preserves every ordering and every tie
        y = list(range(len(f)))
        f = np.asarray(f, dtype=float)
        assert concordance_index(y, f) == concordance_index(y, f ** 3)


class TestAggregate:
    def test_weighted_mean(self):
        value, excluded = aggregate([1.0, 0.5], [2, 8])
        assert value == 0.6
        assert excluded == ()

    def test_single_task(self):
        assert aggregate([0.37], [5])[0] == 0.37

    def test_undefined_task_excluded_and_flagged(self):
        value, excluded = aggregate([1.0, None, 0.5], [2, 100, 8])
        assert value == 0.6
        assert excluded == (1,)

    def test_all_zero_counts_rejected(self):
        with pytest.raises(MetricError, match="zero"):
            aggregate([1.0], [0])


class TestEvalReport:
    def test_sixty_one_task_aggregate(self):
        rng = np.random.default_rng(9)
        n, tasks = 400, 61
        y = rng.normal(size=(n, tasks))
        f = y + rng.normal(scale=0.3, size=(n, tasks))
        w = (rng.random((n, tasks)) > 0.4).astype(float)
        report = evaluate_predictions(y, f, w)
        assert len(report.tasks) == 61
        assert report.rmse is not None and report.ci is not None
        counts = [t.n_records for t in report.tasks]
        expected = sum(t.rmse * c for t, c in zip(report.tasks, counts)
                       if t.rmse is not None) / sum(counts)
        assert abs(report.rmse - expected) < 1e-12

    def test_ci_undefined_task_flagged(self):
        y = np.array([[1.0, 5.0], [2.0, 5.0]])
        f = np.array([[1.0, 4.0], [2.0, 6.0]])
        w = np.ones((2, 2))
        report = evaluate_predictions(y, f, w)
        assert report.tasks[1].ci is None
        assert report.ci == report.tasks[0].ci
