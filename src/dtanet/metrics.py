"""Regression metrics and record-weighted multi-task aggregation.

``r2`` is the coefficient of determination 1 - SS_res/SS_tot (it can be
negative), not a squared correlation. The concordance index scores every
index pair with unequal true values: 1 when the predictions order it
correctly, 0.5 when the predictions tie, 0 otherwise; pairs with equal true
values are excluded entirely, so a constant predictor scores exactly 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricError",
    "rmse",
    "r2",
    "concordance_index",
    "aggregate",
    "TaskMetrics",
    "EvalReport",
    "evaluate_predictions",
]


class MetricError(ValueError):
    pass


def _paired(y, predicted) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64).ravel()
    predicted = np.asarray(predicted, dtype=np.float64).ravel()
    if y.shape != predicted.shape:
        raise MetricError(f"length mismatch: {y.shape[0]} vs {predicted.shape[0]}")
    return y, predicted


def rmse(y, predicted) -> float:
    """Root of the mean squared error (the root is applied, and unit-tested)."""
    y, predicted = _paired(y, predicted)
    if y.size == 0:
        raise MetricError("rmse of empty input")
    return float(np.sqrt(np.mean((y - predicted) ** 2)))


def r2(y, predicted) -> float:
    """Coefficient of determination: 1 - SS_res / SS_tot."""
    y, predicted = _paired(y, predicted)
    if y.size < 2:
        raise MetricError("r2 needs at least 2 observations")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise MetricError("r2 undefined: zero variance in the true values")
    ss_res = float(np.sum((y - predicted) ** 2))
    return 1.0 - ss_res / ss_tot


class _Fenwick:
    """Prefix-sum tree over value ranks, used to count order statistics."""

    def __init__(self, size: int):
        self.tree = np.zeros(size + 1, dtype=np.int64)

    def add(self, index: int) -> None:
        i = index + 1
        while i < self.tree.shape[0]:
            self.tree[i] += 1
            i += i & (-i)

    def prefix(self, index: int) -> int:
        """Count of inserted ranks <= index."""
        i = index + 1
        total = 0
        while i > 0:
            total += int(self.tree[i])
            i -= i & (-i)
        return total


def concordance_index(y, predicted) -> float:
    """Probability of correctly ordering the pairs with unequal true values.

    Sort by the true values, then sweep groups of equal truth while counting,
    against everything already inserted, how many predictions are strictly
    smaller (a win) or equal (half credit) via a prefix-sum tree; ranking is
    O(n log n) and matches brute-force pair enumeration exactly.
    """
    y, predicted = _paired(y, predicted)
    if y.size < 2:
        raise MetricError("concordance index needs at least 2 observations")
    order = np.argsort(y, kind="stable")
    y_sorted = y[order]
    _, ranks_all = np.unique(predicted, return_inverse=True)
    ranks = ranks_all[order]
    tree = _Fenwick(int(ranks_all.max()) + 1)
    double_score = 0  # wins count twice, prediction ties once: keeps it integral
    comparable = 0
    inserted = 0
    i = 0
    n = y.size
    while i < n:
        j = i
        while j < n and y_sorted[j] == y_sorted[i]:
            j += 1
        for k in range(i, j):
            at_most = tree.prefix(int(ranks[k]))
            below = tree.prefix(int(ranks[k]) - 1) if ranks[k] > 0 else 0
            double_score += 2 * below + (at_most - below)
            comparable += inserted
        for k in range(i, j):
            tree.add(int(ranks[k]))
        inserted += j - i
        i = j
    if comparable == 0:
        raise MetricError(
            "concordance index undefined: all true values are equal")
    return (double_score / 2.0) / comparable


def aggregate(values, counts) -> tuple[float, tuple[int, ...]]:
    """Record-count-weighted mean across tasks.

    Tasks whose metric is undefined (``None``) are excluded together with
    their counts; the returned tuple lists their positions. Raises when no
    task has a positive count.
    """
    counts = [int(c) for c in counts]
    if len(values) != len(counts):
        raise MetricError("values and counts differ in length")
    if any(c < 0 for c in counts):
        raise MetricError("negative record count")
    if sum(counts) == 0:
        raise MetricError("all record counts are zero")
    excluded = tuple(i for i, v in enumerate(values) if v is None)
    total = 0.0
    weight = 0
    for i, (v, c) in enumerate(zip(values, counts)):
        if v is None or c == 0:
            continue
        total += float(v) * c
        weight += c
    if weight == 0:
        raise MetricError("no task with a defined metric and a positive count")
    return total / weight, excluded


@dataclass
class TaskMetrics:
    task_id: int
    n_records: int
    rmse: float | None
    r2: float | None
    ci: float | None


@dataclass
class EvalReport:
    """Per-task metrics plus their record-weighted aggregates."""

    tasks: list[TaskMetrics]
    rmse: float | None
    r2: float | None
    ci: float | None

    @property
    def n_records(self) -> int:
        return sum(t.n_records for t in self.tasks)


def evaluate_predictions(y: np.ndarray, predicted: np.ndarray,
                         weights: np.ndarray) -> EvalReport:
    """Masked per-task metrics for (n_records, n_tasks) arrays."""
    y = np.asarray(y, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    tasks: list[TaskMetrics] = []
    for t in range(y.shape[1]):
        mask = weights[:, t] > 0
        yt = y[mask, t]
        pt = predicted[mask, t]
        task = TaskMetrics(task_id=t, n_records=int(mask.sum()),
                           rmse=None, r2=None, ci=None)
        if task.n_records > 0:
            task.rmse = rmse(yt, pt)
            try:
                task.r2 = r2(yt, pt)
            except MetricError:
                task.r2 = None
            try:
                task.ci = concordance_index(yt, pt)
            except MetricError:
                task.ci = None
        tasks.append(task)
    counts = [t.n_records for t in tasks]
    rmse_agg, _ = aggregate([t.rmse for t in tasks], counts)
    try:
        r2_agg, _ = aggregate([t.r2 for t in tasks], counts)
    except MetricError:
        r2_agg = None
    try:
        ci_agg, _ = aggregate([t.ci for t in tasks], counts)
    except MetricError:
        ci_agg = None
    return EvalReport(tasks=tasks, rmse=rmse_agg, r2=r2_agg, ci=ci_agg)
