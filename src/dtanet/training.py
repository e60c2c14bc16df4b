"""Mini-batch training with early stopping on a composite validation score.

The score minimized is mean(RMSE) - mean(CI) over the validation tasks: the
RMSE mean runs over tasks with at least one record and the CI mean over tasks
with at least one comparable pair, each task counted once. When no task has a
comparable pair the score falls back to the RMSE term alone (logged and
flagged). A perfect predictor therefore scores 0 - 1 = -1.

Training keeps the checkpoint with the lowest score seen, evaluates every
``eval_every`` epochs, and stops after ``patience`` consecutive evaluations
without improvement. The last partial batch of an epoch is kept (batch
normalization simply sees its actual size). Identical seeds give identical
histories and identical parameters.

A fit holds one copy of its state. An epoch that becomes the best is
recorded (its epoch and report) and nothing is copied: validation runs
through ``Graph.infer``, which moves no parameter or running statistic, so
the best is still the live state. Its parameters and batch-norm statistics
are copied with ``Graph.state_dict`` only before the first step of a later
epoch, and loaded back when the fit ends. A best that
is still live at the end is neither copied nor loaded; its parameters and
statistics are checked for finiteness as loading would check them.
``TrainResult`` therefore has no copy of the best parameters: ``train``
leaves them on the model.

A fit moves only the first-layer rows whose input columns some training pair
sets (``engine.RowSelection``); the other rows would get exactly zero
updates, so the result is byte-identical to training every row while a
batch holds fewer than about 400 distinct table rows (see ``engine``).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .engine import Adam, RowSelection, require_finite
from .metrics import EvalReport, evaluate_predictions
from .model import FeatureStore, Model

__all__ = ["TrainConfig", "TrainingError", "EpochRow", "TrainResult",
           "composite_score", "validation_scores", "train"]

log = logging.getLogger(__name__)


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 5
    learning_rate: float = 1e-3
    seed: int = 0
    eval_every: int = 1

    def validated(self) -> "TrainConfig":
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if self.patience < 1:
            raise TrainingError("patience must be >= 1")
        if self.max_epochs < 1:
            raise TrainingError("max_epochs must be >= 1")
        if self.eval_every < 1:
            raise TrainingError("eval_every must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainingError(f"learning_rate must be finite and > 0, got "
                                f"{self.learning_rate}")
        return self


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_rmse: tuple[float | None, ...] | None = None  # per task
    val_ci: tuple[float | None, ...] | None = None    # per task
    composite: float | None = None
    ci_fallback: bool = False


@dataclass
class TrainResult:
    history: list[EpochRow]
    best_epoch: int
    best_score: float
    epoch_seconds: list[float] = field(default_factory=list)
    # the best epoch's validation report; None when no epoch was evaluated
    best_report: EvalReport | None = None


def composite_score(task_rmse, task_ci) -> tuple[float, bool]:
    """mean(RMSE) - mean(CI); falls back to the RMSE term when no CI exists."""
    rmses = [v for v in task_rmse if v is not None]
    if not rmses:
        raise TrainingError("no validation task has any record")
    cis = [v for v in task_ci if v is not None]
    if not cis:
        return float(np.mean(rmses)), True
    return float(np.mean(rmses)) - float(np.mean(cis)), False


def validation_scores(model: Model, store: FeatureStore, val_idx: np.ndarray):
    """Per-task RMSE and CI on the validation pairs, the composite, whether
    it fell back to RMSE alone, and the
    :func:`~dtanet.metrics.evaluate_predictions` report they come from."""
    y, w = store.pair_targets(val_idx)
    report = evaluate_predictions(y, store.predict(model, val_idx), w)
    task_rmse = tuple(task.rmse for task in report.tasks)
    task_ci = tuple(task.ci for task in report.tasks)
    score, fallback = composite_score(task_rmse, task_ci)
    if fallback:
        log.warning("validation has no comparable pairs for CI; "
                    "early-stopping score falls back to RMSE alone")
    return task_rmse, task_ci, score, fallback, report


def _run_epoch(model: Model, store: FeatureStore, order: np.ndarray,
               adam: Adam, batch_size: int,
               rng: np.random.Generator) -> float:
    graph = model.graph
    total = 0.0
    for start in range(0, order.size, batch_size):
        batch = order[start:start + batch_size]
        feeds = store.feeds(batch, model=model)
        loss_value = graph.forward(feeds, rng=rng)
        graph.backward()
        adam.step()
        graph.zero_grad()
        total += float(loss_value) * batch.size
    return total / order.size


def train(model: Model, store: FeatureStore, train_idx, val_idx,
          cfg: TrainConfig) -> TrainResult:
    """Train ``model`` in place and leave it holding the best parameters.

    ``train_idx`` and ``val_idx`` are 1-d sequences of integer pair rows of
    the store's dataset; anything else is a :class:`~dtanet.model.ModelError`
    that names the first bad entry.
    """
    cfg = cfg.validated()
    train_idx = store._pair_indices(train_idx)
    val_idx = store._pair_indices(val_idx)
    if train_idx.size == 0:
        raise TrainingError("empty training set")
    if np.intersect1d(train_idx, val_idx).size:
        raise TrainingError("training and validation sets overlap")
    weight = model.input_weight
    weight.row_selection = RowSelection(
        store.input_columns_set(model, train_idx))
    try:
        return _train_loop(model, store, train_idx, val_idx, cfg)
    finally:
        weight.row_selection = None  # later backward passes see every row


def _train_loop(model: Model, store: FeatureStore, train_idx: np.ndarray,
                val_idx: np.ndarray, cfg: TrainConfig) -> TrainResult:
    graph = model.graph
    adam = Adam(graph.parameters(), learning_rate=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    history: list[EpochRow] = []
    best_score = np.inf
    best_epoch = 0
    best_report = None
    # the best epoch's state once a later step would overwrite it; None
    # while the best is the live state
    snapshot: dict[str, np.ndarray] | None = None
    strikes = 0
    epoch_seconds: list[float] = []
    for epoch in range(1, cfg.max_epochs + 1):
        if best_epoch and snapshot is None:
            snapshot = graph.state_dict()
        started = time.perf_counter()
        order = rng.permutation(train_idx)
        train_loss = _run_epoch(model, store, order, adam, cfg.batch_size, rng)
        epoch_seconds.append(time.perf_counter() - started)
        row = EpochRow(epoch=epoch, train_loss=train_loss)
        if epoch % cfg.eval_every == 0 and val_idx.size:
            task_rmse, task_ci, score, fallback, report = validation_scores(
                model, store, val_idx)
            row.val_rmse = task_rmse
            row.val_ci = task_ci
            row.composite = score
            row.ci_fallback = fallback
            if score < best_score:
                best_score = score
                best_epoch = epoch
                best_report = report
                snapshot = None
                strikes = 0
            else:
                strikes += 1
            history.append(row)
            if strikes >= cfg.patience:
                break
        else:
            history.append(row)
    if not best_epoch:
        # nothing was evaluated (e.g. no validation set): keep the final state
        best_epoch = history[-1].epoch
        best_score = float("nan")
    if snapshot is None:  # the best is the live state
        require_finite(graph.live_state())
    else:
        graph.load_state(snapshot)
    return TrainResult(history=history, best_epoch=best_epoch,
                       best_score=float(best_score),
                       epoch_seconds=epoch_seconds, best_report=best_report)


def history_rows(result: TrainResult) -> list[str]:
    """CSV lines ``epoch,train_loss,val_rmse,val_ci,composite``."""
    lines = ["epoch,train_loss,val_rmse,val_ci,composite"]
    for row in result.history:
        if row.composite is None:
            lines.append(f"{row.epoch},{row.train_loss:.10g},,,")
            continue
        rmses = [v for v in row.val_rmse if v is not None]
        cis = [v for v in (row.val_ci or ()) if v is not None]
        mean_rmse = f"{np.mean(rmses):.10g}" if rmses else ""
        mean_ci = f"{np.mean(cis):.10g}" if cis else ""
        lines.append(f"{row.epoch},{row.train_loss:.10g},{mean_rmse},"
                     f"{mean_ci},{row.composite:.10g}")
    return lines
