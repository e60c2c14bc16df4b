"""End-to-end orchestration shared by the command-line entry points.

Every model is fitted by :func:`fit` from a :class:`RunConfig`: ``train``
fits the config on its seeded holdout split, each ``cv`` fold fits it with
the repetition's seeds applied as overrides, and each ``tune`` trial fits it
with the trial's search point applied as overrides
(:func:`tuning.point_overrides`) on the same holdout split ``train`` uses.
Every ``cv`` validation fold, in every repetition, excludes that holdout.
The best trial's full config is written as ``best_config.cfg``, so
``train --config best_config.cfg`` fits the model the search scored.

Artifact formats written here:

* prediction CSV: ``smiles,protein_id,task_id[,value],prediction[,in_ad]``;
* report CSV: ``#`` comment lines carrying the config snapshot, then
  ``scheme,seed,repetition,fold,task_id,n_records,rmse,r2,ci,leakage_audit``
  rows, per-fold first, then ``mean``/``std`` summary rows (sample standard
  deviation across folds and repetitions);
* trial log ``trials.csv``: ``trial,status,value`` then one column per
  search dimension, one row per trial.

Every artifact, here and in the other modules, is written through
:mod:`dtanet.artifacts`, which replaces the file atomically.

A run directory is owned by a single process at a time, enforced with a
lock file.
"""

from __future__ import annotations

import json
import logging
import os
import socket
from pathlib import Path
from typing import Iterable

import numpy as np

from . import data as data_mod
from . import proteins
from .artifacts import read_lines, write_artifact, write_lines
from .compounds import ecfp_matrix
from .domain import check_ad, fit_ad_per_task
from .metrics import EvalReport, evaluate_predictions
from .model import FeatureStore, Model
from .runconfig import RunConfig, parse_run_config
from .smiles import MoleculeColumns, MoleculeTable
from .splits import (
    FoldAssignment,
    audit_clusters,
    audit_cold,
    audit_warm,
    cluster_compounds,
    cold_cluster_split,
    cold_entity_split,
    fold_views,
    hyperopt_holdout,
    random_split,
    read_folds,
    warm_split,
    write_folds,
)
from .training import TrainResult, history_rows, train
from .tuning import (
    default_search_space,
    gp_ei_search,
    load_space,
    point_overrides,
    random_search,
)

__all__ = ["PipelineError", "SmokeError", "DirectoryLock", "load_pair_dataset",
           "build_assignment", "run_split", "fit", "run_training", "run_cv",
           "run_predict", "run_evaluate", "run_tune", "read_compounds",
           "write_fingerprint_csv", "write_report", "read_report",
           "end_to_end_smoke"]

log = logging.getLogger(__name__)


class PipelineError(RuntimeError):
    pass


class SmokeError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        super().__init__(f"smoke pipeline failed at stage '{stage}': {cause}")


class DirectoryLock:
    """Exclusive ownership of a run directory via an O_EXCL lock file.

    The lock file holds the owner's pid and host as JSON, so a lock left
    behind by a killed process can be recognized as stale.
    """

    def __init__(self, directory: str | Path):
        self.path = Path(directory) / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise PipelineError(
                f"run directory {self.path.parent} is locked by another "
                f"process ({self._owner()}; remove {self.path} if that "
                f"process is gone)") from None
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "host": socket.gethostname()},
                      handle)
        return self

    def _owner(self) -> str:
        try:
            owner = json.loads(self.path.read_text(encoding="utf-8"))
            return f"pid {int(owner['pid'])} on host {owner['host']}"
        except (OSError, ValueError, TypeError, KeyError):
            return "owner unknown"

    def __exit__(self, *_exc):
        self.path.unlink(missing_ok=True)
        return False


def load_pair_dataset(cfg: RunConfig, data_dir: str | Path) -> data_mod.PairDataset:
    return data_mod.load_dataset(**cfg.data_kwargs(Path(data_dir)))


# -- splits ---------------------------------------------------------------


def _record_entities(dataset: data_mod.PairDataset) -> dict[str, list]:
    """Each record's ``drug`` id (its SMILES) and ``target`` id, by axis."""
    return {"drug": [dataset.compounds[i] for i in dataset.pairs[:, 0]],
            "target": [dataset.protein_ids[i] for i in dataset.pairs[:, 1]]}


def build_assignment(cfg: RunConfig, dataset: data_mod.PairDataset,
                     scheme: str, k: int, seed: int,
                     clustering=None) -> FoldAssignment:
    """A ``k``-fold ``scheme`` split of the dataset's records; a cold-cluster
    split uses ``clustering``, else :func:`_cluster_dataset`'s."""
    ids = _record_entities(dataset)
    if scheme == "warm":
        return warm_split(ids["drug"], ids["target"], k, seed)
    if scheme in ("cold-drug", "cold-target"):
        return cold_entity_split(ids["drug"], ids["target"], k, seed,
                                 axis=scheme.removeprefix("cold-"))
    if scheme == "cold-cluster":
        if clustering is None:
            clustering = _cluster_dataset(cfg, dataset)
        return cold_cluster_split(dataset.pairs[:, 0], clustering, k, seed)
    if scheme == "random":
        return random_split(dataset.n_pairs, k, seed)
    raise PipelineError(f"unknown scheme {scheme!r}")


def _cluster_dataset(cfg: RunConfig, dataset: data_mod.PairDataset,
                     fingerprints: np.ndarray | None = None):
    """Clusters of the compounds' ``cfg`` fingerprints (built if not given)."""
    if fingerprints is None:
        model_cfg = cfg.model_config(n_tasks=dataset.n_tasks)
        fingerprints = ecfp_matrix(dataset.molecules, model_cfg.fp_radius,
                                   model_cfg.fp_bits)
    return cluster_compounds(fingerprints,
                             cfg.split_params()["cluster_threshold"])


def _split_settings(cfg: RunConfig, scheme: str | None, k: int | None,
                    repetitions: int | None,
                    seed: int | None) -> tuple[str, int, int, int]:
    """(scheme, k, repetitions, seed): each given value, else the config's;
    a given value is checked as the config's own would be."""
    params = cfg.override(_given(
        {"split.scheme": scheme, "split.k": k,
         "split.repetitions": repetitions, "split.seed": seed})).split_params()
    return params["scheme"], params["k"], params["repetitions"], params["seed"]


def _given(mapping: dict) -> dict:
    """The entries of ``mapping`` whose value is not None."""
    return {key: value for key, value in mapping.items() if value is not None}


def run_split(cfg: RunConfig, dataset: data_mod.PairDataset,
              out_csv: str | Path, scheme: str | None = None,
              k: int | None = None, seed: int | None = None) -> FoldAssignment:
    """Build the split ``run_cv`` would build for its first repetition and
    write it as a fold CSV."""
    scheme, k, _, seed = _split_settings(cfg, scheme, k, None, seed)
    assignment = build_assignment(cfg, dataset, scheme, k, seed)
    write_folds(out_csv, assignment)
    return assignment


def _leakage_audit(assignment: FoldAssignment,
                   dataset: data_mod.PairDataset) -> str:
    """"pass" or "FAIL" for the scheme's defining constraint ("n/a" if none);
    a cold-cluster split is audited against the cluster labels it carries."""
    ids = _record_entities(dataset)
    scheme = assignment.scheme
    if scheme == "warm":
        leaks = audit_warm(assignment, ids["drug"], ids["target"])
    elif scheme in ("cold-drug", "cold-target"):
        keys = ids[scheme.removeprefix("cold-")]
        leaks = any(audit_cold(assignment, keys).values())
    elif scheme == "cold-cluster":
        leaks = audit_clusters(assignment, assignment.record_clusters)
    else:
        return "n/a"
    return "FAIL" if leaks else "pass"


# -- fitting ------------------------------------------------------------------


def _feature_store(cfg: RunConfig, dataset: data_mod.PairDataset) -> FeatureStore:
    return FeatureStore(dataset, cfg.model_config(n_tasks=dataset.n_tasks))


def fit(cfg: RunConfig, store: FeatureStore, train_idx,
        val_idx) -> tuple[Model, TrainResult]:
    """Build the model ``cfg`` describes on ``store`` and train it with
    ``cfg``'s training settings; the model ends holding its best parameters.

    ``store`` must featurize as ``cfg`` does (:func:`_feature_store`).
    """
    model = store.build_model(cfg.model_config(n_tasks=store.dataset.n_tasks))
    return model, train(model, store, train_idx, val_idx, cfg.train_config())


def _seeded(cfg: RunConfig, model_seed: int, train_seed: int) -> RunConfig:
    return cfg.override({"model.seed": model_seed, "train.seed": train_seed})


def _holdout(cfg: RunConfig, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """(train, validation) record indices: ``train.holdout_fraction`` of the
    records, drawn with ``train.seed``, are held out."""
    return hyperopt_holdout(n_pairs, seed=cfg.train_config().seed,
                            fraction=cfg.holdout_fraction())


def run_training(cfg: RunConfig, dataset: data_mod.PairDataset,
                 out_checkpoint: str | Path,
                 seed: int | None = None) -> Path:
    """Fit ``cfg`` on its holdout split; write the checkpoint and history.

    ``seed`` overrides ``model.seed`` and ``train.seed``; the checkpoint
    embeds the config the model was fit with, the override included.
    """
    out_checkpoint = Path(out_checkpoint)
    run_cfg = cfg if seed is None else _seeded(cfg, seed, seed)
    train_idx, val_idx = _holdout(run_cfg, dataset.n_pairs)
    model, result = fit(run_cfg, _feature_store(run_cfg, dataset), train_idx,
                        val_idx)
    model.save(out_checkpoint, run_config_text=run_cfg.snapshot())
    history_path = out_checkpoint.with_suffix(out_checkpoint.suffix + ".history.csv")
    write_lines(history_path, history_rows(result))
    log.info("best composite %.4f at epoch %d", result.best_score,
             result.best_epoch)
    return out_checkpoint


# -- cross-validation -----------------------------------------------------------


def run_cv(cfg: RunConfig, dataset: data_mod.PairDataset,
           out_dir: str | Path, scheme: str | None = None,
           k: int | None = None, repetitions: int | None = None,
           seed: int | None = None,
           folds_path: str | Path | None = None) -> Path:
    """Repeated k-fold cross-validation; writes a report and per-fold checkpoints.

    ``folds_path`` replays a fold CSV written by the ``split`` command for a
    single repetition instead of building fresh assignments. Cold-cluster
    splits and the audit of a replayed fold file share one clustering, of
    the feature store's fingerprints if it holds them. Validation folds
    exclude the ``train``/``tune`` holdout. A fold checkpoint embeds its
    repetition's seeded config.
    """
    precomputed = None
    if folds_path is not None:
        precomputed = read_folds(folds_path)
        if precomputed.n_records != dataset.n_pairs:
            raise PipelineError(
                f"{folds_path} covers {precomputed.n_records} records, the "
                f"dataset has {dataset.n_pairs}")
        scheme = precomputed.scheme
        k = precomputed.k
        repetitions = 1
        seed = precomputed.seed
    scheme, k, repetitions, seed = _split_settings(cfg, scheme, k, repetitions,
                                                   seed)
    out_dir = Path(out_dir)
    model_cfg = cfg.model_config(n_tasks=dataset.n_tasks)
    if model_cfg.compound_only and scheme == "cold-target":
        raise PipelineError(
            "compound-only variants cannot be evaluated under cold-target "
            "splits: their outputs are indexed by the training proteins")
    train_seed = cfg.train_config().seed
    rows: list[dict] = []
    with DirectoryLock(out_dir):
        store = _feature_store(cfg, dataset)
        clustering = (_cluster_dataset(cfg, dataset, store.fingerprint_matrix)
                      if scheme == "cold-cluster" else None)
        if precomputed is not None and clustering is not None:
            precomputed.record_clusters = clustering.labels[dataset.pairs[:, 0]]
        _, holdout = _holdout(cfg, dataset.n_pairs)
        for rep in range(repetitions):
            rep_seed = seed + rep
            if precomputed is not None:
                assignment = precomputed
            else:
                assignment = build_assignment(cfg, dataset, scheme, k,
                                              rep_seed, clustering)
            audit = _leakage_audit(assignment, dataset)
            write_folds(out_dir / f"folds_{scheme}_rep{rep}.csv", assignment)
            rep_cfg = _seeded(cfg, model_cfg.seed + rep, train_seed + rep)
            for fold, (train_view, val_view) in enumerate(
                    fold_views(assignment, holdout)):
                if val_view.size == 0:
                    log.warning("fold %d has no validation records after "
                                "holdout exclusion; skipped", fold)
                    continue
                model, result = fit(rep_cfg, store, train_view, val_view)
                ckpt = out_dir / f"model_{scheme}_rep{rep}_fold{fold}.ckpt"
                model.save(ckpt, run_config_text=rep_cfg.snapshot())
                report = result.best_report
                if report is None:  # no epoch was evaluated
                    y, w = store.pair_targets(val_view)
                    report = evaluate_predictions(
                        y, store.predict(model, val_view), w)
                rows.append({"seed": rep_seed, "repetition": rep,
                             "fold": fold, "report": report, "audit": audit})
                # free this fold's parameters and optimizer state before the
                # next fold's fit allocates its own
                del model, result
        report_path = out_dir / f"report_{scheme}.csv"
        write_report(report_path, cfg, rows, scheme, seed)
    return report_path


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6g}"


def _metric_cells(report: EvalReport) -> list[str]:
    """``task_id,n_records,rmse,r2,ci`` of each task, then of the aggregate."""
    return [f"{key},{m.n_records},{_fmt(m.rmse)},{_fmt(m.r2)},{_fmt(m.ci)}"
            for key, m in [*((t.task_id, t) for t in report.tasks),
                           ("aggregate", report)]]


def write_report(path: str | Path, cfg: RunConfig, rows: list[dict],
                 scheme: str, seed: int) -> None:
    """The cv report; each row is a fold's ``seed``, ``repetition``,
    ``fold``, ``report`` and ``audit``."""
    config_lines = [f"# config.{line}" for line in cfg.snapshot().splitlines()
                    if line and not line.startswith("[")]
    header = ("scheme,seed,repetition,fold,task_id,n_records,"
              "rmse,r2,ci,leakage_audit")
    out = [f"# scheme={scheme}", f"# seed={seed}"]
    out.extend(config_lines)
    out.append(header)
    for row in rows:
        prefix = f"{scheme},{row['seed']},{row['repetition']},{row['fold']},"
        out.extend(f"{prefix}{cells},{row['audit']}"
                   for cells in _metric_cells(row["report"]))
    for metric in ("rmse", "r2", "ci"):
        values = [getattr(row["report"], metric) for row in rows
                  if getattr(row["report"], metric) is not None]
        if not values:
            continue
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        out.append(f"{scheme},{seed},mean,,{metric},,{mean:.6g},,,")
        out.append(f"{scheme},{seed},std,,{metric},,{std:.6g},,,")
    write_lines(path, out)


def read_report(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Report file -> (comment lines, data rows); inverse of ``write_report``."""
    comments: list[str] = []
    rows: list[list[str]] = []
    for _, line in read_lines(path, PipelineError):
        if line.startswith("#"):
            comments.append(line)
        elif line:
            rows.append(line.split(","))
    return comments, rows


# -- prediction -----------------------------------------------------------------


def _pair_table(path: str | Path, needed: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> dict[str, list]:
    """``line`` (each data row's line number), the ``needed`` columns and
    the ``optional`` ones the header has, by name, one entry per row.

    Other columns are ignored, blank rows skipped and fields stripped. A
    ``task_id`` column holds non-negative integers (zeros if it is optional
    and absent). A header without a ``needed`` column, a row shorter than
    the header and a bad ``task_id`` fail naming the file (and the line).
    """
    lines = read_lines(path, PipelineError)
    header = next(lines, (1, ""))[1].split(",")
    missing = [name for name in needed if name not in header]
    if missing:
        raise PipelineError(f"{path}: no {missing[0]!r} column")
    columns = {name: header.index(name) for name in needed + optional
               if name in header}
    table: dict[str, list] = {name: [] for name in ("line", *columns)}
    for lineno, line in lines:
        if not line:
            continue
        row = line.split(",")
        if len(row) < len(header):
            raise PipelineError(f"{path}: line {lineno}: expected "
                                f"{len(header)} fields, got {len(row)}")
        table["line"].append(lineno)
        for name, col in columns.items():
            table[name].append(row[col].strip())
        if "task_id" in columns:
            text = table["task_id"][-1]
            try:
                task = int(text)
            except ValueError:
                task = -1
            if task < 0:
                raise PipelineError(f"{path}: line {lineno}: task_id "
                                    f"{text!r} is not a non-negative integer")
            table["task_id"][-1] = task
    if "task_id" in optional and "task_id" not in columns:
        table["task_id"] = [0] * len(table["line"])
    return table


def _task_outside(path, lineno: int, task: int,
                  n_tasks: int) -> PipelineError:
    return PipelineError(f"{path}: line {lineno}: task_id {task} outside "
                         f"the model's 0..{n_tasks - 1}")


def _responses(path, table: dict[str, list], n_tasks: int | None = None,
               inactive_remap=None
               ) -> tuple[np.ndarray, np.ndarray, list, list]:
    """``(y, w, kept, ids)`` of a table's ``value`` and ``task_id`` columns:
    row ``i`` holds the response of table row ``kept[i]`` in the column of
    its task, with weight 1 there, and ``ids`` holds each column's task id.

    Values go through ingestion's imprecise-value rule, ``inactive_remap``
    and transform: imprecise rows (any value that is not a precise finite
    number) are discarded and counted in the log; a value that the
    transform rejects fails naming its line, as does a kept row's task
    outside ``n_tasks`` when given.
    With ``n_tasks`` the columns are the tasks 0 to ``n_tasks - 1``;
    without it they are the distinct kept task ids, in ascending order.
    """
    kept, values = [], []
    for i, (lineno, task, text) in enumerate(
            zip(table["line"], table["task_id"], table["value"])):
        raw = data_mod.parse_value(text)
        if raw is None:
            continue
        if n_tasks is not None and task >= n_tasks:
            raise _task_outside(path, lineno, task, n_tasks)
        try:
            values.append(data_mod.transform_value(raw, inactive_remap))
        except data_mod.DataError as exc:
            raise PipelineError(f"{path}: line {lineno}: {exc}") from None
        kept.append(i)
    discarded = len(table["line"]) - len(kept)
    if discarded:
        log.info("discarded %d imprecise value row(s) from %s", discarded,
                 path)
    tasks = [table["task_id"][i] for i in kept]
    ids = list(range(n_tasks)) if n_tasks is not None else sorted(set(tasks))
    column = {task: k for k, task in enumerate(ids)}
    columns = [column[task] for task in tasks]
    y = np.zeros((len(kept), len(ids)))
    w = np.zeros((len(kept), len(ids)))
    y[np.arange(len(kept)), columns] = values
    w[np.arange(len(kept)), columns] = 1.0
    return y, w, kept, ids


def _parse_compounds(path, table: dict[str, list]
                     ) -> tuple[dict[str, int], MoleculeTable]:
    """The distinct SMILES of ``table`` (SMILES -> row, in file order) and
    their molecule table; one the parser rejects fails naming its line."""
    compounds: dict[str, int] = {}
    columns = MoleculeColumns()
    for lineno, smiles in zip(table["line"], table["smiles"]):
        data_mod.parse_compound(compounds, columns, smiles, path, lineno)
    return compounds, columns.table()


def _prediction_store(cfg, table: dict[str, list], sequences, n_tasks: int,
                      source) -> FeatureStore:
    """A :class:`FeatureStore` over the table's pairs, without responses."""
    protein_ids = tuple(dict.fromkeys(table["protein_id"]))
    if not cfg.compound_only:
        missing = [p for p in protein_ids if p not in sequences]
        if missing:
            raise PipelineError(
                f"{source}: no sequence for protein id {missing[0]!r}")
    compounds, molecules = _parse_compounds(source, table)
    protein_index = {p: i for i, p in enumerate(protein_ids)}
    pairs = np.array([(compounds[s], protein_index[p]) for s, p in
                      zip(table["smiles"], table["protein_id"])],
                     dtype=np.int64)
    dataset = data_mod.PairDataset(
        compounds=tuple(compounds), molecules=molecules,
        protein_ids=protein_ids,
        sequences={p: sequences[p] for p in protein_ids if p in sequences},
        pairs=pairs, y=np.zeros((len(pairs), n_tasks)),
        w=np.zeros((len(pairs), n_tasks)), n_tasks=n_tasks)
    return FeatureStore(dataset, cfg)


def run_predict(model_path: str | Path, pairs_csv: str | Path,
                proteins_path: str | Path, out_csv: str | Path,
                ad_from: str | Path | None = None) -> Path:
    """Predict interaction strengths for (compound, protein) pairs.

    ``ad_from`` points at a table with a ``value`` column; when given, an
    ``in_ad`` column reports whether each *predicted* value falls in the
    per-task response range fitted on those responses. They are read by
    :func:`_responses` with the inactive-value remap of the run config
    embedded in the checkpoint; a checkpoint without one reads them without
    a remap.
    """
    model, extras = Model.load(model_path)
    table = _pair_table(pairs_csv, ("smiles", "protein_id"),
                        ("task_id", "value"))
    n_tasks = model.cfg.n_tasks
    for lineno, task in zip(table["line"], table["task_id"]):
        if task >= n_tasks:
            raise _task_outside(pairs_csv, lineno, task, n_tasks)
    predictions = np.empty((0, n_tasks))
    if table["line"]:
        sequences = proteins.read_sequence_table(proteins_path)
        store = _prediction_store(model.cfg, table, sequences, n_tasks,
                                  pairs_csv)
        predictions = store.predict(model, np.arange(len(table["line"])))
    ad_ranges = None
    if ad_from is not None:
        remap = (None if extras["run_config"] is None else
                 RunConfig.from_snapshot(extras["run_config"]).inactive_remap())
        y, w, _, _ = _responses(ad_from,
                             _pair_table(ad_from, ("value",), ("task_id",)),
                             n_tasks, remap)
        ad_ranges = fit_ad_per_task(y, w)
    has_value = "value" in table
    header = ["smiles", "protein_id", "task_id"]
    if has_value:
        header.append("value")
    header.append("prediction")
    if ad_ranges is not None:
        header.append("in_ad")

    def lines():
        yield ",".join(header)
        for i, (smiles, protein_id, task) in enumerate(
                zip(table["smiles"], table["protein_id"], table["task_id"])):
            pred = predictions[i, task]
            fields = [smiles, protein_id, str(task)]
            if has_value:
                fields.append(table["value"][i])
            fields.append(f"{pred:.6g}")
            if ad_ranges is not None:
                ad = ad_ranges[task]
                fields.append("1" if ad is not None and check_ad(ad, pred)
                              else "0")
            yield ",".join(fields)

    write_lines(out_csv, lines())
    return Path(out_csv)


def run_evaluate(predictions_csv: str | Path,
                 out_csv: str | Path) -> EvalReport:
    """Score a prediction CSV that carries both value and prediction columns.

    Values are read as ``--ad-from`` reads them (:func:`_responses`); every
    row's prediction must be a finite number, else it fails naming the line.
    The report has one row per task id present, labelled with that id.
    """
    path = predictions_csv
    table = _pair_table(path, ("value", "prediction"), ("task_id",))
    predictions = []
    for lineno, text in zip(table["line"], table["prediction"]):
        try:
            prediction = float(text)
        except ValueError:
            prediction = np.nan
        if not np.isfinite(prediction):
            raise PipelineError(f"{path}: line {lineno}: prediction "
                                f"{text!r} is not a number")
        predictions.append(prediction)
    y, w, kept, ids = _responses(path, table)
    if not kept:
        raise PipelineError(f"{path}: no prediction rows")
    f = w * np.array(predictions)[kept, None]
    report = evaluate_predictions(y, f, w)
    for task, task_id in zip(report.tasks, ids):
        task.task_id = task_id
    write_lines(out_csv, ["task_id,n_records,rmse,r2,ci",
                          *_metric_cells(report)])
    return report


# -- tuning -----------------------------------------------------------------


def run_tune(cfg: RunConfig, dataset: data_mod.PairDataset,
             out_dir: str | Path, budget: int | None = None,
             strategy: str | None = None,
             space_path: str | Path | None = None) -> Path:
    """Search the space for the run config that fits best on the holdout.

    A trial fits ``cfg`` with its point's overrides applied, on the holdout
    split :func:`run_training` uses, and scores the best validation
    composite. Writes ``trials.csv`` and the best trial's full config as
    ``best_config.cfg``; returns the latter's path.
    """
    params = cfg.override(_given({"tune.budget": budget,
                                  "tune.strategy": strategy})).tune_params()
    budget = params["budget"]
    strategy = params["strategy"]
    space = load_space(space_path) if space_path else default_search_space()
    out_dir = Path(out_dir)
    train_idx, val_idx = _holdout(cfg, dataset.n_pairs)
    # no search dimension changes featurization, so every trial shares one
    store = _feature_store(cfg, dataset)

    def objective(point: dict) -> float:
        _, result = fit(cfg.override(point_overrides(point)), store,
                        train_idx, val_idx)
        return result.best_score

    with DirectoryLock(out_dir):
        if strategy == "random":
            result = random_search(space, objective, budget, seed=params["seed"])
        else:
            result = gp_ei_search(space, objective, budget,
                                  n_init=min(params["n_init"], budget - 1),
                                  seed=params["seed"])
        lines = ["trial,status,value," + ",".join(space.dimensions)]
        for t in result.trials:
            point = ",".join(str(t.point[name]) for name in space.dimensions)
            value = "" if t.value is None else f"{t.value:.6g}"
            lines.append(f"{t.index},{t.status},{value},{point}")
        write_lines(out_dir / "trials.csv", lines)
        best_path = out_dir / "best_config.cfg"
        best = cfg.override(point_overrides(result.best.point))
        write_artifact(best_path, [best.snapshot().encode("utf-8")])
    return best_path


# -- featurize artifacts -----------------------------------------------------


def read_compounds(path: str | Path) -> tuple[dict[str, int], MoleculeTable]:
    """The distinct SMILES of the table at ``path`` (SMILES -> row) and
    their molecule table."""
    return _parse_compounds(path, _pair_table(path, ("smiles",)))


def write_fingerprint_csv(cfg: RunConfig, compounds: Iterable[str],
                          molecules: MoleculeTable,
                          out_csv: str | Path) -> None:
    """``smiles,fingerprint_hex`` rows of ``compounds``, whose molecules are
    the rows of ``molecules``, with ``cfg``'s fingerprint settings."""
    model_cfg = cfg.model_config(n_tasks=1)
    matrix = ecfp_matrix(molecules, model_cfg.fp_radius, model_cfg.fp_bits)
    lines = ["smiles,fingerprint_hex"]
    for smiles, bits in zip(compounds, matrix):
        lines.append(f"{smiles},{np.packbits(bits).tobytes().hex()}")
    write_lines(out_csv, lines)


# -- smoke ---------------------------------------------------------------------


def end_to_end_smoke(fixture_dir: str | Path, work_dir: str | Path,
                     seed: int = 0) -> list[str]:
    """featurize -> split (all four schemes) -> train -> predict -> evaluate.

    Runs on the bundled fixture format with a deliberately tiny model; every
    artifact written is read back. Returns the completed stage names and
    raises :class:`SmokeError` naming the first failing stage.
    """
    fixture_dir = Path(fixture_dir)
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    stages: list[str] = []
    cfg = parse_run_config(None, overrides={
        "model.hidden_layers": "16",
        "model.fp_bits": "512",
        "train.max_epochs": "3",
        "train.batch_size": "16",
        "split.repetitions": "1",
    })

    def stage(name: str, fn):
        try:
            value = fn()
        except Exception as exc:
            raise SmokeError(name, exc) from exc
        stages.append(name)
        return value

    dataset = stage("ingest", lambda: load_pair_dataset(cfg, fixture_dir))

    def do_featurize():
        fp_csv = work_dir / "fingerprints.csv"
        write_fingerprint_csv(cfg, dataset.compounds, dataset.molecules,
                              fp_csv)
        parsed = fp_csv.read_text(encoding="utf-8").splitlines()
        assert len(parsed) == len(dataset.compounds) + 1
        psc_path = work_dir / "descriptors.bin"
        matrix = proteins.descriptor_matrix(dataset.sequences,
                                            dataset.protein_ids)
        proteins.write_descriptor_matrix(psc_path, list(dataset.protein_ids),
                                         matrix)
        ids, loaded = proteins.read_descriptor_matrix(psc_path)
        assert ids == list(dataset.protein_ids)
        assert np.array_equal(loaded, matrix)

    stage("featurize", do_featurize)

    def do_splits():
        for scheme in ("warm", "cold-drug", "cold-target", "cold-cluster"):
            assignment = build_assignment(cfg, dataset, scheme, k=3, seed=seed)
            path = work_dir / f"folds_{scheme}.csv"
            write_folds(path, assignment)
            loaded = read_folds(path)
            assert np.array_equal(loaded.folds, assignment.folds)
            audit = _leakage_audit(assignment, dataset)
            assert audit == "pass", f"{scheme} leakage audit failed"

    stage("split", do_splits)
    ckpt = stage("train", lambda: run_training(cfg, dataset,
                                               work_dir / "model.ckpt",
                                               seed=seed))

    def do_predict():
        pairs_csv = work_dir / "pairs.csv"
        lines = ["smiles,protein_id,task_id,value"]
        for row in range(dataset.n_pairs):
            ci, pi = dataset.pairs[row]
            raw = data_mod.inverse_transform(dataset.y[row, 0])
            lines.append(f"{dataset.compounds[ci]},{dataset.protein_ids[pi]},"
                         f"0,{raw:.6g}")
        write_lines(pairs_csv, lines)
        return run_predict(ckpt, pairs_csv, fixture_dir / "proteins.tsv",
                           work_dir / "predictions.csv", ad_from=pairs_csv)

    preds = stage("predict", do_predict)
    stage("evaluate", lambda: run_evaluate(preds, work_dir / "report.csv"))
    return stages
