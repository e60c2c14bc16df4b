"""End-to-end orchestration shared by the command-line entry points.

Every model is fitted by :func:`fit` from a :class:`RunConfig`: ``train``
fits the config on its seeded holdout split, each ``cv`` fold fits it with
the repetition's seeds applied as overrides, and each ``tune`` trial fits it
with the trial's search point applied as overrides
(:func:`tuning.point_overrides`) on the same holdout split ``train`` uses.
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

A run directory is owned by a single process at a time, enforced with a
lock file.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import socket
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import proteins
from .compounds import ecfp_matrix
from .domain import check_ad, fit_ad_per_task
from .metrics import EvalReport, evaluate_predictions
from .model import FeatureStore, Model
from .runconfig import RunConfig, parse_run_config
from .smiles import MolGraph
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
           "run_predict", "run_evaluate", "run_tune", "write_fingerprint_csv",
           "write_report", "read_report", "end_to_end_smoke"]

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


def build_assignment(cfg: RunConfig, dataset: data_mod.PairDataset,
                     scheme: str, k: int, seed: int,
                     clustering=None) -> FoldAssignment:
    """A ``k``-fold ``scheme`` split of the dataset's records; a cold-cluster
    split uses ``clustering``, else :func:`_cluster_dataset`'s."""
    drug_ids = [dataset.compounds[i] for i in dataset.pairs[:, 0]]
    target_ids = [dataset.protein_ids[i] for i in dataset.pairs[:, 1]]
    if scheme == "warm":
        return warm_split(drug_ids, target_ids, k, seed)
    if scheme == "cold-drug":
        return cold_entity_split(drug_ids, target_ids, k, seed, axis="drug")
    if scheme == "cold-target":
        return cold_entity_split(drug_ids, target_ids, k, seed, axis="target")
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
    drug_ids = [dataset.compounds[i] for i in dataset.pairs[:, 0]]
    target_ids = [dataset.protein_ids[i] for i in dataset.pairs[:, 1]]
    if assignment.scheme == "warm":
        leaks = audit_warm(assignment, drug_ids, target_ids)
    elif assignment.scheme == "cold-drug":
        leaks = any(audit_cold(assignment, drug_ids).values())
    elif assignment.scheme == "cold-target":
        leaks = any(audit_cold(assignment, target_ids).values())
    elif assignment.scheme == "cold-cluster":
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
    model.save(out_checkpoint, optimizer_step=result.best_optimizer_step,
               optimizer_arrays=result.best_optimizer,
               run_config_text=run_cfg.snapshot())
    history_path = out_checkpoint.with_suffix(out_checkpoint.suffix + ".history.csv")
    history_path.write_text("\n".join(history_rows(result)) + "\n",
                            encoding="utf-8")
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
    the feature store's fingerprints if it holds them. A fold checkpoint
    embeds its repetition's seeded config.
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
    fold_metrics: list[EvalReport] = []
    with DirectoryLock(out_dir):
        store = _feature_store(cfg, dataset)
        clustering = (_cluster_dataset(cfg, dataset, store.fingerprint_matrix)
                      if scheme == "cold-cluster" else None)
        if precomputed is not None and clustering is not None:
            precomputed.record_clusters = clustering.labels[dataset.pairs[:, 0]]
        for rep in range(repetitions):
            rep_seed = seed + rep
            if precomputed is not None:
                assignment = precomputed
            else:
                assignment = build_assignment(cfg, dataset, scheme, k,
                                              rep_seed, clustering)
            audit = _leakage_audit(assignment, dataset)
            write_folds(out_dir / f"folds_{scheme}_rep{rep}.csv", assignment)
            _, holdout = hyperopt_holdout(dataset.n_pairs, seed=rep_seed,
                                          fraction=cfg.holdout_fraction())
            rep_cfg = _seeded(cfg, model_cfg.seed + rep, train_seed + rep)
            for fold, (train_view, val_view) in enumerate(
                    fold_views(assignment, holdout)):
                if val_view.size == 0:
                    log.warning("fold %d has no validation records after "
                                "holdout exclusion; skipped", fold)
                    continue
                model, result = fit(rep_cfg, store, train_view, val_view)
                ckpt = out_dir / f"model_{scheme}_rep{rep}_fold{fold}.ckpt"
                model.save(ckpt, optimizer_step=result.best_optimizer_step,
                           optimizer_arrays=result.best_optimizer,
                           run_config_text=rep_cfg.snapshot())
                predicted = store.predict(model, val_view)
                y, w = store.pair_targets(val_view)
                report = evaluate_predictions(y, predicted, w, scheme=scheme,
                                              seed=rep_seed)
                fold_metrics.append(report)
                rows.append({"repetition": rep, "fold": fold,
                             "report": report, "audit": audit})
                # free this fold's parameters and optimizer state before the
                # next fold's fit allocates its own
                del model, result
        report_path = out_dir / f"report_{scheme}.csv"
        write_report(report_path, cfg, rows, fold_metrics, scheme, seed)
    return report_path


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6g}"


def write_report(path: str | Path, cfg: RunConfig, rows: list[dict],
                 fold_metrics: list[EvalReport], scheme: str,
                 seed: int) -> None:
    config_lines = [f"# config.{line}" for line in cfg.snapshot().splitlines()
                    if line and not line.startswith("[")]
    header = ("scheme,seed,repetition,fold,task_id,n_records,"
              "rmse,r2,ci,leakage_audit")
    out = [f"# scheme={scheme}", f"# seed={seed}"]
    out.extend(config_lines)
    out.append(header)
    for row in rows:
        report: EvalReport = row["report"]
        for task in report.tasks:
            out.append(
                f"{scheme},{report.seed},{row['repetition']},{row['fold']},"
                f"{task.task_id},{task.n_records},{_fmt(task.rmse)},"
                f"{_fmt(task.r2)},{_fmt(task.ci)},{row['audit']}")
        out.append(
            f"{scheme},{report.seed},{row['repetition']},{row['fold']},"
            f"aggregate,{report.n_records},{_fmt(report.rmse)},"
            f"{_fmt(report.r2)},{_fmt(report.ci)},{row['audit']}")
    for metric in ("rmse", "r2", "ci"):
        values = [getattr(r, metric) for r in fold_metrics
                  if getattr(r, metric) is not None]
        if not values:
            continue
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        out.append(f"{scheme},{seed},mean,,{metric},,{mean:.6g},,,")
        out.append(f"{scheme},{seed},std,,{metric},,{std:.6g},,,")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_report(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Report file -> (comment lines, data rows); inverse of ``write_report``."""
    comments: list[str] = []
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif line:
                rows.append(line.split(","))
    return comments, rows


# -- prediction -----------------------------------------------------------------


def _data_rows(path, reader, n_fields: int):
    """``(line number, fields)`` per non-empty row after the header; a row
    with fewer than ``n_fields`` fields fails naming its line."""
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < n_fields:
            raise PipelineError(f"{path}: line {lineno}: expected "
                                f"{n_fields} fields, got {len(row)}")
        yield lineno, row


def _task_id(path, lineno: int, text: str) -> int:
    try:
        task = int(text)
    except ValueError:
        task = -1
    if task < 0:
        raise PipelineError(f"{path}: line {lineno}: task_id {text!r} is "
                            f"not a non-negative integer")
    return task


def _read_pairs_csv(path: str | Path):
    """(rows, has_value): one ``(line, smiles, protein_id, task_id, value)``
    per data row; ``value`` is the raw text, ``None`` without that column."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header[:2] != ["smiles", "protein_id"]:
            raise PipelineError(
                f"{path}: expected header starting 'smiles,protein_id'")
        has_task = "task_id" in header
        has_value = "value" in header
        task_col = header.index("task_id") if has_task else None
        value_col = header.index("value") if has_value else None
        rows = []
        for lineno, row in _data_rows(path, reader, len(header)):
            task = _task_id(path, lineno, row[task_col]) if has_task else 0
            value = row[value_col] if has_value else None
            rows.append((lineno, row[0].strip(), row[1].strip(), task, value))
    return rows, has_value


def _read_responses(path, rows, inactive_remap=None) -> tuple[list, list[int]]:
    """Transformed responses of ``(line, smiles, protein_id, task_id, value)``
    rows, and the line of each.

    Values go through ingestion's imprecise-value rule, ``inactive_remap``
    (as ``data.transform_values`` applies it) and transform: imprecise rows
    are discarded and counted in the log; a value that is not a number or
    that the transform rejects fails naming the line.
    """
    records, lines = [], []
    imprecise = 0
    for lineno, smiles, protein_id, task, value in rows:
        try:
            raw = data_mod.parse_value(value)
        except ValueError:
            raise PipelineError(f"{path}: line {lineno}: value {value!r} is "
                                f"not a number") from None
        if raw is None:
            imprecise += 1
            continue
        record = data_mod.InteractionRecord(smiles, protein_id, task, raw)
        try:
            records.extend(data_mod.transform_values([record],
                                                     inactive_remap))
        except data_mod.DataError as exc:
            raise PipelineError(f"{path}: line {lineno}: {exc}") from None
        lines.append(lineno)
    if imprecise:
        log.info("discarded %d imprecise value row(s) from %s",
                 imprecise, path)
    return records, lines


def _prediction_store(cfg, rows, sequences, n_tasks: int,
                      source) -> FeatureStore:
    """A :class:`FeatureStore` over the requested pairs, without responses;
    a SMILES the parser rejects fails naming its line of ``source``."""
    protein_ids = tuple(dict.fromkeys(r[2] for r in rows))
    if not cfg.compound_only:
        missing = [p for p in protein_ids if p not in sequences]
        if missing:
            raise PipelineError(
                f"{source}: no sequence for protein id {missing[0]!r}")
    molecules: dict[str, MolGraph] = {}
    for lineno, smiles, *_ in rows:
        data_mod.parse_compound(molecules, smiles, source, lineno)
    compound_index = {s: i for i, s in enumerate(molecules)}
    protein_index = {p: i for i, p in enumerate(protein_ids)}
    pairs = np.array([(compound_index[r[1]], protein_index[r[2]])
                      for r in rows], dtype=np.int64)
    dataset = data_mod.PairDataset(
        compounds=tuple(molecules), molecules=tuple(molecules.values()),
        protein_ids=protein_ids,
        sequences={p: sequences[p] for p in protein_ids if p in sequences},
        pairs=pairs, y=np.zeros((len(rows), n_tasks)),
        w=np.zeros((len(rows), n_tasks)), n_tasks=n_tasks)
    return FeatureStore(dataset, cfg)


def _fit_ad_ranges(path: str | Path, n_tasks: int, inactive_remap=None):
    """Per-task reliable response ranges fitted on a training-format CSV
    (values read by :func:`_read_responses`)."""
    rows, has_value = _read_pairs_csv(path)
    if not has_value:
        raise PipelineError(f"{path}: needs a 'value' column to fit the "
                            f"reliable response range")
    records, lines = _read_responses(path, rows, inactive_remap)
    for record, lineno in zip(records, lines):
        if record.task_id >= n_tasks:
            raise PipelineError(f"{path}: line {lineno}: task_id "
                                f"{record.task_id} outside the model's "
                                f"0..{n_tasks - 1}")
    y = np.zeros((len(records), n_tasks))
    w = np.zeros((len(records), n_tasks))
    for i, record in enumerate(records):
        y[i, record.task_id] = record.value
        w[i, record.task_id] = 1.0
    return fit_ad_per_task(y, w)


def run_predict(model_path: str | Path, pairs_csv: str | Path,
                proteins_path: str | Path, out_csv: str | Path,
                ad_from: str | Path | None = None) -> Path:
    """Predict interaction strengths for (compound, protein) pairs.

    ``ad_from`` points at a training-format CSV; when given, an ``in_ad``
    column reports whether each *predicted* value falls in the per-task
    response range fitted on those training responses. Their values are
    read with the inactive-value remap of the run config embedded in the
    checkpoint; a checkpoint without one reads them without a remap.
    """
    model, extras = Model.load(model_path)
    rows, has_value = _read_pairs_csv(pairs_csv)
    n_tasks = 1 if model.cfg.compound_only else model.cfg.n_tasks
    bad = next((r for r in rows if not 0 <= r[3] < n_tasks), None)
    if bad is not None:
        raise PipelineError(
            f"{pairs_csv}: line {bad[0]}: task_id {bad[3]} outside the "
            f"model's 0..{n_tasks - 1}")
    predictions = np.empty((0, n_tasks))
    if rows:
        sequences = proteins.read_sequence_table(proteins_path)
        store = _prediction_store(model.cfg, rows, sequences, n_tasks,
                                  pairs_csv)
        predictions = store.predict(model, np.arange(len(rows)))
    ad_ranges = None
    if ad_from is not None:
        remap = (None if extras["run_config"] is None else
                 RunConfig.from_snapshot(extras["run_config"]).inactive_remap())
        ad_ranges = _fit_ad_ranges(ad_from, n_tasks, remap)
    header = ["smiles", "protein_id", "task_id"]
    if has_value:
        header.append("value")
    header.append("prediction")
    if ad_ranges is not None:
        header.append("in_ad")
    lines = [",".join(header)]
    for i, (_line, smiles, protein_id, task, value) in enumerate(rows):
        pred = predictions[i, 0 if model.cfg.compound_only else task]
        fields = [smiles, protein_id, str(task)]
        if has_value:
            fields.append(value)
        fields.append(f"{pred:.6g}")
        if ad_ranges is not None:
            ad = ad_ranges[task]
            fields.append("1" if ad is not None and check_ad(ad, pred) else "0")
        lines.append(",".join(fields))
    Path(out_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Path(out_csv)


def run_evaluate(predictions_csv: str | Path, out_csv: str | Path,
                 scheme: str = "", seed: int = 0) -> EvalReport:
    """Score a prediction CSV that carries both value and prediction columns.

    Values are read as ``--ad-from`` reads them (:func:`_read_responses`).
    A short row, a task id that is not a non-negative integer, or a
    prediction that is not a finite number fails naming the line.
    """
    path = predictions_csv
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or "prediction" not in header or "value" not in header:
            raise PipelineError(
                f"{path}: needs 'value' and 'prediction' columns")
        column = {name: i for i, name in enumerate(header)}
        rows = []
        predictions: dict[int, float] = {}
        for lineno, row in _data_rows(path, reader, len(header)):
            task = (_task_id(path, lineno, row[column["task_id"]])
                    if "task_id" in column else 0)
            text = row[column["prediction"]]
            try:
                prediction = float(text)
            except ValueError:
                prediction = np.nan
            if not np.isfinite(prediction):
                raise PipelineError(f"{path}: line {lineno}: prediction "
                                    f"{text!r} is not a number")
            predictions[lineno] = prediction
            smiles, protein_id = (row[column[name]] if name in column else ""
                                  for name in ("smiles", "protein_id"))
            rows.append((lineno, smiles, protein_id, task,
                         row[column["value"]]))
    records, record_lines = _read_responses(path, rows)
    if not records:
        raise PipelineError(f"{path}: no prediction rows")
    n_tasks = max(record.task_id for record in records) + 1
    y = np.zeros((len(records), n_tasks))
    f = np.zeros((len(records), n_tasks))
    w = np.zeros((len(records), n_tasks))
    for i, (record, lineno) in enumerate(zip(records, record_lines)):
        y[i, record.task_id] = record.value
        f[i, record.task_id] = predictions[lineno]
        w[i, record.task_id] = 1.0
    report = evaluate_predictions(y, f, w, scheme=scheme, seed=seed)
    lines = ["task_id,n_records,rmse,r2,ci"]
    for task in report.tasks:
        lines.append(f"{task.task_id},{task.n_records},{_fmt(task.rmse)},"
                     f"{_fmt(task.r2)},{_fmt(task.ci)}")
    lines.append(f"aggregate,{report.n_records},{_fmt(report.rmse)},"
                 f"{_fmt(report.r2)},{_fmt(report.ci)}")
    Path(out_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
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
        (out_dir / "trials.csv").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")
        best_path = out_dir / "best_config.cfg"
        best_path.write_text(
            cfg.override(point_overrides(result.best.point)).snapshot(),
            encoding="utf-8")
    return best_path


# -- featurize artifacts -----------------------------------------------------


def write_fingerprint_csv(cfg: RunConfig, molecules: dict[str, MolGraph],
                          out_csv: str | Path) -> None:
    """``smiles,fingerprint_hex`` rows of ``molecules`` (SMILES -> graph)
    with ``cfg``'s fingerprint settings."""
    model_cfg = cfg.model_config(n_tasks=1)
    matrix = ecfp_matrix(list(molecules.values()), model_cfg.fp_radius,
                         model_cfg.fp_bits)
    lines = ["smiles,fingerprint_hex"]
    for smiles, bits in zip(molecules, matrix):
        lines.append(f"{smiles},{np.packbits(bits).tobytes().hex()}")
    Path(out_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
        write_fingerprint_csv(cfg, dict(zip(dataset.compounds,
                                            dataset.molecules)), fp_csv)
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
        pairs_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return run_predict(ckpt, pairs_csv, fixture_dir / "proteins.tsv",
                           work_dir / "predictions.csv", ad_from=pairs_csv)

    preds = stage("predict", do_predict)
    stage("evaluate", lambda: run_evaluate(preds, work_dir / "report.csv"))
    return stages
