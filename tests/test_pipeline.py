"""Pipeline orchestration and artifact round-trips."""

import logging
import re
from pathlib import Path

import numpy as np
import pytest

from dtanet.domain import check_ad, fit_ad
from dtanet.model import FeatureStore, Model
from dtanet.pipeline import (
    DirectoryLock,
    PipelineError,
    SmokeError,
    build_assignment,
    end_to_end_smoke,
    load_pair_dataset,
    read_report,
    run_cv,
    run_evaluate,
    run_predict,
    run_split,
    run_training,
    run_tune,
    write_report,
)
from dtanet.runconfig import ConfigError, RunConfig, parse_run_config
from dtanet.smiles import MoleculeColumns, parse_smiles
from dtanet.synthetic import write_fixture

TINY = {
    "model.hidden_layers": "16",
    "model.fp_bits": "512",
    "train.max_epochs": "2",
    "train.batch_size": "16",
    "split.repetitions": "1",
    "split.k": "2",
}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixture")
    write_fixture(directory, n_compounds=16, n_proteins=8, seed=0)
    return directory


@pytest.fixture()
def tiny_config():
    return parse_run_config(None, overrides=dict(TINY))


class TestFixtureGeneration:
    def test_fixture_parses_with_own_parser(self, fixture_dir):
        lines = (fixture_dir / "interactions.csv").read_text().splitlines()
        assert lines[0] == "smiles,protein_id,task_id,value"
        for line in lines[1:]:
            parse_smiles(line.split(",")[0])

    def test_every_entity_has_two_observations(self, fixture_dir, tiny_config):
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        drugs = [dataset.compounds[i] for i in dataset.pairs[:, 0]]
        targets = [dataset.protein_ids[i] for i in dataset.pairs[:, 1]]
        assert min(drugs.count(d) for d in set(drugs)) >= 2
        assert min(targets.count(t) for t in set(targets)) >= 2

    def test_deterministic(self, tmp_path):
        write_fixture(tmp_path / "a", seed=3)
        write_fixture(tmp_path / "b", seed=3)
        assert (tmp_path / "a" / "interactions.csv").read_bytes() == \
               (tmp_path / "b" / "interactions.csv").read_bytes()


class TestRunConfig:
    def test_snapshot_round_trips(self, tiny_config):
        cfg = tiny_config.override({"data.inactive_remap_from": "1e6",
                                    "data.inactive_remap_to": "1000"})
        again = RunConfig.from_snapshot(cfg.snapshot())
        assert again == cfg
        assert again.inactive_remap() == (1e6, 1000.0)
        assert tiny_config.inactive_remap() is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_run_config(None, overrides={"model.frobnicate": "1"})

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[nonsense]\nx=1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_run_config(path)

    @pytest.mark.parametrize("text, message", [
        (b"[train]\nseed = 1\nseed = 2\n",
         r"line 3: key train\.seed is set twice"),
        (b"seed = 1\n[train]\n",
         r"line 1: a line comes before the first \[section\] header"),
        (b"[train]\nseed = 1%\n", r"train\.seed: '%' must be followed"),
        (b"[train]\nseed = 1\n[model]\nseed = 2\xff\n",
         r"line 4: not UTF-8 text"),
        (b"[train]\nbogus = 1\n", r"unknown config key train\.bogus"),
        (b"[nonsense]\nx=1\n", r"unknown config section \[nonsense\]"),
    ], ids=["repeated-key", "no-section-header", "interpolation",
            "undecodable-byte", "unknown-key", "unknown-section"])
    def test_bad_file_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "bad.cfg"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match=rf"bad\.cfg: {message}"):
            parse_run_config(path)

    def test_snapshot_is_canonical(self, tiny_config):
        snap = tiny_config.snapshot()
        assert "[model]" in snap and "fp_bits=512" in snap
        again = parse_run_config(None, overrides=dict(TINY)).snapshot()
        assert snap == again

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[split]\nk=7\n", encoding="utf-8")
        cfg = parse_run_config(path)
        assert cfg.split_params()["k"] == 7

    def test_nonzero_oversample_fraction_is_refused(self, tmp_path):
        cfg = parse_run_config(
            None, overrides={"data.oversample_fraction": "0.3"})
        with pytest.raises(ConfigError,
                           match=r"data\.oversample_fraction: only 0 .*"
                                 r"cannot add a pair"):
            cfg.data_kwargs(tmp_path)
        # the key stays in snapshots at its default, which still loads
        default = parse_run_config(None)
        assert "oversample_fraction=0\n" in default.snapshot()
        assert "oversample_fraction" not in default.data_kwargs(tmp_path)

    def test_readme_config_block_parses_to_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.cfg"
        path.write_text(block, encoding="utf-8")
        assert parse_run_config(path).snapshot() == \
            parse_run_config(None).snapshot()

    @pytest.mark.parametrize("key, value", [
        ("split.k", "0"), ("split.k", "1"), ("split.repetitions", "0"),
        ("tune.budget", "0")])
    def test_too_small_counts_rejected_from_file_and_set(self, tmp_path, key,
                                                         value):
        section, name = key.split(".")
        path = tmp_path / "run.cfg"
        path.write_text(f"[{section}]\n{name} = {value}\n", encoding="utf-8")
        for cfg in (parse_run_config(path),
                    parse_run_config(None, overrides={key: value})):
            params = (cfg.split_params if section == "split"
                      else cfg.tune_params)
            with pytest.raises(ConfigError, match=f"{key}: must be at least"):
                params()

    @pytest.mark.parametrize("key, value", [
        ("data.malformed_tolerance", "-1"), ("data.min_obs", "-2"),
        ("data.n_tasks", "-3"), ("tune.n_init", "-2"), ("model.seed", "-1"),
        ("train.seed", "-1"), ("split.seed", "-1"), ("tune.seed", "-1")])
    def test_negative_counts_and_seeds_rejected(self, key, value):
        cfg = parse_run_config(None, overrides={key: value})
        read = {"data": lambda: cfg.data_kwargs(Path(".")),
                "model": lambda: cfg.model_config(1),
                "train": cfg.train_config, "split": cfg.split_params,
                "tune": cfg.tune_params}[key.split(".")[0]]
        with pytest.raises(ConfigError,
                           match=re.escape(f"{key}: must be at least 0")):
            read()

    @pytest.mark.parametrize("key, value", [
        ("train.holdout_fraction", "-0.1"), ("train.holdout_fraction", "1"),
        ("train.holdout_fraction", "1.5"), ("train.holdout_fraction", "nan"),
        ("split.cluster_threshold", "-0.1"),
        ("split.cluster_threshold", "1.01"),
        ("split.cluster_threshold", "nan"),
        ("split.cluster_threshold", "inf")])
    def test_fractions_outside_their_interval_rejected(self, key, value):
        cfg = parse_run_config(None, overrides={key: value})
        read, interval = ((cfg.holdout_fraction, "[0, 1)")
                          if key.startswith("train")
                          else (cfg.split_params, "[0, 1]"))
        with pytest.raises(ConfigError,
                           match=re.escape(f"{key}: must be in {interval}")):
            read()

    @pytest.mark.parametrize("holdout, threshold", [("0", "0"),
                                                    ("0.99", "1")])
    def test_fractions_at_their_bounds_accepted(self, holdout, threshold):
        cfg = parse_run_config(None, overrides={
            "train.holdout_fraction": holdout,
            "split.cluster_threshold": threshold})
        assert cfg.holdout_fraction() == float(holdout)
        assert cfg.split_params()["cluster_threshold"] == float(threshold)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.001", "0"])
    def test_learning_rate_not_finite_and_positive_rejected(self, tmp_path,
                                                            value):
        path = tmp_path / "run.cfg"
        path.write_text(f"[train]\nlearning_rate = {value}\n",
                        encoding="utf-8")
        for cfg in (parse_run_config(path), parse_run_config(
                None, overrides={"train.learning_rate": value})):
            with pytest.raises(ConfigError,
                               match=r"train\.learning_rate: must be finite "
                                     r"and > 0"):
                cfg.train_config()

    def test_smallest_positive_learning_rate_accepted(self):
        cfg = parse_run_config(None,
                               overrides={"train.learning_rate": "5e-324"})
        assert cfg.train_config().learning_rate == 5e-324


class TestExplicitCounts:
    """An explicit keyword count is used or rejected, never replaced by
    the config's."""

    @pytest.mark.parametrize("k", [0, 1])
    def test_split_k_below_two_rejected(self, fixture_dir, tiny_config,
                                        tmp_path, k):
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        with pytest.raises(ConfigError, match="split.k"):
            run_split(tiny_config, dataset, tmp_path / "folds.csv",
                      scheme="random", k=k)
        assert not (tmp_path / "folds.csv").exists()

    def test_cv_zero_repetitions_rejected(self, fixture_dir, tiny_config,
                                          tmp_path):
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        with pytest.raises(ConfigError, match="split.repetitions"):
            run_cv(tiny_config, dataset, tmp_path / "cv", repetitions=0)
        with pytest.raises(ConfigError, match="split.k"):
            run_cv(tiny_config, dataset, tmp_path / "cv", k=0)

    def test_tune_zero_budget_rejected(self, fixture_dir, tiny_config,
                                       tmp_path):
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        with pytest.raises(ConfigError, match="tune.budget"):
            run_tune(tiny_config, dataset, tmp_path / "tune", budget=0,
                     strategy="random")
        assert not (tmp_path / "tune" / "trials.csv").exists()

    @pytest.mark.parametrize("fraction", ["-0.5", "1.5"])
    def test_training_refuses_a_bad_holdout_fraction(self, fixture_dir,
                                                     tmp_path, fraction):
        cfg = parse_run_config(None, overrides={
            **TINY, "train.holdout_fraction": fraction})
        dataset = load_pair_dataset(cfg, fixture_dir)
        with pytest.raises(ConfigError, match="train.holdout_fraction"):
            run_training(cfg, dataset, tmp_path / "model.ckpt")
        assert not (tmp_path / "model.ckpt").exists()

    def test_cold_cluster_split_refuses_a_bad_threshold(self, fixture_dir,
                                                        tmp_path):
        cfg = parse_run_config(None, overrides={
            **TINY, "split.cluster_threshold": "nan"})
        dataset = load_pair_dataset(cfg, fixture_dir)
        with pytest.raises(ConfigError, match="split.cluster_threshold"):
            run_split(cfg, dataset, tmp_path / "folds.csv",
                      scheme="cold-cluster")
        assert not (tmp_path / "folds.csv").exists()

    def test_explicit_k_is_used(self, fixture_dir, tiny_config, tmp_path):
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        assignment = run_split(tiny_config, dataset, tmp_path / "folds.csv",
                               scheme="random", k=3)
        assert assignment.k == 3 != tiny_config.split_params()["k"]


class TestTrainingCommand:
    def test_checkpoint_and_history(self, fixture_dir, tiny_config, tmp_path):
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        ckpt = run_training(tiny_config, dataset, tmp_path / "m.ckpt", seed=1)
        assert ckpt.exists()
        history = (tmp_path / "m.ckpt.history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_rmse,val_ci,composite"
        assert len(history) >= 2
        model, extras = Model.load(ckpt)
        assert extras["run_config"] == tiny_config.override(
            {"model.seed": 1, "train.seed": 1}).snapshot()
        assert extras.keys() == {"run_config"}  # no optimizer state

    def test_embedded_config_refits_the_same_checkpoint(
            self, fixture_dir, tiny_config, tmp_path):
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        first = run_training(tiny_config, dataset, tmp_path / "a.ckpt", seed=3)
        _, extras = Model.load(first)
        again = run_training(RunConfig.from_snapshot(extras["run_config"]),
                             dataset, tmp_path / "b.ckpt")
        assert first.read_bytes() == again.read_bytes()


class TestCvCommand:
    def test_report_structure_and_round_trip(self, fixture_dir, tiny_config,
                                             tmp_path):
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        report_path = run_cv(tiny_config, dataset, tmp_path / "cv",
                             scheme="warm")
        comments, rows = read_report(report_path)
        fold_rows = [r for r in rows if r[2] not in ("mean", "std")
                     and r[0] != "scheme"]
        assert all(r[9] == "pass" for r in fold_rows)  # leakage audit column
        aggregate_rows = [r for r in fold_rows if r[4] == "aggregate"]
        assert len(aggregate_rows) == 2  # k=2 folds, 1 repetition
        assert any(r[2] == "mean" for r in rows)
        assert any(r[2] == "std" for r in rows)
        assert any("config.fp_bits=512" in c for c in comments)
        # byte-identical rewrite through the reader is covered for folds;
        # reports must at least re-parse to the same rows
        text = report_path.read_text(encoding="utf-8")
        report_path.write_text(text, encoding="utf-8")
        assert read_report(report_path) == (comments, rows)

    def test_two_repetitions_generically_differ(self, fixture_dir, tmp_path):
        cfg = parse_run_config(None, overrides={**TINY,
                                                "split.repetitions": "2"})
        dataset = load_pair_dataset(cfg, fixture_dir)
        report_path = run_cv(cfg, dataset, tmp_path / "cv2", scheme="random")
        _, rows = read_report(report_path)
        std_rows = [r for r in rows if r[2] == "std" and r[4] == "rmse"]
        assert float(std_rows[0][6]) > 0.0

    def test_cold_scheme_audit_pass(self, fixture_dir, tiny_config, tmp_path):
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        report_path = run_cv(tiny_config, dataset, tmp_path / "cv3",
                             scheme="cold-drug")
        _, rows = read_report(report_path)
        fold_rows = [r for r in rows if r[2] not in ("mean", "std")
                     and r[0] != "scheme"]
        assert fold_rows and all(r[9] == "pass" for r in fold_rows)

    def test_cold_cluster_audit_uses_the_split_fingerprints(
            self, fixture_dir, tmp_path):
        # Clustered with radius-4, 4096-bit fingerprints at threshold 0.3,
        # this fixture's split is sound; clustered again with the default
        # fingerprints, some clusters span folds and the audit would say FAIL.
        cfg = parse_run_config(None, overrides={
            **TINY, "model.fp_radius": "4", "model.fp_bits": "4096",
            "split.cluster_threshold": "0.3", "split.k": "3",
            "train.max_epochs": "1"})
        dataset = load_pair_dataset(cfg, fixture_dir)
        report_path = run_cv(cfg, dataset, tmp_path / "cvc",
                             scheme="cold-cluster")
        _, rows = read_report(report_path)
        fold_rows = [r for r in rows if r[2] not in ("mean", "std")
                     and r[0] != "scheme"]
        assert fold_rows and all(r[9] == "pass" for r in fold_rows)

    def test_replays_fold_csv_from_split(self, fixture_dir, tiny_config,
                                         tmp_path):
        from dtanet.splits import write_folds

        dataset = load_pair_dataset(tiny_config, fixture_dir)
        assignment = build_assignment(tiny_config, dataset, "cold-target",
                                      k=2, seed=4)
        folds_csv = tmp_path / "folds.csv"
        write_folds(folds_csv, assignment)
        report_path = run_cv(tiny_config, dataset, tmp_path / "cv4",
                             folds_path=folds_csv)
        _, rows = read_report(report_path)
        data_rows = [r for r in rows if r[0] == "cold-target"]
        assert data_rows  # replayed scheme drives the report
        reps = {r[2] for r in data_rows if r[2] not in ("mean", "std")}
        assert reps == {"0"}

    def test_report_write_read_write_byte_identical(self, fixture_dir,
                                                    tiny_config, tmp_path):
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        report_path = run_cv(tiny_config, dataset, tmp_path / "cv5",
                             scheme="random")
        comments, rows = read_report(report_path)
        lines = comments + [",".join(row) for row in rows]
        assert "\n".join(lines) + "\n" == report_path.read_text()

    def test_each_fold_reports_its_best_epochs_validation(
            self, fixture_dir, tiny_config, tmp_path, monkeypatch):
        from dtanet import pipeline

        fits, scored = [], []
        real_train, real_predict = pipeline.train, FeatureStore.predict

        def train(*args):
            fits.append(real_train(*args))
            return fits[-1]

        def predict(store, model, indices, *args, **kwargs):
            scored.append(len(indices))
            return real_predict(store, model, indices, *args, **kwargs)

        monkeypatch.setattr(pipeline, "train", train)
        monkeypatch.setattr(FeatureStore, "predict", predict)
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        report_path = run_cv(tiny_config, dataset, tmp_path / "cv",
                             scheme="warm")
        _, rows = read_report(report_path)
        rmses = [float(r[6]) for r in rows if r[4] == "aggregate"]
        assert rmses == [float(f"{fit.best_report.rmse:.6g}")
                         for fit in fits]
        assert len(scored) == sum(row.composite is not None
                                  for fit in fits for row in fit.history)

    @pytest.mark.parametrize("train_seed", ["0", "3"])
    def test_validation_folds_exclude_the_tuning_holdout(
            self, fixture_dir, tmp_path, monkeypatch, train_seed):
        from dtanet import pipeline

        validated = []
        real_fit = pipeline.fit

        def fit(cfg, store, train_idx, val_idx):
            validated.append(np.asarray(val_idx))
            return real_fit(cfg, store, train_idx, val_idx)

        monkeypatch.setattr(pipeline, "fit", fit)
        cfg = parse_run_config(None, overrides={
            **TINY, "split.repetitions": "2", "train.max_epochs": "1",
            "train.seed": train_seed})
        dataset = load_pair_dataset(cfg, fixture_dir)
        run_tune(cfg, dataset, tmp_path / "tune", budget=1, strategy="random")
        (tuning_holdout,) = validated
        run_cv(cfg, dataset, tmp_path / "cv", scheme="random")
        folds = validated[1:]
        assert len(folds) == 4  # two repetitions of two folds
        for val_view in folds:
            assert np.intersect1d(val_view, tuning_holdout).size == 0

    def test_a_fold_without_an_evaluated_epoch_is_scored_once_fitted(
            self, fixture_dir, tiny_config, tmp_path):
        cfg = tiny_config.override({"train.eval_every": "3"})
        dataset = load_pair_dataset(cfg, fixture_dir)
        report_path = run_cv(cfg, dataset, tmp_path / "cv", scheme="warm")
        _, rows = read_report(report_path)
        aggregates = [r for r in rows if r[4] == "aggregate"]
        assert len(aggregates) == 2
        assert all(float(r[6]) > 0 for r in aggregates)

    def test_compound_only_variant_through_cv(self, fixture_dir, tmp_path):
        cfg = parse_run_config(None, overrides={
            **TINY, "model.variant": "compound-only-ecfp"})
        dataset = load_pair_dataset(cfg, fixture_dir)
        report_path = run_cv(cfg, dataset, tmp_path / "cv6",
                             scheme="cold-drug")
        _, rows = read_report(report_path)
        assert any(r[4] == "aggregate" for r in rows if r[0] == "cold-drug")

    def test_compound_only_rejects_cold_target(self, fixture_dir, tmp_path):
        cfg = parse_run_config(None, overrides={
            **TINY, "model.variant": "compound-only-ecfp"})
        dataset = load_pair_dataset(cfg, fixture_dir)
        with pytest.raises(PipelineError, match="cold-target"):
            run_cv(cfg, dataset, tmp_path / "cv7", scheme="cold-target")

    def test_lock_excludes_second_owner(self, tmp_path):
        with DirectoryLock(tmp_path / "run"):
            with pytest.raises(PipelineError, match="locked"):
                with DirectoryLock(tmp_path / "run"):
                    pass
        # released on exit
        with DirectoryLock(tmp_path / "run"):
            pass

    def test_lock_names_its_owner(self, tmp_path):
        import json
        import os
        import socket

        with DirectoryLock(tmp_path / "run") as lock:
            owner = json.loads(lock.path.read_text(encoding="utf-8"))
            assert owner == {"pid": os.getpid(),
                             "host": socket.gethostname()}
            with pytest.raises(PipelineError) as excinfo:
                with DirectoryLock(tmp_path / "run"):
                    pass
        assert (f"pid {os.getpid()} on host {socket.gethostname()}"
                in str(excinfo.value))
        # a stale lock from a process that died before writing its owner
        (tmp_path / "run" / ".lock").write_text("", encoding="utf-8")
        with pytest.raises(PipelineError, match="owner unknown"):
            with DirectoryLock(tmp_path / "run"):
                pass


class TestPredictEvaluate:
    def test_predict_with_ad_column(self, fixture_dir, tiny_config, tmp_path):
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        ckpt = run_training(tiny_config, dataset, tmp_path / "m.ckpt", seed=0)
        pairs_csv = tmp_path / "pairs.csv"
        lines = ["smiles,protein_id,task_id,value"]
        for row in range(min(10, dataset.n_pairs)):
            ci, pi = dataset.pairs[row]
            raw = 10.0 ** (4.0 - dataset.y[row, 0])
            lines.append(f"{dataset.compounds[ci]},"
                         f"{dataset.protein_ids[pi]},0,{raw:.6g}")
        pairs_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = run_predict(ckpt, pairs_csv, fixture_dir / "proteins.tsv",
                          tmp_path / "preds.csv", ad_from=pairs_csv)
        header, *rows = out.read_text().splitlines()
        assert header == "smiles,protein_id,task_id,value,prediction,in_ad"
        assert all(r.split(",")[-1] in ("0", "1") for r in rows)
        report = run_evaluate(out, tmp_path / "eval.csv")
        assert report.rmse is not None

    def test_graphconv_variant_predicts(self, fixture_dir, tmp_path):
        cfg = parse_run_config(None, overrides={
            **TINY, "model.variant": "padme-graphconv",
            "model.conv_widths": "8", "model.conv_dense": "16"})
        dataset = load_pair_dataset(cfg, fixture_dir)
        ckpt = run_training(cfg, dataset, tmp_path / "gc.ckpt", seed=0)
        pairs_csv = tmp_path / "pairs.csv"
        ci, pi = dataset.pairs[0]
        pairs_csv.write_text(
            "smiles,protein_id\n"
            f"{dataset.compounds[ci]},{dataset.protein_ids[pi]}\n",
            encoding="utf-8")
        out = run_predict(ckpt, pairs_csv, fixture_dir / "proteins.tsv",
                          tmp_path / "preds.csv")
        rows = out.read_text().splitlines()
        assert rows[0] == "smiles,protein_id,task_id,prediction"
        float(rows[1].rsplit(",", 1)[1])  # prediction parses as a number

    @pytest.mark.parametrize("variant", ["padme-ecfp", "padme-graphconv",
                                         "compound-only-ecfp",
                                         "compound-only-graphconv"])
    def test_rows_equal_feature_store_predict(self, fixture_dir, tmp_path,
                                              variant):
        cfg = parse_run_config(None, overrides={
            **TINY, "model.variant": variant, "model.conv_widths": "8",
            "model.conv_dense": "16"})
        dataset = load_pair_dataset(cfg, fixture_dir)
        store = FeatureStore(dataset, cfg.model_config(n_tasks=1))
        model = store.build_model()
        ckpt = tmp_path / "m.ckpt"
        model.save(ckpt)
        pairs_csv = tmp_path / "pairs.csv"
        pairs_csv.write_text("smiles,protein_id\n" + "".join(
            f"{dataset.compounds[c]},{dataset.protein_ids[p]}\n"
            for c, p in dataset.pairs), encoding="utf-8")
        out = run_predict(ckpt, pairs_csv, fixture_dir / "proteins.tsv",
                          tmp_path / "preds.csv")
        expected = store.predict(model, np.arange(dataset.n_pairs))[:, 0]
        printed = [line.rsplit(",", 1)[1]
                   for line in out.read_text().splitlines()[1:]]
        assert printed == [f"{v:.6g}" for v in expected]

    def test_ad_from_discards_imprecise_rows(self, fixture_dir, tiny_config,
                                             tmp_path, caplog):
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        ckpt = tmp_path / "m.ckpt"
        FeatureStore(dataset, tiny_config.model_config(n_tasks=1)) \
            .build_model().save(ckpt)
        pairs_csv = tmp_path / "pairs.csv"
        pairs_csv.write_text(
            "smiles,protein_id\n" + "".join(
                f"{dataset.compounds[c]},{dataset.protein_ids[p]}\n"
                for c, p in dataset.pairs[:6]), encoding="utf-8")
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("smiles,protein_id,task_id,value\n"
                             "CCO,P0000,0,100\n"
                             "CCO,P0001,0,>10000\n"
                             "CCN,P0000,0,5\n", encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="dtanet.pipeline"):
            out = run_predict(ckpt, pairs_csv, fixture_dir / "proteins.tsv",
                              tmp_path / "preds.csv", ad_from=train_csv)
        assert "discarded 1 imprecise value row(s)" in caplog.text
        ad = fit_ad([4.0 - np.log10(100.0), 4.0 - np.log10(5.0)])
        header, *rows = out.read_text().splitlines()
        assert header == "smiles,protein_id,task_id,prediction,in_ad"
        for row in rows:
            pred, in_ad = row.split(",")[-2:]
            assert in_ad == ("1" if check_ad(ad, float(pred)) else "0")

    def test_ad_from_applies_the_checkpoints_remap(self, fixture_dir,
                                                   tiny_config, tmp_path):
        # The sentinel 1e30 would transform to -26 and stretch the range over
        # every prediction; the checkpoint's config remaps it to 1e-22 (26).
        cfg = tiny_config.override({"data.inactive_remap_from": "1e30",
                                    "data.inactive_remap_to": "1e-22"})
        dataset = load_pair_dataset(cfg, fixture_dir)
        ckpt = tmp_path / "m.ckpt"
        FeatureStore(dataset, cfg.model_config(n_tasks=1)).build_model() \
            .save(ckpt, run_config_text=cfg.snapshot())
        pairs_csv = tmp_path / "pairs.csv"
        pairs_csv.write_text(
            "smiles,protein_id\n" + "".join(
                f"{dataset.compounds[c]},{dataset.protein_ids[p]}\n"
                for c, p in dataset.pairs[:6]), encoding="utf-8")
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("smiles,protein_id,task_id,value\n"
                             "CCO,P0000,0,1e-20\n"
                             "CCN,P0000,0,1e-21\n"
                             "CCC,P0000,0,1e30\n", encoding="utf-8")
        out = run_predict(ckpt, pairs_csv, fixture_dir / "proteins.tsv",
                          tmp_path / "preds.csv", ad_from=train_csv)
        remapped = fit_ad([24.0, 25.0, 26.0])
        unmapped = fit_ad([24.0, 25.0, -26.0])
        _header, *rows = out.read_text().splitlines()
        predictions = [float(row.split(",")[-2]) for row in rows]
        assert all(check_ad(unmapped, pred) for pred in predictions)
        assert [row.split(",")[-1] for row in rows] == \
            ["1" if check_ad(remapped, pred) else "0" for pred in predictions]
        assert not any(check_ad(remapped, pred) for pred in predictions)

    def _one_pair(self, fixture_dir, cfg, tmp_path):
        """An untrained checkpoint and a one-pair table of the fixture."""
        ckpt = tmp_path / "m.ckpt"
        dataset = self._untrained_checkpoint(fixture_dir, cfg, ckpt)
        pairs_csv = tmp_path / "pairs.csv"
        c, p = dataset.pairs[0]
        pairs_csv.write_text("smiles,protein_id\n"
                             f"{dataset.compounds[c]},{dataset.protein_ids[p]}\n",
                             encoding="utf-8")
        return ckpt, pairs_csv

    @pytest.mark.parametrize("value, message", [
        ("0", "line 3: non-positive raw value"),
    ])
    def test_ad_from_bad_value_names_the_line(self, fixture_dir, tiny_config,
                                              tmp_path, value, message):
        ckpt, pairs_csv = self._one_pair(fixture_dir, tiny_config, tmp_path)
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("smiles,protein_id,task_id,value\n"
                             f"CCO,P0000,0,100\nCCN,P0000,0,{value}\n",
                             encoding="utf-8")
        with pytest.raises(PipelineError, match=f"train.csv: {message}"):
            run_predict(ckpt, pairs_csv, fixture_dir / "proteins.tsv",
                        tmp_path / "preds.csv", ad_from=train_csv)

    @pytest.mark.parametrize("value", ["abc", "n.d."])
    def test_ad_from_discards_a_non_numeric_value(self, fixture_dir,
                                                  tiny_config, tmp_path,
                                                  caplog, value):
        # ingestion drops such a row as imprecise, and so does --ad-from
        ckpt, pairs_csv = self._one_pair(fixture_dir, tiny_config, tmp_path)
        tables = {}
        for name, extra in (("train", f"CCN,P0000,0,{value}\n"),
                            ("plain", "")):
            tables[name] = tmp_path / f"{name}.csv"
            tables[name].write_text(
                "smiles,protein_id,task_id,value\n"
                f"CCO,P0000,0,100\nCCC,P0000,0,20\n{extra}",
                encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="dtanet.pipeline"):
            outputs = [run_predict(ckpt, pairs_csv,
                                   fixture_dir / "proteins.tsv",
                                   tmp_path / f"{name}.out.csv",
                                   ad_from=table).read_bytes()
                       for name, table in tables.items()]
        assert "discarded 1 imprecise value row(s) from" in caplog.text
        assert outputs[0] == outputs[1]

    def test_evaluate_reads_values_like_ingestion(self, tmp_path, caplog):
        preds = tmp_path / "preds.csv"
        preds.write_text("smiles,protein_id,task_id,value,prediction\n"
                         "CCO,P0,0,100,1.5\n"
                         "CCN,P0,0,>10000,0.2\n"
                         "CCC,P0,1,5,3.0\n"
                         "CCCl,P0,0,20,2.5\n", encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="dtanet.pipeline"):
            report = run_evaluate(preds, tmp_path / "eval.csv")
        assert "discarded 1 imprecise value row(s)" in caplog.text
        assert report.n_records == 3
        y0 = 4.0 - np.log10(np.array([100.0, 20.0]))
        expected = np.sqrt(np.mean((y0 - [1.5, 2.5]) ** 2))
        task0 = next(t for t in report.tasks if t.task_id == 0)
        assert task0.rmse == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("task_id", [30, 9999999, int("9" * 30)])
    def test_evaluate_scores_the_task_ids_present(self, tmp_path, task_id):
        # a column per id present, labelled with it: no row for an absent id
        preds = tmp_path / "preds.csv"
        preds.write_text("smiles,protein_id,task_id,value,prediction\n"
                         "CCO,P0,0,100,1.5\n"
                         f"CCC,P0,{task_id},5,3.0\n"
                         "CCN,P0,0,20,2.5\n", encoding="utf-8")
        report = run_evaluate(preds, tmp_path / "eval.csv")
        assert [(t.task_id, t.n_records) for t in report.tasks] == [
            (0, 2), (task_id, 1)]
        rows = (tmp_path / "eval.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [
            ["0", "2"], [str(task_id), "1"], ["aggregate", "3"]]
        y = 4.0 - np.log10(5.0)
        assert report.tasks[1].rmse == pytest.approx(abs(y - 3.0), rel=1e-12)

    def test_evaluate_discards_a_non_numeric_value(self, tmp_path, caplog):
        preds = tmp_path / "preds.csv"
        preds.write_text("smiles,protein_id,task_id,value,prediction\n"
                         "CCO,P0,0,100,1.5\nCCN,P0,0,abc,1.0\n"
                         "CCC,P0,0,20,2.5\n", encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="dtanet.pipeline"):
            report = run_evaluate(preds, tmp_path / "eval.csv")
        assert "discarded 1 imprecise value row(s)" in caplog.text
        assert report.n_records == 2

    def test_predict_then_evaluate_drops_an_nd_value(self, fixture_dir,
                                                     tiny_config, tmp_path,
                                                     caplog):
        ckpt = tmp_path / "m.ckpt"
        dataset = self._untrained_checkpoint(fixture_dir, tiny_config, ckpt)
        table = tmp_path / "pairs.csv"
        table.write_text("smiles,protein_id,task_id,value\n" + "".join(
            f"{dataset.compounds[c]},{dataset.protein_ids[p]},0,{value}\n"
            for (c, p), value in zip(dataset.pairs[:4],
                                     ["100", "n.d.", "5", "20"])),
            encoding="utf-8")
        out = run_predict(ckpt, table, fixture_dir / "proteins.tsv",
                          tmp_path / "preds.csv")
        assert out.read_text().splitlines()[2].split(",")[3] == "n.d."
        with caplog.at_level(logging.INFO, logger="dtanet.pipeline"):
            report = run_evaluate(out, tmp_path / "eval.csv")
        assert "discarded 1 imprecise value row(s)" in caplog.text
        assert report.n_records == 3

    @pytest.mark.parametrize("row, message", [
        ("CCN,P0,-1,5,1.0", "line 3: task_id '-1' is not a non-negative "
                            "integer"),
        ("CCN,P0,x,5,1.0", "line 3: task_id 'x' is not a non-negative "
                           "integer"),
        ("CCN,P0,0,5,abc", "line 3: prediction 'abc' is not a number"),
        ("CCN,P0,0,5,nan", "line 3: prediction 'nan' is not a number"),
        ("CCN,P0,0,>10000,nan", "line 3: prediction 'nan' is not a number"),
        ("CCN,P0,0,0,1.0", "line 3: non-positive raw value"),
        ("CCN,P0", "line 3: expected 5 fields, got 2"),
    ])
    def test_evaluate_bad_row_names_the_line(self, tmp_path, row, message):
        preds = tmp_path / "preds.csv"
        preds.write_text("smiles,protein_id,task_id,value,prediction\n"
                         f"CCO,P0,0,100,1.5\n{row}\n", encoding="utf-8")
        with pytest.raises(PipelineError, match=f"preds.csv: {message}"):
            run_evaluate(preds, tmp_path / "eval.csv")

    @staticmethod
    def _untrained_checkpoint(fixture_dir, cfg, path):
        dataset = load_pair_dataset(cfg, fixture_dir)
        FeatureStore(dataset, cfg.model_config(n_tasks=1)).build_model() \
            .save(path)
        return dataset

    def test_a_stray_quote_is_data(self, tiny_config, tmp_path):
        paths = write_fixture(tmp_path / "data")
        ckpt = tmp_path / "m.ckpt"
        self._untrained_checkpoint(tmp_path / "data", tiny_config, ckpt)
        lines = paths["interactions"].read_text(encoding="utf-8").splitlines()
        head, value = lines[5].rsplit(",", 1)
        lines[5] = f'{head},"{value}'
        table = tmp_path / "pairs.csv"
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = run_predict(ckpt, table, paths["proteins"],
                          tmp_path / "preds.csv")
        rows = out.read_text(encoding="utf-8").splitlines()
        assert [len(row.split(",")) for row in rows] == [5] * 97
        assert rows[5].split(",")[3] == f'"{value}'

    def test_predict_finds_columns_by_name(self, fixture_dir, tiny_config,
                                           tmp_path):
        ckpt = tmp_path / "m.ckpt"
        dataset = self._untrained_checkpoint(fixture_dir, tiny_config, ckpt)
        rows = [(dataset.compounds[c], dataset.protein_ids[p], "0", value)
                for (c, p), value in zip(dataset.pairs[:6],
                                         ["100", ">10000", "5"] * 2)]
        plain = tmp_path / "plain.csv"
        plain.write_text("smiles,protein_id,task_id,value\n" + "".join(
            f"{s},{p},{t},{v}\n" for s, p, t, v in rows), encoding="utf-8")
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("value,note,task_id,protein_id,smiles\n" + "".join(
            f"{v},x,{t},{p},{s}\n" for s, p, t, v in rows), encoding="utf-8")
        outputs = [run_predict(ckpt, table, fixture_dir / "proteins.tsv",
                               tmp_path / f"{table.stem}.out.csv",
                               ad_from=table).read_bytes()
                   for table in (plain, shuffled)]
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(
            b"smiles,protein_id,task_id,value,prediction,in_ad\n")

    @pytest.mark.parametrize("pairs, train, message", [
        ("smiles,value\n{s},100\n", "value\n100\n",
         "pairs.csv: no 'protein_id' column"),
        ("smiles,protein_id\n{s},{p}\n", "smiles,protein_id\n{s},{p}\n",
         "train.csv: no 'value' column"),
    ], ids=["pairs", "ad-from"])
    def test_predict_names_a_missing_column(self, fixture_dir, tiny_config,
                                            tmp_path, pairs, train, message):
        ckpt = tmp_path / "m.ckpt"
        dataset = self._untrained_checkpoint(fixture_dir, tiny_config, ckpt)
        c, p = dataset.pairs[0]
        names = {"s": dataset.compounds[c], "p": dataset.protein_ids[p]}
        pairs_csv = tmp_path / "pairs.csv"
        train_csv = tmp_path / "train.csv"
        pairs_csv.write_text(pairs.format(**names), encoding="utf-8")
        train_csv.write_text(train.format(**names), encoding="utf-8")
        with pytest.raises(PipelineError, match=message):
            run_predict(ckpt, pairs_csv, fixture_dir / "proteins.tsv",
                        tmp_path / "preds.csv", ad_from=train_csv)

    @pytest.mark.parametrize("column", ["value", "prediction"])
    def test_evaluate_names_a_missing_column(self, tmp_path, column):
        header = ",".join(c for c in ("smiles", "value", "prediction")
                          if c != column)
        preds = tmp_path / "preds.csv"
        preds.write_text(f"{header}\nCCO,1.5\n", encoding="utf-8")
        with pytest.raises(PipelineError,
                           match=f"preds.csv: no '{column}' column"):
            run_evaluate(preds, tmp_path / "eval.csv")

    def test_unknown_protein_reported(self, fixture_dir, tiny_config,
                                      tmp_path):
        dataset = load_pair_dataset(tiny_config, fixture_dir)
        ckpt = run_training(tiny_config, dataset, tmp_path / "m.ckpt", seed=0)
        pairs_csv = tmp_path / "pairs.csv"
        pairs_csv.write_text("smiles,protein_id\nCCO,NOPE\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="NOPE"):
            run_predict(ckpt, pairs_csv, fixture_dir / "proteins.tsv",
                        tmp_path / "preds.csv")


class TestTuneCommand:
    def test_trial_log_and_best_config(self, tmp_path):
        from dtanet.synthetic import memory_dataset

        cfg = parse_run_config(None, overrides={
            **TINY, "train.max_epochs": "1", "tune.budget": "3",
            "tune.n_init": "2", "tune.strategy": "random"})
        dataset = memory_dataset(n_compounds=10, n_proteins=5, n_pairs=30,
                                 seed=0)
        best = run_tune(cfg, dataset, tmp_path / "tune", budget=3,
                        strategy="random")
        trials = (tmp_path / "tune" / "trials.csv").read_text().splitlines()
        assert trials[0].startswith("trial,status,value,")
        assert len(trials) == 4
        text = best.read_text(encoding="utf-8")
        assert "[model]" in text and "[train]" in text
        follow_up = parse_run_config(best)
        assert follow_up.train_config().learning_rate > 0

    def test_default_gp_strategy_is_reproducible(self, fixture_dir,
                                                 tiny_config, tmp_path,
                                                 caplog):
        cfg = tiny_config.override({"train.max_epochs": "1",
                                    "tune.n_init": "2"})
        assert cfg.tune_params()["strategy"] == "gp"
        dataset = load_pair_dataset(cfg, fixture_dir)
        outputs = []
        for run in ("a", "b"):
            with caplog.at_level(logging.WARNING, logger="dtanet.tuning"):
                best = run_tune(cfg, dataset, tmp_path / run, budget=3,
                                strategy="gp")
            trials = tmp_path / run / "trials.csv"
            outputs.append((trials.read_bytes(), best.read_bytes()))
        # the third trial is the GP's proposal, not a random fallback
        assert "GP proposal failed" not in caplog.text
        header, *rows = outputs[0][0].decode().splitlines()
        assert header.startswith("trial,status,value,")
        assert [row.split(",")[:2] for row in rows] == [
            [str(k), "complete"] for k in range(3)]
        assert parse_run_config(tmp_path / "a" / "best_config.cfg") \
            .train_config().learning_rate > 0
        assert outputs[0] == outputs[1]

    @staticmethod
    def _spy_on_fits(monkeypatch):
        """Record (model, training set size, result) of every fit."""
        from dtanet import pipeline, training

        fits = []
        original = training.train

        def spy(model, store, train_idx, val_idx, train_cfg):
            result = original(model, store, train_idx, val_idx, train_cfg)
            fits.append((model, len(train_idx), result))
            return result

        monkeypatch.setattr(training, "train", spy)
        monkeypatch.setattr(pipeline, "train", spy)
        return fits

    def test_trials_fit_the_run_config(self, tmp_path, monkeypatch):
        from dtanet.synthetic import memory_dataset

        cfg = parse_run_config(None, overrides={
            **TINY, "model.fp_bits": "512", "model.batchnorm": "false",
            "train.holdout_fraction": "0.3", "train.max_epochs": "1"})
        dataset = memory_dataset(n_compounds=10, n_proteins=5, n_pairs=30,
                                 seed=0)
        fits = self._spy_on_fits(monkeypatch)
        run_tune(cfg, dataset, tmp_path / "tune", budget=3, strategy="random")
        assert len(fits) == 3
        for model, n_train, _ in fits:
            params = model.graph.state_dict()
            assert params["dense0.W"].shape[0] == 512 + 8421
            assert not any(name.startswith("bn") for name in params)
            assert n_train == 21  # 70% of 30 pairs

    def _tune(self, tmp_path, cfg):
        from dtanet.synthetic import memory_dataset

        dataset = memory_dataset(n_compounds=10, n_proteins=5, n_pairs=30,
                                 seed=0)
        best = run_tune(cfg, dataset, tmp_path / "tune", budget=3,
                        strategy="random")
        header, *rows = (tmp_path / "tune" / "trials.csv").read_text(
            encoding="utf-8").splitlines()
        names = header.split(",")[3:]
        complete = [r.split(",") for r in rows if r.split(",")[1] == "complete"]
        best_row = min(complete, key=lambda r: (float(r[2]), int(r[0])))
        point = dict(zip(names, (float(v) for v in best_row[3:])))
        return dataset, best, best_row[2], point

    def test_best_config_is_the_best_trials_config(self, tmp_path):
        from dtanet.tuning import point_overrides

        cfg = parse_run_config(None, overrides={
            **TINY, "train.max_epochs": "1"})
        _, best, _, point = self._tune(tmp_path, cfg)
        expected = cfg.override(point_overrides(point))
        assert parse_run_config(best).snapshot() == expected.snapshot()
        # full precision: the learning rate is the sampled float itself
        assert (parse_run_config(best).train_config().learning_rate
                == point["learning_rate"])

    def test_training_the_best_config_reproduces_its_score(
            self, tmp_path, monkeypatch):
        cfg = parse_run_config(None, overrides={
            **TINY, "train.max_epochs": "2"})
        dataset, best, printed, _ = self._tune(tmp_path, cfg)
        fits = self._spy_on_fits(monkeypatch)
        run_training(parse_run_config(best), dataset, tmp_path / "best.ckpt")
        (_, _, result), = fits
        assert f"{result.best_score:.6g}" == printed


class TestParseOnce:
    @staticmethod
    def _spy(monkeypatch, function) -> list:
        """Record the first argument of every call of ``function``, through
        whichever dtanet module calls it."""
        import sys

        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return function(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("dtanet")
                    and getattr(module, function.__name__, None) is function):
                monkeypatch.setattr(module, function.__name__, spy)
        return calls

    @staticmethod
    def _spy_scans(monkeypatch) -> list:
        """Record the text of every SMILES scan, the step every parse of a
        SMILES goes through."""
        scanned = []
        append = MoleculeColumns.append

        def spy(columns, text):
            scanned.append(text)
            return append(columns, text)

        monkeypatch.setattr(MoleculeColumns, "append", spy)
        return scanned

    def test_cold_cluster_cv_parses_each_compound_and_clusters_once(
            self, fixture_dir, tmp_path, monkeypatch):
        from dtanet.splits import cluster_compounds

        parsed = self._spy_scans(monkeypatch)
        clustered = self._spy(monkeypatch, cluster_compounds)
        cfg = parse_run_config(None, overrides={
            **TINY, "model.variant": "padme-graphconv",
            "split.repetitions": "2", "train.max_epochs": "1"})
        dataset = load_pair_dataset(cfg, fixture_dir)
        run_cv(cfg, dataset, tmp_path / "cv", scheme="cold-cluster")
        lines = (fixture_dir / "interactions.csv").read_text().splitlines()
        assert sorted(parsed) == sorted({l.split(",")[0] for l in lines[1:]})
        assert len(clustered) == 1
        assert (tmp_path / "cv" / "folds_cold-cluster_rep1.csv").exists()

    def test_predict_parses_each_compound_once(self, fixture_dir, tmp_path,
                                               monkeypatch):
        cfg = parse_run_config(None, overrides={
            **TINY, "model.variant": "padme-graphconv",
            "model.conv_widths": "8", "model.conv_dense": "16"})
        dataset = load_pair_dataset(cfg, fixture_dir)
        ckpt = run_training(cfg, dataset, tmp_path / "gc.ckpt", seed=0)
        table = fixture_dir / "interactions.csv"
        parsed = self._spy_scans(monkeypatch)
        run_predict(ckpt, table, fixture_dir / "proteins.tsv",
                    tmp_path / "preds.csv", ad_from=table)
        lines = table.read_text().splitlines()
        smiles = [line.split(",")[0] for line in lines[1:]]
        assert len(smiles) > len(set(smiles))
        assert parsed == list(dict.fromkeys(smiles))

    def test_cold_cluster_cv_of_padme_ecfp_fingerprints_each_compound_once(
            self, fixture_dir, tmp_path, monkeypatch):
        from dtanet.compounds import ecfp_matrix
        from dtanet.splits import cluster_compounds

        cfg = parse_run_config(None, overrides={
            **TINY, "split.repetitions": "2", "train.max_epochs": "1"})
        dataset = load_pair_dataset(cfg, fixture_dir)
        fingerprinted = self._spy(monkeypatch, ecfp_matrix)
        clustered = self._spy(monkeypatch, cluster_compounds)
        run_cv(cfg, dataset, tmp_path / "cv", scheme="cold-cluster")
        assert len(fingerprinted) == 1
        assert fingerprinted[0] is dataset.molecules
        assert len(clustered) == 1
        for rep in range(2):
            _, extras = Model.load(
                tmp_path / "cv" / f"model_cold-cluster_rep{rep}_fold0.ckpt")
            assert extras["run_config"] == cfg.override(
                {"model.seed": rep, "train.seed": rep}).snapshot()

    def test_replayed_cold_cluster_folds_cluster_once(
            self, fixture_dir, tiny_config, tmp_path, monkeypatch):
        from dtanet.splits import cluster_compounds

        dataset = load_pair_dataset(tiny_config, fixture_dir)
        folds = tmp_path / "folds.csv"
        run_split(tiny_config, dataset, folds, scheme="cold-cluster")
        clustered = self._spy(monkeypatch, cluster_compounds)
        report = run_cv(tiny_config, dataset, tmp_path / "cv",
                        folds_path=folds)
        assert len(clustered) == 1
        _, rows = read_report(report)
        audits = [r[9] for r in rows if r[2] == "0"]
        assert audits and set(audits) == {"pass"}

    def test_tune_builds_one_feature_store(self, tmp_path, monkeypatch):
        from dtanet import pipeline
        from dtanet.synthetic import memory_dataset

        built = []

        class CountingStore(FeatureStore):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pipeline, "FeatureStore", CountingStore)
        cfg = parse_run_config(None, overrides={**TINY,
                                                "train.max_epochs": "1"})
        dataset = memory_dataset(n_compounds=10, n_proteins=5, n_pairs=30,
                                 seed=0)
        run_tune(cfg, dataset, tmp_path / "tune", budget=3, strategy="random")
        assert len(built) == 1
        rows = (tmp_path / "tune" / "trials.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["complete"] * 3


class TestSmoke:
    def test_all_stages_pass(self, fixture_dir, tmp_path):
        stages = end_to_end_smoke(fixture_dir, tmp_path / "smoke", seed=0)
        assert stages == ["ingest", "featurize", "split", "train",
                          "predict", "evaluate"]

    def test_corrupted_csv_fails_at_ingest(self, tmp_path):
        bad = tmp_path / "bad"
        write_fixture(bad, seed=1)
        path = bad / "interactions.csv"
        path.write_text(path.read_text().replace(
            "smiles,protein_id,task_id,value", "smiles,who,knows,what"),
            encoding="utf-8")
        with pytest.raises(SmokeError, match="ingest"):
            end_to_end_smoke(bad, tmp_path / "w", seed=0)

    def test_missing_sequence_fails_at_ingest_with_id(self, tmp_path):
        bad = tmp_path / "bad2"
        write_fixture(bad, seed=2)
        proteins_path = bad / "proteins.tsv"
        lines = proteins_path.read_text().splitlines()
        proteins_path.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        dropped_id = lines[0].split("\t")[0]
        with pytest.raises(SmokeError, match="ingest") as err:
            end_to_end_smoke(bad, tmp_path / "w2", seed=0)
        assert dropped_id in str(err.value)
