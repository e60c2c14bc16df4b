"""Command-line entry points, driven through main()."""

import numpy as np
import pytest

from dtanet.cli import main
from dtanet.pipeline import read_report
from dtanet.splits import read_folds


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["fixture", "--out-dir", str(data), "--compounds", "14",
                 "--proteins", "7", "--seed", "0"]) == 0
    return root, data


TINY_ARGS = ["--set", "model.hidden_layers=16", "--set", "model.fp_bits=512",
             "--set", "train.max_epochs=2", "--set", "train.batch_size=16",
             "--set", "split.k=2", "--set", "split.repetitions=1"]


class TestFeaturize:
    def test_ecfp_csv(self, workspace):
        root, data = workspace
        out = root / "fp.csv"
        code = main(["featurize", "--ecfp", "--set", "model.fp_bits=512",
                     "--input", str(data / "interactions.csv"),
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "smiles,fingerprint_hex"
        assert len(lines) > 1
        assert all(len(l.split(",")[1]) == 512 // 4 for l in lines[1:])

    def test_ecfp_reads_a_table_whose_tasks_are_assay_ids(self, tmp_path):
        table = tmp_path / "assays.csv"
        table.write_text("smiles,protein_id,task_id,value\n"
                         "CCO,P1,CHEMBL1614,100\n"
                         "c1ccccc1O,P2,CHEMBL27,>10000\n"
                         "CCO,P2,CHEMBL27,5\n", encoding="utf-8")
        smiles = tmp_path / "smiles.csv"
        smiles.write_text("smiles\nCCO\nc1ccccc1O\n", encoding="utf-8")
        for path in (table, smiles):
            assert main(["featurize", "--ecfp", "--input", str(path),
                         "--out", str(tmp_path / f"{path.stem}.fp")]) == 0
        fingerprints = (tmp_path / "assays.fp").read_text().splitlines()
        assert len(fingerprints) == 3
        assert fingerprints == \
            (tmp_path / "smiles.fp").read_text().splitlines()

    def test_ecfp_names_a_missing_smiles_column(self, tmp_path, capsys):
        table = tmp_path / "ids.csv"
        table.write_text("compound,protein_id\nCCO,P1\n", encoding="utf-8")
        code = main(["featurize", "--ecfp", "--input", str(table),
                     "--out", str(tmp_path / "fp.csv")])
        assert code == 1
        assert f"{table}: no 'smiles' column" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--ecfp", "--psc"]])
    def test_needs_exactly_one_output_kind(self, workspace, flags):
        root, data = workspace
        with pytest.raises(SystemExit, match="exactly one of --ecfp/--psc"):
            main(["featurize", *flags,
                  "--input", str(data / "interactions.csv"),
                  "--proteins", str(data / "proteins.tsv"),
                  "--out", str(root / "both.out")])

    def test_psc_matrix(self, workspace):
        root, data = workspace
        out = root / "psc.bin"
        assert main(["featurize", "--psc",
                     "--proteins", str(data / "proteins.tsv"),
                     "--out", str(out)]) == 0
        from dtanet.proteins import read_descriptor_matrix
        ids, matrix = read_descriptor_matrix(out)
        assert matrix.shape == (7, 8421)


class TestSplitCommand:
    @pytest.mark.parametrize("scheme", ["warm", "cold-drug", "cold-target",
                                        "cold-cluster", "random"])
    def test_all_schemes(self, workspace, scheme, tmp_path):
        root, data = workspace
        out = tmp_path / f"{scheme}.csv"
        code = main(["split", "--data-dir", str(data), "--scheme", scheme,
                     "--k", "2", "--seed", "1", "--out", str(out)]
                    + TINY_ARGS)
        assert code == 0
        assignment = read_folds(out)
        assert assignment.scheme == scheme
        assert assignment.k == 2


    def test_zero_folds_is_an_error(self, workspace, tmp_path, capsys):
        root, data = workspace
        out = tmp_path / "zero.csv"
        code = main(["split", "--data-dir", str(data), "--scheme", "random",
                     "--k", "0", "--out", str(out)] + TINY_ARGS)
        assert code == 1
        assert "split.k" in capsys.readouterr().err
        assert not out.exists()


class TestTrainPredictEvaluate:
    def test_full_chain(self, workspace, tmp_path):
        root, data = workspace
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--data-dir", str(data), "--out", str(ckpt)]
                    + TINY_ARGS) == 0
        pairs = tmp_path / "pairs.csv"
        rows = (data / "interactions.csv").read_text().splitlines()
        pairs.write_text("\n".join(rows[:8]) + "\n", encoding="utf-8")
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(ckpt), "--input", str(pairs),
                     "--proteins", str(data / "proteins.tsv"),
                     "--output", str(preds),
                     "--ad-from", str(pairs)]) == 0
        assert "in_ad" in preds.read_text().splitlines()[0]
        report = tmp_path / "report.csv"
        assert main(["evaluate", "--predictions", str(preds),
                     "--output", str(report)]) == 0
        assert report.read_text().splitlines()[0] == \
            "task_id,n_records,rmse,r2,ci"

    def test_seed_determinism_across_runs(self, workspace, tmp_path):
        root, data = workspace
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (a, b):
            assert main(["train", "--data-dir", str(data), "--seed", "5",
                         "--out", str(out)] + TINY_ARGS) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCvCommand:
    def test_cv_writes_report(self, workspace, tmp_path):
        root, data = workspace
        out = tmp_path / "cv"
        assert main(["cv", "--data-dir", str(data), "--scheme", "random",
                     "--out-dir", str(out)] + TINY_ARGS) == 0
        assert (out / "report_random.csv").exists()

    def test_split_output_feeds_cv(self, workspace, tmp_path):
        root, data = workspace
        folds = tmp_path / "folds.csv"
        assert main(["split", "--data-dir", str(data), "--scheme",
                     "cold-drug", "--k", "2", "--seed", "3",
                     "--out", str(folds)] + TINY_ARGS) == 0
        out = tmp_path / "cv"
        assert main(["cv", "--data-dir", str(data), "--folds", str(folds),
                     "--out-dir", str(out)] + TINY_ARGS) == 0
        assert (out / "report_cold-drug.csv").exists()

    def test_cold_cluster_replay_audits_with_the_config_fingerprints(
            self, workspace, tmp_path):
        # a replayed fold file carries no clustering: cv clusters again with
        # the config's fingerprints, so split must have used the same ones
        root, data = workspace
        # with these settings the default fingerprints cluster differently
        fp_args = ["--set", "model.fp_radius=1",
                   "--set", "split.cluster_threshold=0.3"]
        folds = tmp_path / "folds.csv"
        assert main(["split", "--data-dir", str(data), "--scheme",
                     "cold-cluster", "--k", "2", "--seed", "3",
                     "--out", str(folds)] + TINY_ARGS + fp_args) == 0
        out = tmp_path / "cv"
        assert main(["cv", "--data-dir", str(data), "--folds", str(folds),
                     "--out-dir", str(out)] + TINY_ARGS + fp_args) == 0
        _, rows = read_report(out / "report_cold-cluster.csv")
        fold_rows = [r for r in rows if r[0] == "cold-cluster"
                     and r[2] not in ("mean", "std")]
        assert fold_rows and all(r[9] == "pass" for r in fold_rows)

    def test_smoke_command(self, workspace, tmp_path):
        root, data = workspace
        assert main(["smoke", "--fixture-dir", str(data),
                     "--out-dir", str(tmp_path / "smoke")]) == 0


class TestTuneCommand:
    def _trials(self, data, out, seed):
        space = out.parent / "space.cfg"
        space.write_text("learning_rate continuous 1e-4 1e-2 log\n",
                         encoding="utf-8")
        assert main(["tune", "--data-dir", str(data), "--seed", str(seed),
                     "--space", str(space), "--budget", "2",
                     "--strategy", "random", "--out-dir", str(out),
                     "--set", "train.max_epochs=1"] + TINY_ARGS) == 0
        return (out / "trials.csv").read_bytes(), out / "best_config.cfg"

    def test_seed_drives_the_search_and_the_fits(self, workspace, tmp_path):
        from dtanet.runconfig import parse_run_config

        root, data = workspace
        one, best = self._trials(data, tmp_path / "s1", 1)
        again, _ = self._trials(data, tmp_path / "s1b", 1)
        two, _ = self._trials(data, tmp_path / "s2", 2)
        assert one == again
        assert one != two
        cfg = parse_run_config(best)
        assert [cfg.get(section, "seed") for section in
                ("tune", "model", "train")] == ["1", "1", "1"]


class TestErrors:
    def test_unknown_config_key_exits_nonzero(self, workspace, capsys):
        root, data = workspace
        code = main(["train", "--data-dir", str(data),
                     "--out", str(root / "x.ckpt"),
                     "--set", "model.nonsense=1"])
        assert code == 1
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_seed_that_numpy_refuses_is_a_usage_error(self, tmp_path, capsys,
                                                      seed):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--data-dir", str(tmp_path), "--seed", seed,
                  "--out", str(tmp_path / "x.ckpt")])
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("setting", [
        "model.conv_widths=-1", "model.conv_widths=8,0", "model.conv_widths=",
        "model.conv_dense=-3", "model.conv_dense=0"])
    def test_non_positive_conv_width_is_a_model_error(
            self, workspace, tmp_path, capsys, setting):
        root, data = workspace
        code = main(["train", "--data-dir", str(data), "--variant",
                     "padme-graphconv", "--out", str(tmp_path / "m.ckpt"),
                     "--set", setting] + TINY_ARGS)
        assert code == 1
        field = setting.split("=")[0].split(".")[1]
        assert (f"error [model.ModelError]: {field}"
                in capsys.readouterr().err)
        assert not (tmp_path / "m.ckpt").exists()

    def test_missing_data_dir(self, tmp_path, capsys):
        code = main(["train", "--data-dir", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x.ckpt")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error" in err

    def test_bad_smiles_in_featurize_names_file_and_line(self, tmp_path,
                                                          capsys):
        out = tmp_path / "fp.csv"
        # a bad SMILES first, and one after a repeated good SMILES
        for text, line in (("smiles\nC1CC(\nCCO\n", 2),
                           ("smiles\nCCO\nCCO\nC1CC(\nC1CC(C\n", 4)):
            bad = tmp_path / "bad.csv"
            bad.write_text(text, encoding="utf-8")
            code = main(["featurize", "--ecfp", "--input", str(bad),
                         "--out", str(out)])
            assert code == 1
            assert f"{bad}: line {line}: bad SMILES" in capsys.readouterr().err
            assert not out.exists()

    def test_bad_smiles_in_predict_names_file_and_line(self, workspace,
                                                       tmp_path, capsys):
        root, data = workspace
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--data-dir", str(data), "--out", str(ckpt)]
                    + TINY_ARGS) == 0
        # a bad SMILES first, and one after a repeated good SMILES
        for text, line in (
                ("smiles,protein_id\nC1CC(,P0000\n", 2),
                ("smiles,protein_id\nCCO,P0000\nCCO,P0001\nC1CC(,P0000\n"
                 "C1CC(C,P0000\n", 4)):
            bad = tmp_path / "bad.csv"
            bad.write_text(text, encoding="utf-8")
            capsys.readouterr()
            code = main(["predict", "--model", str(ckpt), "--input", str(bad),
                         "--proteins", str(data / "proteins.tsv"),
                         "--output", str(tmp_path / "o.csv")])
            assert code == 1
            assert f"{bad}: line {line}: bad SMILES" in capsys.readouterr().err

    def test_undecodable_predict_input_names_file_and_line(
            self, workspace, tmp_path, capsys):
        root, data = workspace
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--data-dir", str(data), "--out", str(ckpt)]
                    + TINY_ARGS) == 0
        lines = (data / "interactions.csv").read_bytes().split(b"\n")
        lines[5] = lines[5][:2] + b"\xff" + lines[5][2:]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        code = main(["predict", "--model", str(ckpt), "--input", str(bad),
                     "--proteins", str(data / "proteins.tsv"),
                     "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert (f"error [pipeline.PipelineError]: {bad}: line 6: not UTF-8 "
                f"text\n") in capsys.readouterr().err

    def test_graph_featurization_error_names_the_compound(
            self, workspace, tmp_path, capsys):
        import shutil

        root, data = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        bad = "C(C)(C)(C)(C)(C)(C)C"  # a degree-7 carbon parses
        with open(copy / "interactions.csv", "a", encoding="utf-8") as handle:
            handle.write(f"{bad},P0000,0,100\n")
        code = main(["train", "--data-dir", str(copy), "--variant",
                     "padme-graphconv", "--out", str(tmp_path / "m.ckpt")]
                    + TINY_ARGS)
        assert code == 1
        err = capsys.readouterr().err
        assert repr(bad) in err and "degree 7" in err

    def test_error_is_module_qualified(self, workspace, tmp_path, capsys):
        root, data = workspace
        bad = tmp_path / "bad.csv"
        bad.write_text("smiles,protein_id\nC(,P0000\n", encoding="utf-8")
        code = main(["predict", "--model", str(root / "missing.ckpt"),
                     "--input", str(bad),
                     "--proteins", str(data / "proteins.tsv"),
                     "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert "[" in capsys.readouterr().err  # [module.Error] prefix
