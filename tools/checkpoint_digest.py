"""Check that artifacts produced with two or more source trees are identical.

    python3 tools/checkpoint_digest.py --src SRC_A --src SRC_B

Each ``--src`` names a ``src`` directory holding a ``dtanet`` package. For
each one, a fresh interpreter

* trains the four variants for 3 epochs with seed 0 on synthetic pairs and
  saves each best checkpoint with its Adam moments;
* scores 2600 synthetic pairs of 1300 compounds and 12 proteins with the
  trained ``padme-ecfp`` model through ``FeatureStore.predict`` at its
  default ``batch_size`` (prediction bytes): three chunks of pairs and two
  blocks of over a thousand distinct compounds, each holding several
  distinct compounds and proteins;
* scores 2600 synthetic pairs of 1300 compounds and the 8 training
  proteins with the trained ``compound-only-ecfp`` model the same way
  (prediction bytes of the single-table first layer, three chunks);
* fits one ``padme-graphconv`` model twice with two ``train`` calls on the
  same store (the second optimizer repacks parameters the first one owns)
  and saves the second fit's checkpoint;
* writes a synthetic fixture (``interactions.csv`` and ``proteins.tsv``)
  and runs the pipeline with the default run config on it:
  ``run_training`` (checkpoint and history), a 2-fold 1-repetition warm
  ``run_cv`` (report, fold CSV and fold checkpoints), a budget-3 random
  ``run_tune`` (``trials.csv`` and ``best_config.cfg``) and a 2-fold
  1-repetition 2-epoch cold-cluster ``run_cv`` of ``padme-graphconv``
  (report and fold checkpoints), whose fits train a compacted descriptor
  block, and a 2-fold 2-repetition 2-epoch cold-cluster ``run_cv`` of
  ``padme-ecfp`` (report, both fold files and the first repetition's fold
  checkpoints);
* runs six commands through ``cli.main``: ``featurize --ecfp`` on the
  fixture's interaction table (fingerprint CSV), ``featurize --psc`` on its
  sequence table (descriptor matrix), ``split --scheme cold-cluster`` of
  the fixture (fold CSV), ``predict --ad-from`` of the ``run_training``
  checkpoint on that table (prediction CSV), ``evaluate`` of that
  prediction CSV (evaluation CSV), and ``predict`` of the
  ``padme-graphconv`` cold-cluster fold-0 checkpoint on the table
  (prediction CSV), which scores it in one chunk of at most 1024 pairs
  through the eval-mode forward of a degree-ordered batch;

and reports the SHA-256 digest of each artifact. The script exits 1 unless
every artifact is byte-identical across the sources, which is how a
numerical restructuring of the engine, or a refactoring of the pipeline,
shows that it kept the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

EPOCHS = 3
SEED = 0


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _command(argv: list[str]) -> None:
    from dtanet import cli

    if cli.main(argv) != 0:
        raise RuntimeError(f"dtanet {' '.join(argv)} failed")


def pipeline_digests(work: Path) -> dict[str, str]:
    """Digest of each artifact of the fixture, of train, cv and tune on the
    default config, of cold-cluster cvs, and of the featurize, split,
    predict and evaluate commands."""
    from dtanet import pipeline
    from dtanet.runconfig import parse_run_config
    from dtanet.synthetic import write_fixture

    fixture = write_fixture(work / "fixture", seed=SEED)
    out = {"fixture interactions": _sha(fixture["interactions"]),
           "fixture proteins": _sha(fixture["proteins"])}
    cfg = parse_run_config(None)
    dataset = pipeline.load_pair_dataset(cfg, work / "fixture")
    ckpt = pipeline.run_training(cfg, dataset, work / "model.ckpt")
    out["train checkpoint"] = _sha(ckpt)
    out["train history"] = _sha(Path(f"{ckpt}.history.csv"))
    cv_dir = work / "cv"
    report = pipeline.run_cv(cfg, dataset, cv_dir, scheme="warm", k=2,
                             repetitions=1)
    out["cv report"] = _sha(report)
    out["cv folds"] = _sha(cv_dir / "folds_warm_rep0.csv")
    for fold in range(2):
        out[f"cv fold{fold} checkpoint"] = _sha(
            cv_dir / f"model_warm_rep0_fold{fold}.ckpt")
    pipeline.run_tune(cfg, dataset, work / "tune", budget=3, strategy="random")
    out["tune trials"] = _sha(work / "tune" / "trials.csv")
    out["tune best config"] = _sha(work / "tune" / "best_config.cfg")
    graph_dir = work / "cv-graphconv"
    report = pipeline.run_cv(
        cfg.override({"model.variant": "padme-graphconv",
                      "train.max_epochs": 2}),
        dataset, graph_dir, scheme="cold-cluster", k=2, repetitions=1)
    out["graphconv cluster report"] = _sha(report)
    for fold in range(2):
        out[f"graphconv cluster fold{fold}"] = _sha(
            graph_dir / f"model_cold-cluster_rep0_fold{fold}.ckpt")
    ecfp_dir = work / "cv-ecfp"
    report = pipeline.run_cv(cfg.override({"train.max_epochs": 2}), dataset,
                             ecfp_dir, scheme="cold-cluster", k=2,
                             repetitions=2)
    out["ecfp cluster report"] = _sha(report)
    for rep in range(2):
        out[f"ecfp cluster folds rep{rep}"] = _sha(
            ecfp_dir / f"folds_cold-cluster_rep{rep}.csv")
    for fold in range(2):
        out[f"ecfp cluster rep0 fold{fold}"] = _sha(
            ecfp_dir / f"model_cold-cluster_rep0_fold{fold}.ckpt")
    interactions = str(work / "fixture" / "interactions.csv")
    _command(["featurize", "--ecfp", "--input", interactions,
              "--out", str(work / "fingerprints.csv")])
    out["featurize ecfp csv"] = _sha(work / "fingerprints.csv")
    _command(["featurize", "--psc", "--proteins", str(fixture["proteins"]),
              "--out", str(work / "descriptors.bin")])
    out["featurize psc matrix"] = _sha(work / "descriptors.bin")
    _command(["split", "--data-dir", str(work / "fixture"),
              "--scheme", "cold-cluster", "--out", str(work / "split.csv")])
    out["split cold-cluster csv"] = _sha(work / "split.csv")
    _command(["predict", "--model", str(ckpt), "--input", interactions,
              "--proteins", str(work / "fixture" / "proteins.tsv"),
              "--output", str(work / "predictions.csv"),
              "--ad-from", interactions])
    out["predict ad-from csv"] = _sha(work / "predictions.csv")
    _command(["evaluate", "--predictions", str(work / "predictions.csv"),
              "--output", str(work / "evaluation.csv")])
    out["evaluate ad-from csv"] = _sha(work / "evaluation.csv")
    _command(["predict", "--model",
              str(graph_dir / "model_cold-cluster_rep0_fold0.ckpt"),
              "--input", interactions,
              "--proteins", str(work / "fixture" / "proteins.tsv"),
              "--output", str(work / "graphconv_predictions.csv")])
    out["predict graphconv csv"] = _sha(work / "graphconv_predictions.csv")
    return out


def multi_chunk_predict_digest(model, n_proteins: int = 12) -> str:
    """Digest of ``model``'s predictions for 2600 pairs of new compounds
    and ``n_proteins`` proteins."""
    import numpy as np

    from dtanet.model import FeatureStore
    from dtanet.synthetic import memory_dataset

    dataset = memory_dataset(n_compounds=1300, n_proteins=n_proteins,
                             n_pairs=2600, seed=SEED + 1)
    predictions = FeatureStore(dataset, model.cfg).predict(
        model, np.arange(dataset.n_pairs))
    return hashlib.sha256(predictions.tobytes()).hexdigest()


def digests() -> dict[str, str]:
    """Train each variant, then run the pipeline, in this interpreter."""
    from dtanet.model import VARIANTS, FeatureStore, ModelConfig
    from dtanet.synthetic import memory_dataset
    from dtanet.training import TrainConfig, train

    dataset = memory_dataset(n_compounds=60, n_proteins=8, n_pairs=400,
                             seed=SEED)
    train_idx = list(range(0, 360))
    val_idx = list(range(360, 400))
    out = {}
    with tempfile.TemporaryDirectory() as work:
        for variant in VARIANTS:
            store = FeatureStore(dataset, ModelConfig(variant=variant,
                                                      seed=SEED))
            model = store.build_model()
            result = train(model, store, train_idx, val_idx,
                           TrainConfig(max_epochs=EPOCHS, patience=EPOCHS,
                                       seed=SEED))
            path = Path(work) / f"{variant}.ckpt"
            model.save(path, optimizer_step=result.best_optimizer_step,
                       optimizer_arrays=result.best_optimizer)
            out[variant] = _sha(path)
            if variant == "padme-ecfp":
                out["padme-ecfp 3-chunk predict"] = \
                    multi_chunk_predict_digest(model)
            if variant == "compound-only-ecfp":
                # synthetic protein ids depend on the count only, so these
                # are the proteins the model has output units for
                out["compound-only predict"] = \
                    multi_chunk_predict_digest(model,
                                               len(dataset.protein_ids))
        store = FeatureStore(dataset, ModelConfig(variant="padme-graphconv",
                                                  seed=SEED))
        model = store.build_model()
        for seed in (SEED, SEED + 1):
            result = train(model, store, train_idx, val_idx,
                           TrainConfig(max_epochs=EPOCHS, patience=EPOCHS,
                                       seed=seed))
        path = Path(work) / "refit.ckpt"
        model.save(path, optimizer_step=result.best_optimizer_step,
                   optimizer_arrays=result.best_optimizer)
        out["padme-graphconv refit"] = _sha(path)
        out.update(pipeline_digests(Path(work)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", type=Path, default=[],
                        help="src directory to import dtanet from "
                             "(give at least two)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(digests()))
        return 0
    if len(args.src) < 2:
        parser.error("give at least two --src directories to compare")
    sources = [s.resolve() for s in args.src]
    results = {}
    for src in sources:
        if not (src / "dtanet" / "__init__.py").is_file():
            print(f"checkpoint_digest: no dtanet package under {src}",
                  file=sys.stderr)
            return 2
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True)
        if completed.returncode != 0:
            print(f"checkpoint_digest: the run with {src} failed:\n"
                  f"{completed.stderr}", file=sys.stderr)
            return 2
        results[str(src)] = json.loads(completed.stdout.splitlines()[-1])
    artifacts = next(iter(results.values()))
    same = True
    for artifact in artifacts:
        hashes = {r[artifact] for r in results.values()}
        same = same and len(hashes) == 1
        status = "same" if len(hashes) == 1 else "DIFFERENT"
        print(f"{artifact:28s} {status:9s} "
              + " ".join(r[artifact][:16] for r in results.values()))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
