"""Check that artifacts produced with two or more source trees are identical.

    python3 tools/checkpoint_digest.py --src SRC_A --src SRC_B

Each ``--src`` names a ``src`` directory holding a ``dtanet`` package. For
each one, a fresh interpreter

* trains the four variants for 3 epochs with seed 0 on synthetic pairs and
  saves each best checkpoint;
* scores 2600 synthetic pairs of 1300 compounds and 12 proteins with the
  trained ``padme-ecfp`` model through ``FeatureStore.predict`` at its
  default ``batch_size`` (prediction bytes): three chunks of pairs and two
  blocks of over a thousand distinct compounds, each holding several
  distinct compounds and proteins;
* scores the first 2598 of those pairs with the same model at
  ``batch_size=5`` (prediction bytes): 519 chunks of five pairs and a last
  one of three, after projections in blocks of four or five distinct
  compounds or proteins;
* scores 2600 synthetic pairs of 1300 compounds and the 8 training
  proteins with the trained ``compound-only-ecfp`` model the same way
  (prediction bytes of the single-table first layer, three chunks);
* reloads the trained ``padme-ecfp`` and ``padme-graphconv`` checkpoints
  and, with a NaN and then a +inf written into one state entry at a time
  (a ``dense0.W`` row, ``dense0.b``, ``bn0.gamma``, ``bn0.running_var``, a
  ``dense1.W`` row and ``bn1.beta``), scores the 2600 pairs of 1300
  compounds at the default ``batch_size`` and at ``batch_size=5`` (each
  call's error class and message, or its prediction bytes when it
  succeeds), so that two trees raise the same scoring errors;
* builds each of the four variants at a small shape and, with a NaN and
  then a +inf written into one state entry at a time (a ``dense0.W`` row,
  ``dense0.b``, ``bn0.gamma``, a ``dense1.W`` row, an ``output.W`` row and,
  for the graph-conv variants, a ``conv0.wself2`` row), runs a one-epoch
  ``train`` (its error class and message, or the bytes of the final state
  when it succeeds), so that two trees raise the same training errors;
* fits one ``padme-ecfp`` model with an early best epoch (evaluated
  every 2 epochs at learning rate 0.01 and patience 1, so the fit stops 2
  epochs after its best and restores it) and saves its checkpoint (its
  best epoch leads both of its digests);
* fits one ``padme-graphconv`` model twice with two ``train`` calls on the
  same store (the second optimizer repacks parameters the first one owns)
  and saves the second fit's checkpoint;
* scores the 2600 pairs of 1300 compounds with that refit model at
  ``batch_size=64`` (prediction bytes), so the conv stack runs over the
  1144 distinct compounds in 18 blocks and the dense layers over 41
  chunks;
* scores those 2600 pairs with that refit model twice in a row, with two
  ``FeatureStore.predict`` calls on one store at the default
  ``batch_size`` (the bytes of both calls), so the second call runs on a
  graph the first call's inference passes ran on;
* fingerprints the 1300 compounds with ``ecfp_matrix`` at radius 0..3,
  with 512 and with 4096 bits (matrix bytes);
* describes with ``psc`` each sequence of ``BAD_SEQUENCES``, which hold a
  lowercase letter, ``X``, ``U``, a digit, a non-ASCII letter or a lone
  surrogate, or are too short (each error message);
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
  through the inference pass of a degree-ordered batch;
* runs ``predict --ad-from`` and ``evaluate`` on a table of 40 fixture rows
  and two imprecise ``>10000`` rows, and ``featurize --ecfp`` on that
  table with assay ids for task ids (one digest of the three outputs);
* writes the fold CSV of the fixture under each of the five schemes with
  ``run_split`` at the default config's k and seed (one digest of the
  five);
* packs the 1300 compounds into one graph-conv batch with
  ``parse_table``, ``atom_feature_matrix`` and ``PackedGraphs`` (the
  feature rows and every ``GraphBatch`` array);
* parses the 1300 compounds with ``parse_smiles`` (every column of each
  molecule, rendered as Python tuples of element symbols, ints, bools and
  bond triples, so that a tree from before the molecule table hashes the
  same text) and loads with ``load_dataset`` the fixture's table with one
  row repeated once and another eight times under other values (cells of
  2 and 9 observations) and two ``>10000`` rows (the compounds, protein ids,
  pairs, ``y`` and ``w`` arrays), and loads that table again with its task
  ids replaced by two assay ids, one more row of a compound seen once, an
  assay map, an ``inactive_remap`` and ``min_obs=1`` (the same arrays), one
  digest of all three;

and reports the SHA-256 digest of each artifact. Each checkpoint also has
a ``<row> loaded state`` row: the digest of the parameters and batch-norm
statistics ``Model.load`` reads back from it, with their names and shapes,
and of the run-config snapshot it carries; a change of the checkpoint
format alone changes the checkpoint row but not that one. The script exits
1 unless
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


def _checkpoint(out: dict[str, str], name: str, path: Path,
                preamble: str = "") -> None:
    """Put the ``name`` row, the digest of ``preamble`` and the checkpoint
    file's bytes, and the ``name loaded state`` row into ``out``."""
    from dtanet.model import Model

    digest = hashlib.sha256(preamble.encode())
    digest.update(path.read_bytes())
    out[name] = digest.hexdigest()
    model, extras = Model.load(path)
    digest = hashlib.sha256(preamble.encode())
    digest.update(f"run_config|{extras['run_config']!r}|".encode())
    for key, array in sorted(model.graph.state_dict().items()):
        digest.update(f"{key}|{array.shape}|".encode())
        digest.update(array.tobytes())
    out[f"{name} loaded state"] = digest.hexdigest()


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
    _checkpoint(out, "train checkpoint", ckpt)
    out["train history"] = _sha(Path(f"{ckpt}.history.csv"))
    cv_dir = work / "cv"
    report = pipeline.run_cv(cfg, dataset, cv_dir, scheme="warm", k=2,
                             repetitions=1)
    out["cv report"] = _sha(report)
    out["cv folds"] = _sha(cv_dir / "folds_warm_rep0.csv")
    for fold in range(2):
        _checkpoint(out, f"cv fold{fold} checkpoint",
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
        _checkpoint(out, f"graphconv cluster fold{fold}",
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
        _checkpoint(out, f"ecfp cluster rep0 fold{fold}",
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
    out["reader tables"] = reader_tables_digest(work, ckpt)
    out["split folds"] = split_folds_digest(cfg, dataset, work)
    out["ingestion"] = ingestion_digest(work)
    return out


def graph_packing_digest() -> str:
    """Digest of the feature rows and the ``GraphBatch`` arrays of the 1300
    new compounds packed as one batch."""
    import numpy as np

    from dtanet.compounds import atom_feature_matrix
    from dtanet.graphconv import PackedGraphs
    from dtanet.smiles import parse_table

    molecules = parse_table(new_compounds_dataset().compounds)
    rows, batch = PackedGraphs.from_table(
        molecules, atom_feature_matrix(molecules), 6).batch(
            np.arange(len(molecules)))
    digest = hashlib.sha256()
    for name, array in [("rows", rows)] + [
            (field, getattr(batch, field)) for field in (
                "degrees", "atom_ids", "restore", "neighbors", "closed",
                "mol_starts", "mol_sizes")]:
        digest.update(f"{name}|{array.dtype}|{array.shape}|".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr((batch.n_atoms, batch.n_mols, batch.slices)).encode())
    return digest.hexdigest()


def _parsed_columns(molecule) -> tuple:
    """The parsed columns of one molecule as Python tuples: element
    symbols, charges, hydrogen counts, aromatic and ring flags, and
    ``(a, b, order)`` bonds."""
    if hasattr(molecule, "elements"):  # a tree that held tuples per molecule
        return (molecule.elements, molecule.charges, molecule.hydrogens,
                molecule.aromatic, molecule.ring, molecule.bonds)
    from dtanet.elements import SYMBOLS

    return (tuple(SYMBOLS[z] for z in molecule.atomic_numbers.tolist()),
            tuple(molecule.charges.tolist()),
            tuple(molecule.hydrogens.tolist()),
            tuple(molecule.aromatic.tolist()), tuple(molecule.ring.tolist()),
            tuple(map(tuple, molecule.bonds.tolist())))


def ingestion_digest(work: Path) -> str:
    """Digest of the parsed columns of the 1300 new compounds and of the
    arrays ``load_dataset`` builds from the fixture's table with replicate
    and imprecise rows appended, as it is and with two assays, a remap and
    a sparsity filter."""
    from dtanet.data import load_dataset
    from dtanet.smiles import parse_smiles

    digest = hashlib.sha256()
    for smiles in new_compounds_dataset().compounds:
        digest.update(repr(_parsed_columns(parse_smiles(smiles))).encode())
    text = (work / "fixture" / "interactions.csv").read_text(encoding="utf-8")
    header, first, second, *_ = text.splitlines()
    extra = [first.rsplit(",", 1)[0] + ",731.5"]
    extra += [second.rsplit(",", 1)[0] + f",{3.7 * 2.9 ** k:.6g}"
              for k in range(8)]
    extra += [row.rsplit(",", 1)[0] + ",>10000" for row in (first, second)]
    table = work / "replicates.csv"
    table.write_text(text + "\n".join(extra) + "\n", encoding="utf-8")
    rows = text.splitlines()[1:] + extra
    assays = work / "replicate_assays.csv"
    assays.write_text("\n".join([header] + [
        f"{smiles},{protein},assay{i % 2},{value}"
        for i, (smiles, protein, _task, value) in enumerate(
            row.split(",") for row in rows)]
        # a compound seen once, which min_obs=1 removes
        + ["CCCCCCCCO,P0001,assay1,5.5"]) + "\n", encoding="utf-8")
    assay_map = work / "assay_map.tsv"
    assay_map.write_text("assay0\t0\nassay1\t1\n", encoding="utf-8")
    proteins = work / "fixture" / "proteins.tsv"
    for dataset in (load_dataset(table, proteins),
                    load_dataset(assays, proteins, assay_map_path=assay_map,
                                 min_obs=1, inactive_remap=(731.5, 1e4))):
        digest.update(repr((dataset.compounds, dataset.protein_ids)).encode())
        for array in (dataset.pairs, dataset.y, dataset.w):
            digest.update(array.tobytes())
    return digest.hexdigest()


def split_folds_digest(cfg, dataset, work: Path) -> str:
    """Digest of the fold CSVs ``run_split`` writes for ``dataset`` under
    the warm, cold-drug, cold-target, cold-cluster and random schemes."""
    from dtanet import pipeline

    digest = hashlib.sha256()
    for scheme in ("warm", "cold-drug", "cold-target", "cold-cluster",
                   "random"):
        path = work / f"split_{scheme}.csv"
        pipeline.run_split(cfg, dataset, path, scheme=scheme)
        digest.update(path.read_bytes())
    return digest.hexdigest()


def reader_tables_digest(work: Path, ckpt: Path) -> str:
    """Digest of ``predict --ad-from`` and ``evaluate`` on 40 rows of the
    fixture's table and two imprecise ``>10000`` rows, and of ``featurize
    --ecfp`` of the same table with assay ids in its ``task_id`` column."""
    header, *rows = (work / "fixture" / "interactions.csv").read_text(
        encoding="utf-8").splitlines()
    rows = rows[:40] + [row.rsplit(",", 1)[0] + ",>10000"
                        for row in rows[40:42]]
    table = work / "imprecise.csv"
    table.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    assays = work / "assays.csv"
    fields = [row.split(",") for row in rows]
    assays.write_text("\n".join([header] + [
        f"{smiles},{protein},CHEMBL{i % 3},{value}"
        for i, (smiles, protein, _task, value) in enumerate(fields)])
        + "\n", encoding="utf-8")
    _command(["predict", "--model", str(ckpt), "--input", str(table),
              "--proteins", str(work / "fixture" / "proteins.tsv"),
              "--output", str(work / "imprecise_predictions.csv"),
              "--ad-from", str(table)])
    _command(["evaluate", "--predictions",
              str(work / "imprecise_predictions.csv"),
              "--output", str(work / "imprecise_evaluation.csv")])
    _command(["featurize", "--ecfp", "--input", str(assays),
              "--out", str(work / "assay_fingerprints.csv")])
    digest = hashlib.sha256()
    for name in ("imprecise_predictions.csv", "imprecise_evaluation.csv",
                 "assay_fingerprints.csv"):
        digest.update((work / name).read_bytes())
    return digest.hexdigest()


def new_compounds_dataset(n_proteins: int = 12):
    """2600 synthetic pairs of 1300 compounds no model was trained on."""
    from dtanet.synthetic import memory_dataset

    return memory_dataset(n_compounds=1300, n_proteins=n_proteins,
                          n_pairs=2600, seed=SEED + 1)


def multi_chunk_predict_digest(model, n_proteins: int = 12,
                               batch_size: int = 1024,
                               n_pairs: int = 2600) -> str:
    """Digest of ``model``'s predictions for the first ``n_pairs`` of the
    2600 pairs of new compounds and ``n_proteins`` proteins, scored
    ``batch_size`` at a time."""
    import numpy as np

    from dtanet.model import FeatureStore

    dataset = new_compounds_dataset(n_proteins)
    predictions = FeatureStore(dataset, model.cfg).predict(
        model, np.arange(n_pairs), batch_size=batch_size)
    return hashlib.sha256(predictions.tobytes()).hexdigest()


def repeat_predict_digest(model) -> str:
    """Digest of two consecutive predictions of the 2600 pairs of new
    compounds by ``model``, from one store at the default ``batch_size``."""
    import numpy as np

    from dtanet.model import FeatureStore

    store = FeatureStore(new_compounds_dataset(), model.cfg)
    pairs = np.arange(store.dataset.n_pairs)
    digest = hashlib.sha256()
    for _ in range(2):
        digest.update(store.predict(model, pairs).tobytes())
    return digest.hexdigest()


# State entries the scoring-errors row poisons, each at its row or entry 3.
POISONED_ENTRIES = ("dense0.W", "dense0.b", "bn0.gamma", "bn0.running_var",
                    "dense1.W", "bn1.beta")


def scoring_errors_digest(checkpoints: list[Path]) -> str:
    """Digest of what scoring the 2600 pairs of new compounds gives, at the
    default ``batch_size`` and at 5, with each model of ``checkpoints``
    holding a NaN, then a +inf, in row or entry 3 of one entry of
    ``POISONED_ENTRIES``: the error's class and message, or the
    predictions' bytes."""
    import numpy as np

    from dtanet.model import FeatureStore, Model

    digest = hashlib.sha256()
    for path in checkpoints:
        model, _ = Model.load(path)
        store = FeatureStore(new_compounds_dataset(), model.cfg)
        pairs = np.arange(store.dataset.n_pairs)
        state = model.graph.state_dict()
        for name in POISONED_ENTRIES:
            for bad in (np.nan, np.inf):
                model.graph.live_state()[name][3] = bad
                for batch_size in (1024, 5):
                    try:
                        with np.errstate(all="ignore"):
                            outcome = store.predict(model, pairs,
                                                    batch_size).tobytes()
                    except Exception as error:
                        outcome = (f"{type(error).__name__}: "
                                   f"{error}").encode()
                    digest.update(f"{path.name}|{name}|{bad}|{batch_size}|"
                                  .encode())
                    digest.update(outcome)
                model.graph.load_state(state)
    return digest.hexdigest()


# State entries the training-errors row poisons, each at its row or entry 3;
# the graph-conv variants also get ``conv0.wself2``.
TRAINING_POISONED = ("dense0.W", "dense0.b", "bn0.gamma", "dense1.W",
                     "output.W")


def training_errors_digest() -> str:
    """Digest of what a one-epoch ``train`` of each variant gives, at a
    small shape, with a fresh model holding a NaN, then a +inf, in row or
    entry 3 of one entry of ``TRAINING_POISONED``: the error's class and
    message, or the bytes of the final state."""
    import numpy as np

    from dtanet.model import VARIANTS, FeatureStore, ModelConfig
    from dtanet.synthetic import memory_dataset
    from dtanet.training import TrainConfig, train

    dataset = memory_dataset(n_compounds=30, n_proteins=4, n_pairs=100,
                             seed=SEED)
    digest = hashlib.sha256()
    for variant in VARIANTS:
        store = FeatureStore(dataset, ModelConfig(
            variant=variant, hidden_layers=(16, 8), fp_bits=512,
            conv_widths=(8,), conv_dense=12, seed=SEED))
        names = TRAINING_POISONED + (("conv0.wself2",)
                                     if variant.endswith("graphconv") else ())
        for name in names:
            for bad in (np.nan, np.inf):
                model = store.build_model()
                model.graph.live_state()[name][3] = bad
                try:
                    with np.errstate(all="ignore"):
                        train(model, store, np.arange(80), np.arange(80, 100),
                              TrainConfig(max_epochs=1, patience=1, seed=SEED))
                    state = model.graph.live_state()
                    outcome = b"".join(state[key].tobytes()
                                       for key in sorted(state))
                except Exception as error:
                    outcome = f"{type(error).__name__}: {error}".encode()
                digest.update(f"{variant}|{name}|{bad}|".encode())
                digest.update(outcome)
    return digest.hexdigest()


def ecfp_matrices_digest() -> str:
    """Digest of the fingerprint matrices of the 1300 new compounds at
    radius 0..3, with 512 and with 4096 bits."""
    from dtanet.compounds import ecfp_matrix

    molecules = new_compounds_dataset().molecules
    digest = hashlib.sha256()
    for radius in range(4):
        for n_bits in (512, 4096):
            digest.update(ecfp_matrix(molecules, radius, n_bits).tobytes())
    return digest.hexdigest()


# One sequence per kind of letter that is not a canonical residue, and one
# too short to describe.
BAD_SEQUENCES = ("ACDaEF", "ACDEFy", "XACDEF", "ACUDEF", "AC7DEF",
                 "ACD\u00e9EF", "ACD\ud800EF", "AC")


def sequence_errors_digest() -> str:
    """Digest of the ``SequenceError`` message ``psc`` gives for each of
    ``BAD_SEQUENCES`` (``accepted`` if it gives none)."""
    from dtanet.proteins import SequenceError, psc

    digest = hashlib.sha256()
    for sequence in BAD_SEQUENCES:
        try:
            psc(sequence)
            outcome = "accepted"
        except SequenceError as error:
            outcome = str(error)
        digest.update(f"{outcome}\n".encode())
    return digest.hexdigest()


def early_best_digests(out: dict[str, str], dataset, train_idx, val_idx,
                       work: Path) -> None:
    """A ``padme-ecfp`` fit whose best epoch is earlier than its last: the
    checkpoint rows of its checkpoint, each digest led by its best epoch."""
    from dtanet.model import FeatureStore, ModelConfig
    from dtanet.training import TrainConfig, train

    store = FeatureStore(dataset, ModelConfig(variant="padme-ecfp", seed=SEED))
    model = store.build_model()
    result = train(model, store, train_idx, val_idx,
                   TrainConfig(max_epochs=12, patience=1, eval_every=2,
                               learning_rate=0.01, seed=SEED))
    path = work / "early-best.ckpt"
    model.save(path)
    _checkpoint(out, "padme-ecfp early-best checkpoint", path,
                f"best epoch {result.best_epoch}\n")


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
            train(model, store, train_idx, val_idx,
                  TrainConfig(max_epochs=EPOCHS, patience=EPOCHS, seed=SEED))
            path = Path(work) / f"{variant}.ckpt"
            model.save(path)
            _checkpoint(out, variant, path)
            if variant == "padme-ecfp":
                out["padme-ecfp 3-chunk predict"] = \
                    multi_chunk_predict_digest(model)
                out["padme-ecfp batch-5 predict"] = \
                    multi_chunk_predict_digest(model, batch_size=5,
                                               n_pairs=2598)
            if variant == "compound-only-ecfp":
                # synthetic protein ids depend on the count only, so these
                # are the proteins the model has output units for
                out["compound-only predict"] = \
                    multi_chunk_predict_digest(model,
                                               len(dataset.protein_ids))
        out["scoring errors"] = scoring_errors_digest(
            [Path(work) / f"{variant}.ckpt"
             for variant in ("padme-ecfp", "padme-graphconv")])
        out["training errors"] = training_errors_digest()
        early_best_digests(out, dataset, train_idx, val_idx, Path(work))
        store = FeatureStore(dataset, ModelConfig(variant="padme-graphconv",
                                                  seed=SEED))
        model = store.build_model()
        for seed in (SEED, SEED + 1):
            train(model, store, train_idx, val_idx,
                  TrainConfig(max_epochs=EPOCHS, patience=EPOCHS, seed=seed))
        path = Path(work) / "refit.ckpt"
        model.save(path)
        _checkpoint(out, "padme-graphconv refit", path)
        out["graphconv batch-64 predict"] = \
            multi_chunk_predict_digest(model, batch_size=64)
        out["graphconv repeat predict"] = repeat_predict_digest(model)
        out["ecfp matrices"] = ecfp_matrices_digest()
        out["sequence errors"] = sequence_errors_digest()
        out["graph packing"] = graph_packing_digest()
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
    width = max(map(len, artifacts))
    same = True
    for artifact in artifacts:
        hashes = {r[artifact] for r in results.values()}
        same = same and len(hashes) == 1
        status = "same" if len(hashes) == 1 else "DIFFERENT"
        print(f"{artifact:{width}s} {status:9s} "
              + " ".join(r[artifact][:16] for r in results.values()))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
