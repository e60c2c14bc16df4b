"""Command-line interface.

One executable with subcommands covering the pipeline: ``featurize``,
``split``, ``tune``, ``train``, ``cv``, ``predict``, ``evaluate`` and
``fixture`` (synthetic data generation). Machine-readable outputs are CSV;
human summaries go to stdout. The exit code is 0 only on full success;
errors are printed with the failing module's name. ``DTANET_NUM_THREADS``
caps the BLAS thread count and is the only environment variable consulted.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path


def _configure_threads() -> None:
    threads = os.environ.get("DTANET_NUM_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


_configure_threads()

import numpy as np  # noqa: E402  (thread env vars must be set first)

from . import pipeline, synthetic  # noqa: E402
from .runconfig import RunConfig, parse_run_config  # noqa: E402
from .splits import SCHEMES  # noqa: E402

log = logging.getLogger("dtanet")


def _seed(text: str) -> int:
    """An argparse type: an integer of at least 0, as numpy seeds are."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="run configuration file (INI sections)")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="override a config key, e.g. --set split.k=3")
    parser.add_argument("--seed", type=_seed, default=None,
                        help="seed overriding the config for this command")
    parser.add_argument("--data-dir", type=Path, default=Path("."),
                        help="directory holding the data files")


def _run_config(args) -> RunConfig:
    overrides = {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        overrides[key] = value
    if getattr(args, "variant", None):
        overrides["model.variant"] = args.variant
    return parse_run_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtanet",
        description="Drug-target affinity regression pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="emit compound/protein featurizations")
    _add_common(p)
    p.add_argument("--input", type=Path, help="CSV with a smiles column")
    p.add_argument("--proteins", type=Path, help="protein sequence table (TSV)")
    p.add_argument("--ecfp", action="store_true",
                   help="write hex fingerprints CSV (model.fp_radius, "
                        "model.fp_bits)")
    p.add_argument("--psc", action="store_true",
                   help="write the protein descriptor matrix")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("split", help="write a fold-index CSV")
    _add_common(p)
    p.add_argument("--scheme", choices=SCHEMES, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("train", help="train one model with early stopping")
    _add_common(p)
    p.add_argument("--variant", default=None, help="model variant override")
    p.add_argument("--out", type=Path, required=True,
                   help="checkpoint output path")

    p = sub.add_parser("cv", help="repeated k-fold cross-validation")
    _add_common(p)
    p.add_argument("--scheme", choices=SCHEMES, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--repetitions", type=int, default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--folds", type=Path, default=None,
                   help="replay a fold CSV from 'split' (one repetition)")
    p.add_argument("--out-dir", type=Path, required=True)

    p = sub.add_parser("tune", help="hyperparameter search")
    _add_common(p)
    p.add_argument("--space", type=Path, default=None,
                   help="search space file (default: built-in space)")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--strategy", choices=("random", "gp"), default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--out-dir", type=Path, required=True)

    p = sub.add_parser("predict", help="predict for (compound, protein) pairs")
    _add_common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--input", type=Path, required=True,
                   help="CSV: smiles,protein_id[,task_id][,value]")
    p.add_argument("--proteins", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True)
    p.add_argument("--ad-from", type=Path, default=None,
                   help="training CSV used to fit the reliable response range")

    p = sub.add_parser("evaluate", help="score a prediction CSV")
    _add_common(p)
    p.add_argument("--predictions", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True)

    p = sub.add_parser("fixture", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--compounds", type=int, default=24)
    p.add_argument("--proteins", type=int, default=12)
    p.add_argument("--tasks", type=int, default=1)

    p = sub.add_parser("smoke", help="run the end-to-end smoke pipeline")
    _add_common(p)
    p.add_argument("--fixture-dir", type=Path, default=None,
                   help="existing fixture dir (default: generate one)")
    p.add_argument("--out-dir", type=Path, required=True)
    return parser


def _cmd_featurize(args, cfg) -> None:
    if args.ecfp == args.psc:
        raise SystemExit("featurize: pick exactly one of --ecfp/--psc")
    if args.ecfp:
        if args.input is None:
            raise SystemExit("featurize: --input is required for --ecfp")
        compounds, molecules = pipeline.read_compounds(args.input)
        pipeline.write_fingerprint_csv(cfg, compounds, molecules, args.out)
        print(f"featurized {len(compounds)} compounds -> {args.out}")
    else:
        from . import proteins as proteins_mod

        if args.proteins is None:
            raise SystemExit("featurize: --proteins is required for --psc")
        table = proteins_mod.read_sequence_table(args.proteins)
        ids = list(table)
        matrix = proteins_mod.descriptor_matrix(table, ids)
        proteins_mod.write_descriptor_matrix(args.out, ids, matrix)
        print(f"wrote {len(ids)} descriptors of length {matrix.shape[1]} "
              f"-> {args.out}")


def _cmd_split(args, cfg) -> None:
    dataset = pipeline.load_pair_dataset(cfg, args.data_dir)
    assignment = pipeline.run_split(cfg, dataset, args.out, scheme=args.scheme,
                                    k=args.k, seed=args.seed)
    sizes = np.bincount(assignment.folds, minlength=assignment.k)
    print(f"{assignment.scheme} split of {dataset.n_pairs} records into "
          f"{assignment.k} folds (sizes {sizes.tolist()}) -> {args.out}")


def _cmd_train(args, cfg) -> None:
    dataset = pipeline.load_pair_dataset(cfg, args.data_dir)
    summary = dataset.summary()
    print(f"dataset: {summary.n_compounds} compounds, {summary.n_proteins} "
          f"proteins, {summary.n_pairs} observations, {summary.n_tasks} task(s)")
    pipeline.run_training(cfg, dataset, args.out, seed=args.seed)
    print(f"checkpoint -> {args.out}")


def _cmd_cv(args, cfg) -> None:
    dataset = pipeline.load_pair_dataset(cfg, args.data_dir)
    report = pipeline.run_cv(cfg, dataset, args.out_dir, scheme=args.scheme,
                             k=args.k, repetitions=args.repetitions,
                             seed=args.seed, folds_path=args.folds)
    comments, rows = pipeline.read_report(report)
    print(f"report -> {report}")
    for row in rows:
        if row[2] in ("mean", "std"):
            print(f"  {row[4]} {row[2]}: {row[6]}")


def _cmd_tune(args, cfg) -> None:
    if args.seed is not None:
        cfg = cfg.override({key: args.seed for key in
                            ("tune.seed", "model.seed", "train.seed")})
    dataset = pipeline.load_pair_dataset(cfg, args.data_dir)
    best = pipeline.run_tune(cfg, dataset, args.out_dir, budget=args.budget,
                             strategy=args.strategy, space_path=args.space)
    print(f"best configuration -> {best}")
    print(best.read_text(encoding="utf-8"))


def _cmd_predict(args, cfg) -> None:
    out = pipeline.run_predict(args.model, args.input, args.proteins,
                               args.output, ad_from=args.ad_from)
    print(f"predictions -> {out}")


def _cmd_evaluate(args, cfg) -> None:
    report = pipeline.run_evaluate(args.predictions, args.output)
    print(f"report -> {args.output}")

    def cell(value):
        return "   n/a" if value is None else f"{value:6.4f}"

    print(f"{'task':>9} {'n':>6} {'rmse':>6} {'r2':>6} {'ci':>6}")
    for task in report.tasks:
        print(f"{task.task_id:>9} {task.n_records:>6} {cell(task.rmse)} "
              f"{cell(task.r2)} {cell(task.ci)}")
    print(f"{'aggregate':>9} {report.n_records:>6} {cell(report.rmse)} "
          f"{cell(report.r2)} {cell(report.ci)}")


def _cmd_fixture(args, cfg) -> None:
    paths = synthetic.write_fixture(
        args.out_dir, n_compounds=args.compounds, n_proteins=args.proteins,
        n_tasks=args.tasks, seed=args.seed or 0)
    print(f"fixture -> {paths['interactions']}, {paths['proteins']}")


def _cmd_smoke(args, cfg) -> None:
    fixture_dir = args.fixture_dir
    if fixture_dir is None:
        fixture_dir = Path(args.out_dir) / "fixture"
        synthetic.write_fixture(fixture_dir, seed=args.seed or 0)
    stages = pipeline.end_to_end_smoke(fixture_dir, args.out_dir,
                                       seed=args.seed or 0)
    print("smoke pipeline passed: " + " -> ".join(stages))


_COMMANDS = {
    "featurize": _cmd_featurize,
    "split": _cmd_split,
    "train": _cmd_train,
    "cv": _cmd_cv,
    "tune": _cmd_tune,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "fixture": _cmd_fixture,
    "smoke": _cmd_smoke,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _run_config(args)
        _COMMANDS[args.command](args, cfg)
    except SystemExit:
        raise
    except Exception as exc:
        module = type(exc).__module__.rsplit(".", 1)[-1]
        print(f"error [{module}.{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
