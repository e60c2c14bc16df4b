"""The benchmark's three workloads, their seeded inputs and output checks.

Each workload is one closed-loop client: it prepares the next operation's
input, calls one public dtanet entry point, checks the output, and only then
sends the next. A workload first sets up several times and keeps the last
set-up; the median set-up time is ``setup_s``.

* ``train-ecfp``: one operation fits a freshly built padme-ecfp with
  ``training.train`` and scores every pair with ``FeatureStore.predict``.
* ``screen``: one operation is one ``pipeline.run_predict`` request of
  distinct unseen compounds against one unseen protein.
* ``cv-cluster``: one operation is one cold-cluster ``pipeline.run_cv``.

Inputs come from ``--seed`` only. Outputs are checked after every operation,
and an operation whose output is wrong, or which raises, counts as failed.
"""

from __future__ import annotations

import itertools
import math
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from dtanet import metrics, pipeline, splits, synthetic, training
from dtanet.data import PairDataset
from dtanet.model import FeatureStore, Model, ModelConfig
from dtanet.runconfig import parse_run_config

from spans import Patcher, Tracer

# "full" is the benchmark; "tiny" only proves that the code paths run.
SIZES = {
    "full": {
        "train-ecfp": dict(compounds=200, proteins=40, pairs=4000,
                           length=(400, 900), epochs=1, setups=9, min_ops=2,
                           scorings=3),
        "screen": dict(compounds=100, proteins=20, pairs=2000,
                       length=(400, 900), pool=1000, request=250,
                       setups=5, min_ops=100),
        "cv-cluster": dict(compounds=800, proteins=40, obs=3, k=3, epochs=3,
                           setups=9, min_ops=2),
    },
    "tiny": {
        "train-ecfp": dict(compounds=24, proteins=6, pairs=120,
                           length=(40, 120), epochs=1, setups=2, min_ops=2,
                           scorings=2),
        "screen": dict(compounds=24, proteins=6, pairs=120,
                       length=(40, 120), pool=40, request=12,
                       setups=2, min_ops=4),
        "cv-cluster": dict(compounds=60, proteins=8, obs=3, k=3, epochs=1,
                           setups=2, min_ops=1),
    },
}


# -- inputs ---------------------------------------------------------------------


NOISE = 0.5  # assay noise on generated affinities, in log10 units


def affinity(smiles: str, sequence: str) -> float:
    """Generated transformed affinity: larger compounds and A/K-rich proteins bind.

    Both terms are linear in what the model sees (fingerprint bit count and
    residue composition), so a model that trains at all learns part of it.
    Values centre on 0 (raw 10 uM), where an untrained network starts.
    """
    atoms = sum(ch.isalpha() and ch not in "lr" for ch in smiles)
    rich = (sequence.count("A") + sequence.count("K")) / len(sequence)
    return 0.08 * (atoms - 12) + 8.0 * (rich - 0.1)


def pair_dataset(seed: int, n_compounds: int, n_proteins: int, n_pairs: int,
                 length: tuple[int, int]) -> PairDataset:
    """``synthetic.memory_dataset`` pairs with long proteins and learnable targets."""
    base = synthetic.memory_dataset(n_compounds, n_proteins, n_pairs, seed=seed)
    rng = np.random.default_rng([seed, 1])
    sequences = {pid: (synthetic.random_sequence(rng, length), flag)
                 for pid, (_short, flag) in base.sequences.items()}
    noise = rng.normal(0.0, NOISE, size=base.n_pairs)
    y = np.array([
        affinity(base.compounds[c], sequences[base.protein_ids[p]][0]) + e
        for (c, p), e in zip(base.pairs, noise)])
    return replace(base, sequences=sequences, y=y[:, None])


# -- output checks --------------------------------------------------------------


def agrees(printed: float, exact: float) -> bool:
    """True when ``printed`` is ``exact`` written with six significant digits."""
    if exact == 0.0:
        return printed == 0.0
    return abs(printed - exact) <= 10.0 ** (math.floor(math.log10(abs(exact))) - 5)


def check_predictions(path, rows, reference) -> tuple[int, list[float]]:
    """(rows that are missing or disagree with ``reference``, printed values)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "smiles,protein_id,task_id,prediction":
        return len(rows), []
    bad = abs(len(lines) - 1 - len(rows))
    values = []
    for (smiles, pid), line in zip(rows, lines[1:]):
        fields = line.split(",")
        try:
            value = float(fields[3])
        except (IndexError, ValueError):
            bad += 1
            continue
        if (len(fields) != 4 or fields[:3] != [smiles, pid, "0"]
                or not agrees(value, reference[smiles, pid])):
            bad += 1
        values.append(value)
    return bad, values


def check_cv_report(rows: list[list[str]], k: int) -> tuple[int, float | None]:
    """(folds without both report rows or with a failed leakage audit, mean rmse)."""
    bad = 0
    for fold in range(k):
        found = {row[4]: row for row in rows
                 if len(row) == 10 and row[2] == "0" and row[3] == str(fold)}
        if set(found) != {"0", "aggregate"} or any(
                row[9] != "pass" or not row[6] for row in found.values()):
            bad += 1
    means = [row for row in rows if len(row) == 10 and row[2] == "mean"
             and row[4] == "rmse"]
    mean_rmse = float(means[0][6]) if len(means) == 1 else None
    return bad, mean_rmse


# -- the client loop ------------------------------------------------------------


@dataclass
class Op:
    job: object
    result: object
    wall: float
    traced: bool


class Run:
    """Set-up, closed loop and failure counts of one benchmark run."""

    def __init__(self, seed: int, seconds: float, size: dict, work: Path,
                 tracer: Tracer | None):
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.traced_wall = 0.0

    def _scope(self, label: str, traced: bool, root: str):
        return self.tracer.active(label, root) if traced else nullcontext()

    def setup(self, count: int, fn):
        """Run ``fn`` ``count`` times; return the last result. The last is traced."""
        result = None
        for rep in range(count):
            traced = self.tracer is not None and rep == count - 1
            started = time.perf_counter()
            with self._scope(f"setup{rep}", traced, "bench.setup"):
                result = fn()
            elapsed = time.perf_counter() - started
            self.setup_times.append(elapsed)
            self.traced_wall += elapsed if traced else 0.0
        return result

    def loop(self, min_ops: int, prepare, do, check) -> list[Op]:
        """Closed loop until the next operation would end past ``seconds``.

        With tracing on, odd-numbered operations are traced and even-numbered
        ones are not, so both sides see the same machine state.
        """
        if self.tracer is not None:
            min_ops = max(min_ops, 2)  # one untraced and one traced at least
        ops: list[Op] = []
        started = time.perf_counter()
        for index in itertools.count():
            traced = self.tracer is not None and index % 2 == 1
            job = prepare(index)
            begun = time.perf_counter()
            try:
                with self._scope(f"op{index}", traced, "bench.op"):
                    result = do(job)
            except Exception:  # an operation that raises is a failed operation
                traceback.print_exc(file=sys.stderr)
                self.attempted += 1
                self.failed += 1
                result = None
            wall = time.perf_counter() - begun
            self.traced_wall += wall if traced else 0.0
            if result is not None:
                attempted, failed = check(job, result)
                self.attempted += attempted
                self.failed += failed
                ops.append(Op(job, result, wall, traced))
            elapsed = time.perf_counter() - started
            done = index + 1
            if done >= min_ops and elapsed * (done + 1) / done > self.seconds:
                break
        if not ops:
            raise RuntimeError("every operation failed")
        return ops

    def untraced(self, ops: list[Op]) -> list[Op]:
        return [op for op in ops if not op.traced]


def overhead_share(ops: list[Op]) -> float:
    traced = [op.wall for op in ops if op.traced]
    plain = [op.wall for op in ops if not op.traced]
    return statistics.median(traced) / statistics.median(plain) - 1.0


def latency(walls: list[float]) -> dict[str, float]:
    return {"request_s_p50": float(np.percentile(walls, 50)),
            "request_s_p90": float(np.percentile(walls, 90))}


class Clock:
    """Times every ``training.train`` and ``FeatureStore.predict`` call."""

    def __init__(self):
        self.fits: list[tuple[float, int, float | None]] = []
        self.scores: list[tuple[float, int]] = []

    @contextmanager
    def active(self):
        patcher = Patcher()
        patcher.function(training, "train", self._fit)
        patcher.method(FeatureStore, "predict", self._score)
        try:
            yield self
        finally:
            patcher.restore()

    def _fit(self, fn):
        def timed(model, store, train_idx, val_idx, cfg):
            started = time.perf_counter()
            result = fn(model, store, train_idx, val_idx, cfg)
            pairs = len(train_idx) * len(result.history)
            self.fits.append((time.perf_counter() - started, pairs,
                              best_val_rmse(result)))
            return result
        return timed

    def _score(self, fn):
        def timed(store, model, indices, *args, **kwargs):
            started = time.perf_counter()
            result = fn(store, model, indices, *args, **kwargs)
            self.scores.append((time.perf_counter() - started, len(indices)))
            return result
        return timed


def best_val_rmse(result: training.TrainResult) -> float | None:
    for row in result.history:
        if row.epoch == result.best_epoch and row.val_rmse:
            return row.val_rmse[0]
    return None


def fit_is_sound(result: training.TrainResult) -> bool:
    val = best_val_rmse(result)
    return (all(math.isfinite(row.train_loss) for row in result.history)
            and val is not None and math.isfinite(val))


def fit_state(dataset: PairDataset, train_idx, val_idx, seed: int):
    """(train seconds, fit sound, parameters) of a 1-epoch padme-ecfp fit.

    The user of ``screen`` arrives with a fitted model, so this fit is part
    of making the inputs, not of set-up.
    """
    store = FeatureStore(dataset, ModelConfig())
    model = store.build_model()
    started = time.perf_counter()
    result = training.train(model, store, train_idx, val_idx,
                            training.TrainConfig(max_epochs=1, patience=1,
                                                 seed=seed))
    return (time.perf_counter() - started, fit_is_sound(result),
            model.graph.state_dict())


def reference_predictions(checkpoint, pool, targets) -> dict:
    """``FeatureStore.predict`` of the checkpoint on every (compound, protein)."""
    model, _ = Model.load(checkpoint)
    pairs = np.array([(c, p) for c in range(len(pool))
                      for p in range(len(targets))])
    dataset = PairDataset(
        compounds=tuple(pool), protein_ids=tuple(targets), sequences=targets,
        pairs=pairs, y=np.zeros((len(pairs), 1)), w=np.ones((len(pairs), 1)),
        n_tasks=1)
    exact = FeatureStore(dataset, model.cfg).predict(
        model, np.arange(len(pairs)))[:, 0]
    ids = list(targets)
    return {(pool[c], ids[p]): v for (c, p), v in zip(pairs, exact)}


# -- workloads --------------------------------------------------------------------


def train_ecfp(run: Run) -> tuple[dict, list[Op]]:
    s = run.size
    dataset = pair_dataset(run.seed, s["compounds"], s["proteins"], s["pairs"],
                           s["length"])
    train_idx, val_idx = splits.hyperopt_holdout(dataset.n_pairs,
                                                 seed=run.seed, fraction=0.1)
    cfg = training.TrainConfig(max_epochs=s["epochs"], patience=s["epochs"],
                               seed=run.seed)
    everything = np.arange(dataset.n_pairs)

    def setup():
        store = FeatureStore(dataset, ModelConfig())
        store.build_model()
        return store

    store = run.setup(s["setups"], setup)
    first: dict = {}

    def do(_job):
        started = time.perf_counter()
        model = store.build_model()
        built = time.perf_counter()
        result = training.train(model, store, train_idx, val_idx, cfg)
        trained = time.perf_counter()
        predicted = store.predict(model, everything)
        scored = [time.perf_counter() - trained]
        for _ in range(s["scorings"] - 1):  # repeats steady the throughput
            again = time.perf_counter()
            store.predict(model, everything)
            scored.append(time.perf_counter() - again)
        # Keep numbers only: a kept model or TrainResult would inflate RSS.
        return {"sound": fit_is_sound(result),
                "val_rmse": best_val_rmse(result),
                "predicted": predicted[val_idx],
                "train_s": trained - built, "score_s": scored,
                "wall": trained - started + scored[0]}

    def check(_job, out):
        y, w = store.pair_targets(val_idx)
        out["cv_rmse"] = metrics.evaluate_predictions(y, out["predicted"], w).rmse
        first.setdefault("val_rmse", out["val_rmse"])
        sound = out["sound"] and out["cv_rmse"] is not None
        return 1, int(not sound or out["val_rmse"] != first["val_rmse"])

    ops = run.loop(s["min_ops"], lambda i: i, do, check)
    plain = [op.result for op in run.untraced(ops)]
    return {
        "train_pairs_per_s": statistics.median(
            s["epochs"] * len(train_idx) / r["train_s"] for r in plain),
        "val_rmse": first["val_rmse"],
        "screen_pairs_per_s": statistics.median(
            dataset.n_pairs / t for r in plain for t in r["score_s"]),
        **latency([r["wall"] for r in plain]),
        "cv_s": statistics.median(r["wall"] for r in plain),
        "cv_rmse": plain[0]["cv_rmse"],
    }, ops


def screen(run: Run) -> tuple[dict, list[Op]]:
    s = run.size
    fit = pair_dataset(run.seed, s["compounds"], s["proteins"], s["pairs"],
                       s["length"])
    rng = np.random.default_rng([run.seed, 2])
    seen = set(fit.compounds)
    pool = [c for c in synthetic.unique_smiles(s["pool"] + len(seen), rng)
            if c not in seen][:s["pool"]]
    targets = {f"S{j}": (synthetic.random_sequence(rng, s["length"]), False)
               for j in range(2)}
    proteins_tsv = run.work / "screen_proteins.tsv"
    proteins_tsv.write_text("".join(f"{pid}\t0\t{seq}\n"
                                    for pid, (seq, _) in targets.items()),
                            encoding="utf-8")
    checkpoint = run.work / "screen.ckpt"
    train_idx, val_idx = splits.hyperopt_holdout(fit.n_pairs, seed=run.seed,
                                                 fraction=0.1)
    fit_s, sound, state = fit_state(fit, train_idx, val_idx, run.seed)
    if not sound:
        run.failed += 1

    def setup():
        model = FeatureStore(fit, ModelConfig()).build_model()
        model.graph.load_state(state)
        model.save(checkpoint)

    run.setup(s["setups"], setup)
    del state
    reference = reference_predictions(checkpoint, pool, targets)
    noise = rng.normal(0.0, NOISE, size=(len(pool), 2))
    where = {smiles: j for j, smiles in enumerate(pool)}
    request_rng = np.random.default_rng([run.seed, 3])
    pairs_csv = run.work / "request.csv"
    out_csv = run.work / "predictions.csv"

    def prepare(_i):
        pid = f"S{int(request_rng.integers(2))}"
        picks = request_rng.choice(len(pool), size=s["request"], replace=False)
        rows = [(pool[j], pid) for j in picks]
        pairs_csv.write_text("smiles,protein_id\n" + "".join(
            f"{smiles},{pid}\n" for smiles, pid in rows), encoding="utf-8")
        return rows

    def do(_rows):
        started = time.perf_counter()
        pipeline.run_predict(checkpoint, pairs_csv, proteins_tsv, out_csv)
        return time.perf_counter() - started

    truth: list[float] = []
    printed: list[float] = []

    def check(rows, _wall):
        bad, values = check_predictions(out_csv, rows, reference)
        if not bad:
            printed.extend(values)
            truth.extend(affinity(smiles, targets[pid][0])
                         + noise[where[smiles], int(pid[1:])]
                         for smiles, pid in rows)
        return 1, int(bad > 0)

    ops = run.loop(s["min_ops"], prepare, do, check)
    plain = run.untraced(ops)
    ones = np.ones((len(truth), 1))
    report = metrics.evaluate_predictions(np.array(truth)[:, None],
                                          np.array(printed)[:, None], ones)
    return {
        "train_pairs_per_s": len(train_idx) / fit_s,
        "val_rmse": metrics.rmse(truth, printed),
        "screen_pairs_per_s": sum(len(op.job) for op in plain)
        / sum(op.result for op in plain),
        **latency([op.result for op in plain]),
        "cv_s": fit_s,
        "cv_rmse": report.rmse,
    }, ops


def cv_cluster(run: Run) -> tuple[dict, list[Op]]:
    s = run.size
    fixture = run.work / "cv_data"
    synthetic.write_fixture(fixture, n_compounds=s["compounds"],
                            n_proteins=s["proteins"],
                            obs_per_compound=s["obs"], seed=run.seed)
    cfg = parse_run_config(None, overrides={
        "model.variant": "padme-graphconv",
        "model.hidden_layers": "64",
        "train.max_epochs": str(s["epochs"]),
        "train.patience": str(s["epochs"]),
    })
    dataset = run.setup(s["setups"],
                        lambda: pipeline.load_pair_dataset(cfg, fixture))
    clock = Clock()
    reports: list[str] = []

    def do(out_dir):
        fits, scores = len(clock.fits), len(clock.scores)
        started = time.perf_counter()
        path = pipeline.run_cv(cfg, dataset, out_dir, scheme="cold-cluster",
                               k=s["k"], repetitions=1, seed=run.seed)
        return {"path": path, "wall": time.perf_counter() - started,
                "fits": clock.fits[fits:], "scores": clock.scores[scores:]}

    def check(out_dir, out):
        _comments, rows = pipeline.read_report(out["path"])
        bad, out["cv_rmse"] = check_cv_report(rows, s["k"])
        reports.append(out["path"].read_text(encoding="utf-8"))
        shutil.rmtree(out_dir)
        if out["cv_rmse"] is None or reports[-1] != reports[0]:
            bad = s["k"]  # no summary, or not what the same seed gave before
        return s["k"], bad

    with clock.active():
        ops = run.loop(s["min_ops"], lambda i: run.work / f"cv{i}", do, check)
    plain = [op.result for op in run.untraced(ops)]
    fits = [fit for out in plain for fit in out["fits"]]
    scores = [score for out in plain for score in out["scores"]]
    return {
        "train_pairs_per_s": sum(p for _, p, _ in fits)
        / sum(t for t, _, _ in fits),
        "val_rmse": float(np.mean([val for _, _, val in plain[0]["fits"]])),
        "screen_pairs_per_s": statistics.median(n / t for t, n in scores),
        **latency([out["wall"] for out in plain]),
        "cv_s": statistics.median(out["wall"] for out in plain),
        "cv_rmse": plain[0]["cv_rmse"],
    }, ops


RUNNERS = {"train-ecfp": train_ecfp, "screen": screen, "cv-cluster": cv_cluster}
