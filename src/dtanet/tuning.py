"""Hyperparameter search: seeded random sampling and GP-guided search.

Both strategies minimize an objective over a named space of continuous
(optionally log-scaled), integer and categorical dimensions. The guided
strategy fits a Gaussian process with a squared-exponential kernel on the
unit-cube encoding of the completed trials (lengthscale and noise picked by
marginal likelihood over a small grid), then proposes the maximizer of the
expected improvement over a seeded candidate pool. Objective failures are
recorded as failed trials and never abort the search; Cholesky failures
escalate the jitter and, as a last resort, fall back to a random proposal
for that iteration.

A point of the space names run-config settings: :func:`point_overrides`
maps it to ``section.key`` overrides, and the caller fits the run config
with those applied (``pipeline.run_tune``), so this module knows nothing of
models or training.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_lines

__all__ = [
    "TuneError",
    "Continuous",
    "Integer",
    "Categorical",
    "SearchSpace",
    "Trial",
    "SearchResult",
    "random_search",
    "gp_ei_search",
    "expected_improvement",
    "GaussianProcess",
    "load_space",
    "default_search_space",
    "point_overrides",
]

log = logging.getLogger(__name__)


class TuneError(ValueError):
    pass


@dataclass(frozen=True)
class Continuous:
    lo: float
    hi: float
    log: bool = False

    def __post_init__(self):
        if not self.lo < self.hi:
            raise TuneError(f"continuous bounds need lo < hi, got [{self.lo}, {self.hi}]")
        if self.log and self.lo <= 0:
            raise TuneError("log-scaled dimensions need lo > 0")

    def sample(self, rng):
        if self.log:
            return float(np.exp(rng.uniform(np.log(self.lo), np.log(self.hi))))
        return float(rng.uniform(self.lo, self.hi))

    def encode(self, value):
        if self.log:
            return [(math.log(value) - math.log(self.lo))
                    / (math.log(self.hi) - math.log(self.lo))]
        return [(value - self.lo) / (self.hi - self.lo)]


@dataclass(frozen=True)
class Integer:
    lo: int
    hi: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise TuneError(f"integer bounds need lo < hi, got [{self.lo}, {self.hi}]")

    def sample(self, rng):
        return int(rng.integers(self.lo, self.hi + 1))

    def encode(self, value):
        return [(value - self.lo) / (self.hi - self.lo)]


@dataclass(frozen=True)
class Categorical:
    choices: tuple

    def __post_init__(self):
        if not self.choices:
            raise TuneError("categorical dimension with no choices")

    def sample(self, rng):
        return self.choices[int(rng.integers(0, len(self.choices)))]

    def encode(self, value):
        row = [0.0] * len(self.choices)
        row[self.choices.index(value)] = 1.0
        return row


@dataclass
class SearchSpace:
    dimensions: dict[str, Continuous | Integer | Categorical]

    def sample(self, rng: np.random.Generator) -> dict:
        return {name: dim.sample(rng) for name, dim in self.dimensions.items()}

    def encode(self, point: dict) -> np.ndarray:
        row: list[float] = []
        for name, dim in self.dimensions.items():
            row.extend(dim.encode(point[name]))
        return np.asarray(row, dtype=np.float64)


@dataclass
class Trial:
    index: int
    point: dict
    value: float | None
    status: str  # "complete" | "failed"
    message: str | None = None


@dataclass
class SearchResult:
    trials: list[Trial]

    @property
    def best(self) -> Trial:
        return best_of(self.trials)


def best_of(trials: list[Trial]) -> Trial:
    complete = [t for t in trials if t.status == "complete"]
    if not complete:
        raise TuneError("no completed trial")
    return min(complete, key=lambda t: (t.value, t.index))


def _evaluate(objective, point: dict, index: int) -> Trial:
    try:
        value = float(objective(point))
    except Exception as exc:  # failed trials are data, not crashes
        log.warning("trial %d failed: %s", index, exc)
        return Trial(index=index, point=point, value=None, status="failed",
                     message=str(exc))
    if not np.isfinite(value):
        return Trial(index=index, point=point, value=None, status="failed",
                     message=f"non-finite objective {value}")
    return Trial(index=index, point=point, value=value, status="complete")


def random_search(space: SearchSpace, objective, budget: int,
                  seed: int = 0) -> SearchResult:
    """``budget`` independent seeded samples; returns all trials."""
    if budget < 1:
        raise TuneError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    trials = [_evaluate(objective, space.sample(rng), i) for i in range(budget)]
    return SearchResult(trials=trials)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def expected_improvement(mean: np.ndarray, std: np.ndarray,
                         best: float) -> np.ndarray:
    """EI for minimization; zero wherever std is 0 and mean >= best."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    improvement = best - mean
    out = np.maximum(improvement, 0.0)
    positive = std > 0.0
    z = np.divide(improvement, std, out=np.zeros_like(std), where=positive)
    ei = improvement * _norm_cdf(z) + std * _norm_pdf(z)
    out = np.where(positive, ei, out)
    return np.maximum(out, 0.0)


class GaussianProcess:
    """Squared-exponential GP with grid-selected lengthscale and noise.

    Targets are standardized internally. The noise grid starts near zero, so
    on noiseless data the posterior mean interpolates the training targets
    (up to the jitter used to keep the Cholesky factor alive).
    """

    def __init__(self,
                 lengthscales=(0.05, 0.1, 0.2, 0.5, 1.0, 2.0),
                 noise_levels=(1e-10, 1e-6, 1e-4, 1e-2),
                 jitter: float = 1e-12):
        self.lengthscales = tuple(lengthscales)
        self.noise_levels = tuple(noise_levels)
        self.jitter = jitter
        self._fit = None

    @staticmethod
    def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)

    def _chol_with_jitter(self, k: np.ndarray) -> tuple[np.ndarray, float] | None:
        jitter = self.jitter
        for _ in range(8):
            try:
                return np.linalg.cholesky(k + jitter * np.eye(k.shape[0])), jitter
            except np.linalg.LinAlgError:
                jitter *= 100.0
        return None

    def fit(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape[0] != y.shape[0] or x.shape[0] < 2:
            raise TuneError("GP fit needs at least 2 matching observations")
        self._y_mean = float(y.mean())
        self._y_std = float(y.std())
        if self._y_std == 0.0:
            self._y_std = 1.0
        yn = (y - self._y_mean) / self._y_std
        sq = self._sqdist(x, x)
        best = None
        for ell in self.lengthscales:
            k_base = np.exp(-0.5 * sq / (ell * ell))
            for noise in self.noise_levels:
                chol = self._chol_with_jitter(k_base + noise * np.eye(len(yn)))
                if chol is None:
                    continue
                lower, jitter = chol
                alpha = np.linalg.solve(lower.T, np.linalg.solve(lower, yn))
                log_ml = (-0.5 * yn @ alpha
                          - np.log(np.diag(lower)).sum()
                          - 0.5 * len(yn) * math.log(2.0 * math.pi))
                if best is None or log_ml > best[0]:
                    best = (log_ml, ell, noise, lower, alpha, jitter)
        if best is None:
            raise TuneError("GP fit failed: no kernel configuration factorized")
        _, ell, noise, lower, alpha, jitter = best
        self._fit = {"x": x, "ell": ell, "noise": noise, "lower": lower,
                     "alpha": alpha, "jitter": jitter}

    def predict(self, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._fit is None:
            raise TuneError("predict before fit")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=np.float64))
        fit = self._fit
        k_star = np.exp(-0.5 * self._sqdist(x_new, fit["x"])
                        / (fit["ell"] ** 2))
        mean_n = k_star @ fit["alpha"]
        v = np.linalg.solve(fit["lower"], k_star.T)
        var_n = 1.0 + fit["noise"] - (v ** 2).sum(axis=0)
        var_n = np.maximum(var_n, 0.0)
        mean = mean_n * self._y_std + self._y_mean
        std = np.sqrt(var_n) * self._y_std
        return mean, std


# random points that each GP-guided trial scores by expected improvement
_EI_CANDIDATES = 1024


def gp_ei_search(space: SearchSpace, objective, budget: int,
                 n_init: int = 10, seed: int = 0) -> SearchResult:
    """GP-guided minimization: random warm-up, then EI over a candidate pool."""
    if n_init < 0:
        raise TuneError(f"n_init must be at least 0, got {n_init}")
    if budget <= n_init:
        raise TuneError(f"budget {budget} must exceed n_init {n_init}")
    rng = np.random.default_rng(seed)
    trials = [_evaluate(objective, space.sample(rng), i) for i in range(n_init)]
    gp = GaussianProcess()
    for index in range(n_init, budget):
        complete = [t for t in trials if t.status == "complete"]
        point = None
        if len(complete) >= 2:
            x = np.stack([space.encode(t.point) for t in complete])
            y = np.array([t.value for t in complete])
            try:
                gp.fit(x, y)
                candidates = [space.sample(rng) for _ in range(_EI_CANDIDATES)]
                encoded = np.stack([space.encode(c) for c in candidates])
                mean, std = gp.predict(encoded)
                ei = expected_improvement(mean, std, float(y.min()))
                point = candidates[int(np.argmax(ei))]
            except TuneError as exc:
                log.warning("GP proposal failed (%s); sampling randomly", exc)
        if point is None:
            point = space.sample(rng)
        trials.append(_evaluate(objective, point, index))
    return SearchResult(trials=trials)


# -- space files ---------------------------------------------------------------


def default_search_space() -> SearchSpace:
    """Model/training dimensions searched when no space file is given."""
    return SearchSpace(dimensions={
        "learning_rate": Continuous(1e-4, 1e-2, log=True),
        "batch_size": Categorical((16, 32, 64)),
        "n_layers": Integer(1, 3),
        "layer_width": Categorical((64, 128, 256, 512)),
        "dropout": Continuous(0.0, 0.5),
    })


# point dimension -> (config key, type of its value)
POINT_KEYS = {
    "learning_rate": ("train.learning_rate", float),
    "batch_size": ("train.batch_size", int),
    "dropout": ("model.dropout", float),
}
# searched together: ``n_layers`` hidden layers of ``layer_width`` units
LAYER_DIMENSIONS = ("n_layers", "layer_width")


def _unmapped(names) -> tuple[str, str] | None:
    """``(name, reason)`` for the first dimension name that
    :func:`point_overrides` cannot map, or ``None``."""
    for name in names:
        if name not in POINT_KEYS and name not in LAYER_DIMENSIONS:
            return name, (f"unknown dimension {name!r}; expected one of "
                          f"{(*POINT_KEYS, *LAYER_DIMENSIONS)}")
    layers = [name for name in LAYER_DIMENSIONS if name in names]
    if len(layers) == 1:
        partner = next(n for n in LAYER_DIMENSIONS if n != layers[0])
        return layers[0], f"{layers[0]!r} needs {partner!r} in the same space"
    return None


def point_overrides(point: dict) -> dict[str, str]:
    """Run-config overrides (``section.key`` -> text) that apply ``point``."""
    problem = _unmapped(point)
    if problem is not None:
        raise TuneError(problem[1])
    overrides = {POINT_KEYS[name][0]: str(POINT_KEYS[name][1](value))
                 for name, value in point.items() if name in POINT_KEYS}
    if "n_layers" in point:
        width = str(int(point["layer_width"]))
        overrides["model.hidden_layers"] = ",".join(
            [width] * int(point["n_layers"]))
    return overrides


def load_space(path: str | Path) -> SearchSpace:
    """Read a space file: ``name kind args...`` per line.

    Kinds: ``continuous lo hi [log]``, ``integer lo hi``,
    ``categorical v1 v2 ...`` (values parsed as numbers when possible).
    Names are the dimensions :func:`point_overrides` knows, each on one
    line; ``n_layers`` and ``layer_width`` come together. A duplicate name
    or a word past a kind's arguments fails naming the line.
    """
    dims: dict[str, Continuous | Integer | Categorical] = {}
    lines: dict[str, int] = {}
    for lineno, raw in read_lines(path, TuneError):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise TuneError(f"{path}: line {lineno}: expected 'name kind args...'")
        name, kind, *args = parts
        if name in lines:
            raise TuneError(f"{path}: line {lineno}: duplicate dimension "
                            f"{name!r} (first on line {lines[name]})")
        lines[name] = lineno
        if kind in ("continuous", "integer"):
            cast = float if kind == "continuous" else int
            try:
                lo, hi = (cast(a) for a in args[:2])
            except ValueError:
                raise TuneError(
                    f"{path}: line {lineno}: {kind} needs numeric bounds "
                    f"'lo hi', got {' '.join(args)!r}") from None
            scales = ([], ["log"]) if kind == "continuous" else ([],)
            if args[2:] not in scales:
                raise TuneError(
                    f"{path}: line {lineno}: unexpected "
                    f"{' '.join(args[2:])!r} after the {kind} bounds")
            try:
                if kind == "continuous":
                    dims[name] = Continuous(lo, hi, args[2:] == ["log"])
                else:
                    dims[name] = Integer(lo, hi)
            except TuneError as exc:
                raise TuneError(f"{path}: line {lineno}: {exc}") from exc
        elif kind == "categorical":
            dims[name] = Categorical(tuple(_parse_scalar(a) for a in args))
        else:
            raise TuneError(f"{path}: line {lineno}: unknown dimension kind {kind!r}")
    if not dims:
        raise TuneError(f"{path}: empty search space")
    problem = _unmapped(dims)
    if problem is not None:
        name, reason = problem
        raise TuneError(f"{path}: line {lines[name]}: {reason}")
    return SearchSpace(dimensions=dims)


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text
