"""Flat key=value run configuration.

Configuration files use INI sections (``[data]``, ``[model]``, ``[train]``,
``[split]``, ``[tune]``); every key has a default and unknown keys are
rejected. A canonical snapshot of the effective configuration is embedded in
checkpoints and reports so results stay traceable to their settings.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .artifacts import read_lines
from .model import ModelConfig, VARIANTS
from .splits import SCHEMES
from .training import TrainConfig

__all__ = ["ConfigError", "RunConfig", "parse_run_config", "DEFAULTS"]


class ConfigError(ValueError):
    pass


# section -> key -> default (all values are strings in file form)
DEFAULTS: dict[str, dict[str, str]] = {
    "data": {
        "interactions": "interactions.csv",
        "proteins": "proteins.tsv",
        "assay_map": "",
        "min_obs": "0",
        "inactive_remap_from": "",
        "inactive_remap_to": "",
        "oversample_fraction": "0",
        "malformed_tolerance": "0",
        "n_tasks": "0",  # 0 = infer from the data
    },
    "model": {
        "variant": "padme-ecfp",
        "hidden_layers": "256,256",
        "dropout": "0.1",
        "batchnorm": "true",
        "fp_radius": "2",
        "fp_bits": "2048",
        "max_degree": "6",
        "conv_widths": "64,64",
        "conv_dense": "128",
        "seed": "0",
    },
    "train": {
        "batch_size": "32",
        "max_epochs": "50",
        "patience": "5",
        "learning_rate": "0.001",
        "eval_every": "1",
        "seed": "0",
        "holdout_fraction": "0.1",
    },
    "split": {
        "scheme": "warm",
        "k": "5",
        "seed": "0",
        "repetitions": "3",
        "cluster_threshold": "0.7",
    },
    "tune": {
        "strategy": "gp",
        "budget": "20",
        "n_init": "8",
        "seed": "0",
    },
}


def _as_bool(text: str, where: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


def _as_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {text!r}") from None


def _as_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {text!r}") from None


def _unit_fraction(text: str, where: str, closed: bool) -> float:
    """A number in [0, 1), or in [0, 1] when ``closed``; NaN is refused."""
    value = _as_float(text, where)
    if not (0.0 <= value < 1.0 or (closed and value == 1.0)):
        interval = "[0, 1]" if closed else "[0, 1)"
        raise ConfigError(f"{where}: must be in {interval}, got {value}")
    return value


def _positive_float(text: str, where: str) -> float:
    """A finite number above 0; NaN is refused."""
    value = _as_float(text, where)
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{where}: must be finite and > 0, got {value}")
    return value


def _at_least(value: int, low: int, where: str) -> int:
    if value < low:
        raise ConfigError(f"{where}: must be at least {low}, got {value}")
    return value


def _count(text: str, where: str) -> int:
    """An integer of at least 0: a seed, a count or a tolerance."""
    return _at_least(_as_int(text, where), 0, where)


def _as_int_tuple(text: str, where: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated integers, "
                          f"got {text!r}") from None


def _as_float_tuple(text: str, where: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated numbers, "
                          f"got {text!r}") from None


@dataclass
class RunConfig:
    values: dict[str, dict[str, str]]

    def get(self, section: str, key: str) -> str:
        return self.values[section][key]

    def override(self, mapping: dict[str, object]) -> "RunConfig":
        """A copy with ``section.key`` -> value overrides applied.

        Values are stored in their ``str`` form; an unknown key raises
        :class:`ConfigError`.
        """
        values = {section: dict(keys) for section, keys in self.values.items()}
        for dotted, value in mapping.items():
            section, _, key = dotted.partition(".")
            if section not in values or key not in values[section]:
                raise ConfigError(f"unknown config key {dotted}")
            values[section][key] = str(value)
        return RunConfig(values=values)

    @classmethod
    def from_snapshot(cls, text: str) -> "RunConfig":
        """The config a :meth:`snapshot` text describes; a key the text
        lacks keeps its default."""
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # keep keys case-sensitive
        parser.read_string(text)
        return cls(values=_merged_with_defaults(parser, None))

    def snapshot(self) -> str:
        """Canonical text form: sections and keys in sorted order."""
        lines = []
        for section in sorted(self.values):
            lines.append(f"[{section}]")
            for key in sorted(self.values[section]):
                lines.append(f"{key}={self.values[section][key]}")
        return "\n".join(lines) + "\n"

    # -- typed views ---------------------------------------------------------

    def model_config(self, n_tasks: int) -> ModelConfig:
        section = self.values["model"]
        variant = section["variant"]
        if variant not in VARIANTS:
            raise ConfigError(f"model.variant: unknown variant {variant!r}; "
                              f"expected one of {VARIANTS}")
        return ModelConfig(
            variant=variant,
            n_tasks=n_tasks,
            hidden_layers=_as_int_tuple(section["hidden_layers"],
                                        "model.hidden_layers"),
            dropout_rates=_as_float_tuple(section["dropout"], "model.dropout"),
            use_batchnorm=_as_bool(section["batchnorm"], "model.batchnorm"),
            fp_radius=_as_int(section["fp_radius"], "model.fp_radius"),
            fp_bits=_as_int(section["fp_bits"], "model.fp_bits"),
            max_degree=_as_int(section["max_degree"], "model.max_degree"),
            conv_widths=_as_int_tuple(section["conv_widths"],
                                      "model.conv_widths"),
            conv_dense=_as_int(section["conv_dense"], "model.conv_dense"),
            seed=_count(section["seed"], "model.seed"),
        )

    def train_config(self) -> TrainConfig:
        section = self.values["train"]
        return TrainConfig(
            batch_size=_as_int(section["batch_size"], "train.batch_size"),
            max_epochs=_as_int(section["max_epochs"], "train.max_epochs"),
            patience=_as_int(section["patience"], "train.patience"),
            learning_rate=_positive_float(section["learning_rate"],
                                          "train.learning_rate"),
            eval_every=_as_int(section["eval_every"], "train.eval_every"),
            seed=_count(section["seed"], "train.seed"),
        )

    def holdout_fraction(self) -> float:
        return _unit_fraction(self.values["train"]["holdout_fraction"],
                              "train.holdout_fraction", closed=False)

    def inactive_remap(self) -> tuple[float, float] | None:
        """The ``(from, to)`` raw-value remap of ``data.inactive_remap_*``,
        or ``None`` when it is not set."""
        section = self.values["data"]
        if not section["inactive_remap_from"]:
            return None
        if not section["inactive_remap_to"]:
            raise ConfigError(
                "data.inactive_remap_to must be set together with "
                "data.inactive_remap_from")
        return (_as_float(section["inactive_remap_from"],
                          "data.inactive_remap_from"),
                _as_float(section["inactive_remap_to"],
                          "data.inactive_remap_to"))

    def data_kwargs(self, data_dir: Path) -> dict:
        section = self.values["data"]
        n_tasks = _count(section["n_tasks"], "data.n_tasks")
        # the key stays so that snapshots and old checkpoints keep reading
        oversample = _as_float(section["oversample_fraction"],
                               "data.oversample_fraction")
        if oversample != 0:
            raise ConfigError(
                f"data.oversample_fraction: only 0 is accepted, got "
                f"{oversample}; replicated records are averaged into one "
                f"pair row, so they cannot add a pair")
        return {
            "interactions_path": data_dir / section["interactions"],
            "sequences_path": data_dir / section["proteins"],
            "assay_map_path": (data_dir / section["assay_map"]
                               if section["assay_map"] else None),
            "min_obs": _count(section["min_obs"], "data.min_obs"),
            "inactive_remap": self.inactive_remap(),
            "malformed_tolerance": _count(section["malformed_tolerance"],
                                          "data.malformed_tolerance"),
            "n_tasks": n_tasks if n_tasks > 0 else None,
        }

    def split_params(self) -> dict:
        section = self.values["split"]
        scheme = section["scheme"]
        if scheme not in SCHEMES:
            raise ConfigError(f"split.scheme: unknown scheme {scheme!r}; "
                              f"expected one of {SCHEMES}")
        return {
            "scheme": scheme,
            "k": _at_least(_as_int(section["k"], "split.k"), 2, "split.k"),
            "seed": _count(section["seed"], "split.seed"),
            "repetitions": _at_least(
                _as_int(section["repetitions"], "split.repetitions"), 1,
                "split.repetitions"),
            "cluster_threshold": _unit_fraction(section["cluster_threshold"],
                                                "split.cluster_threshold",
                                                closed=True),
        }

    def tune_params(self) -> dict:
        section = self.values["tune"]
        strategy = section["strategy"]
        if strategy not in ("random", "gp"):
            raise ConfigError(
                f"tune.strategy: expected 'random' or 'gp', got {strategy!r}")
        return {
            "strategy": strategy,
            "budget": _at_least(_as_int(section["budget"], "tune.budget"), 1,
                                "tune.budget"),
            "n_init": _count(section["n_init"], "tune.n_init"),
            "seed": _count(section["seed"], "tune.seed"),
        }


def parse_run_config(path: str | Path | None = None,
                     overrides: dict[str, str] | None = None) -> RunConfig:
    """Load defaults, then the file, then ``section.key`` overrides.

    The file is read as UTF-8. Anything wrong with it (a byte that does not
    decode, a line ``configparser`` cannot parse or interpolate, an unknown
    section or key) is a :class:`ConfigError` that names the file, and the
    line where one is known.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.optionxform = str  # keep keys case-sensitive
    text = ""
    if path is not None:
        try:
            text = "\n".join(line for _, line in read_lines(path, ConfigError))
        except OSError:
            raise ConfigError(f"cannot read config file {path}") from None
    try:
        parser.read_string(text, source=str(path))
        values = _merged_with_defaults(parser, path)
    except configparser.Error as error:
        raise ConfigError(_config_error(path, error)) from None
    return RunConfig(values=values).override(overrides or {})


def _merged_with_defaults(parser: configparser.ConfigParser, source) -> dict:
    """The defaults with the parser's values on top; an unknown name raises
    a ``ConfigError`` that starts with ``source`` unless it is None."""
    where = "" if source is None else f"{source}: "
    values = {section: dict(keys) for section, keys in DEFAULTS.items()}
    for section in parser.sections():
        if section not in values:
            raise ConfigError(f"{where}unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in values[section]:
                raise ConfigError(f"{where}unknown config key {section}.{key}")
            values[section][key] = value
    return values


def _config_error(path, error: configparser.Error) -> str:
    """The message of a ``ConfigError`` for ``configparser``'s ``error``."""
    line = getattr(error, "lineno", None)
    if isinstance(error, configparser.MissingSectionHeaderError):
        what = "a line comes before the first [section] header"
    elif isinstance(error, configparser.ParsingError):
        line = error.errors[0][0]
        what = f"cannot parse {error.errors[0][1]}"
    elif isinstance(error, configparser.DuplicateSectionError):
        what = f"section [{error.section}] appears twice"
    elif isinstance(error, configparser.DuplicateOptionError):
        what = f"key {error.section}.{error.option} is set twice"
    elif isinstance(error, configparser.InterpolationError):
        what = f"{error.section}.{error.option}: {error.message}"
    else:
        what = error.message
    return f"{path}: line {line}: {what}" if line else f"{path}: {what}"
