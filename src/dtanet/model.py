"""Network assembly for the four model variants, plus checkpoints.

A model joins a compound vector to a protein descriptor and regresses the
pair through a stack of dense -> batchnorm -> relu -> dropout blocks onto
one output per task:

* ``padme-ecfp``        fingerprint bits | protein descriptor
* ``padme-graphconv``   conv/pool stack + sum readout | protein descriptor
* ``compound-only-*``   compound vector only, one output per known protein

Each network is one stack of layers (``engine.Graph``): the conv stack
of a graph-conv variant, the first dense layer, the hidden layers, the
output layer and the loss. The join is never materialized. The first dense
layer's weight ``dense0.W`` has one row per input column (compound columns
first), and the layer projects each distinct compound and each distinct
protein of a batch once through its block of rows, then adds the two
projected rows per pair (``engine.IndexedDense``). A training batch's feeds
therefore hold the distinct compound inputs, the distinct protein
descriptors, and the per-pair row indices ``compound_row`` and
``protein_row``.

Prediction lifts the distinct row from the batch to the call:
``FeatureStore.predict`` projects each distinct compound and protein of the
whole call once, then hands each chunk the projected tables and its pairs'
row indices (a ``GatherAdd``) as the first layer's value to an inference
pass of the layers after it (``Graph.infer``), which gathers and adds them
block by block.

The compound-only variants cannot see new proteins (a prediction for an
unknown protein id is a hard error); the paired variants accept any protein
sequence, which is what makes cold-start prediction possible.

Checkpoints are a small binary container: magic ``DTNCKPT1``, uint32 format
version, uint64 JSON header length, a JSON header (config snapshot,
featurization signature, tensor manifest and run-config snapshot), then
the float64 little-endian payloads of the parameters and batch-norm running
statistics in manifest order. A checkpoint holds what scoring reads: no
optimizer state, so a fit cannot resume from one. Loading compares the
stored featurization signature with this build's entry by entry and refuses
a file whose inputs this code would lay out differently, or that it cannot
fully restore, with a ``ModelError`` naming the file.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import sys
import traceback
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import proteins
from .artifacts import write_artifact
from .compounds import (
    DEFAULT_ATOM_VOCABULARY,
    FeaturizationError,
    atom_feature_matrix,
    atom_feature_width,
    ecfp_matrix,
)
from .data import PairDataset
from .engine import (
    AddBias,
    BatchNorm,
    Dropout,
    GatherAdd,
    Graph,
    IndexedDense,
    Input,
    MatMul,
    NonFiniteError,
    Parameter,
    Relu,
    WeightedMse,
    all_finite,
    require_finite,
)
from .graphconv import (
    GraphConv,
    GraphGather,
    GraphPool,
    PackedGraphs,
    RestoreAtomOrder,
)

__all__ = ["ModelError", "ModelConfig", "Model", "FeatureStore", "VARIANTS",
           "FEATURIZATION_VERSION"]

VARIANTS = ("padme-ecfp", "padme-graphconv",
            "compound-only-ecfp", "compound-only-graphconv")

FEATURIZATION_VERSION = 1

_MAGIC = b"DTNCKPT1"
_FORMAT_VERSION = 1


class ModelError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "padme-ecfp"
    n_tasks: int = 1
    hidden_layers: tuple[int, ...] = (256, 256)
    dropout_rates: tuple[float, ...] = (0.1,)
    use_batchnorm: bool = True
    fp_radius: int = 2
    fp_bits: int = 2048
    max_degree: int = 6
    conv_widths: tuple[int, ...] = (64, 64)
    conv_dense: int = 128
    seed: int = 0

    def normalized(self) -> "ModelConfig":
        """Validate and broadcast per-layer settings."""
        if self.variant not in VARIANTS:
            raise ModelError(f"unknown variant {self.variant!r}; "
                             f"expected one of {VARIANTS}")
        if not 1 <= len(self.hidden_layers) <= 5:
            raise ModelError("hidden_layers must have 1..5 entries")
        if any(w < 1 for w in self.hidden_layers):
            raise ModelError("hidden layer widths must be positive")
        if self.uses_graphconv and not self.conv_widths:
            raise ModelError("conv_widths must have at least 1 entry for "
                             "the graph-conv variants")
        if any(w < 1 for w in self.conv_widths):
            raise ModelError("conv_widths entries must be positive")
        if self.conv_dense < 1:
            raise ModelError("conv_dense must be positive")
        if self.n_tasks < 1:
            raise ModelError("n_tasks must be >= 1")
        rates = self.dropout_rates
        if len(rates) == 1:
            rates = rates * len(self.hidden_layers)
        if len(rates) != len(self.hidden_layers):
            raise ModelError("need one dropout rate (or one per hidden layer)")
        if any(not 0.0 <= r < 1.0 for r in rates):
            raise ModelError("dropout rates must be in [0, 1)")
        return replace(self, dropout_rates=tuple(rates),
                       hidden_layers=tuple(self.hidden_layers),
                       conv_widths=tuple(self.conv_widths))

    @property
    def uses_graphconv(self) -> bool:
        return self.variant.endswith("graphconv")

    @property
    def compound_only(self) -> bool:
        return self.variant.startswith("compound-only")

    def compound_width(self) -> int:
        return self.conv_dense if self.uses_graphconv else self.fp_bits

    def input_width(self) -> int:
        if self.compound_only:
            return self.compound_width()
        return self.compound_width() + proteins.DESCRIPTOR_LENGTH

    def featurization_signature(self) -> dict:
        """Everything that shapes the inputs; stored in checkpoints."""
        return {
            "layout_version": FEATURIZATION_VERSION,
            "variant": self.variant,
            "fp_radius": self.fp_radius,
            "fp_bits": self.fp_bits,
            "max_degree": self.max_degree,
            "atom_vocabulary": list(DEFAULT_ATOM_VOCABULARY),
            "protein_layout": proteins.LAYOUT_VERSION,
            "protein_dim": proteins.DESCRIPTOR_LENGTH,
        }


def _check_featurization(stored: dict, cfg: ModelConfig, where) -> None:
    """Refuse a featurization signature ``stored`` (of a checkpoint or a
    feature store) that any entry of ``cfg``'s own signature contradicts;
    the :class:`ModelError` names ``where``, the entry and both values."""
    for key, value in cfg.featurization_signature().items():
        theirs = stored.get(key)
        if theirs != value:
            raise ModelError(f"{where}: featurization {key} {theirs!r} is "
                             f"incompatible with this build's {value!r}")


def _he_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Model:
    """A built network: the layer stack, its last layer the loss."""

    def __init__(self, cfg: ModelConfig, graph: Graph,
                 protein_index: dict[str, int] | None):
        self.cfg = cfg
        self.graph = graph
        self.protein_index = protein_index
        self.first_layer = next(layer for layer in graph.layers
                                if isinstance(layer, IndexedDense))

    @classmethod
    def build(cls, cfg: ModelConfig,
              protein_ids: tuple[str, ...] | None = None) -> "Model":
        """Construct the network; deterministic under ``cfg.seed``.

        Weights are He-uniform draws, in parameter order, from one
        generator seeded with ``cfg.seed``; biases and betas start at 0 and
        gammas at 1. Each parameter keeps its draw, uncopied.
        """
        rng = np.random.default_rng(cfg.seed)

        def drawn(name: str, shape: tuple[int, ...],
                  fill: float | None = None) -> Parameter:
            return Parameter(name, _he_uniform(rng, *shape) if fill is None
                             else np.full(shape, fill))

        return cls._assemble(cfg, protein_ids, drawn)

    @classmethod
    def _assemble(cls, cfg: ModelConfig, protein_ids, parameter) -> "Model":
        """The network of ``cfg``, each parameter made by
        ``parameter(name, shape, fill=None)``: a constant ``fill``, or an
        He-uniform weight (fan-in ``shape[0]``) when ``fill`` is None."""
        cfg = cfg.normalized()
        protein_index = None
        n_outputs = cfg.n_tasks
        if cfg.compound_only:
            if not protein_ids:
                raise ModelError(
                    "compound-only variants need the training protein ids "
                    "(one output unit per protein)")
            if cfg.n_tasks != 1:
                raise ModelError(
                    "compound-only variants support single-measurement data "
                    "only (n_tasks must be 1)")
            protein_index = {p: i for i, p in enumerate(protein_ids)}
            n_outputs = len(protein_ids)
        # layer names count each op across the whole stack, and the conv
        # stack holds the first matmul, add_bias and relu
        shift = int(cfg.uses_graphconv)
        if cfg.uses_graphconv:
            layers = cls._conv_stack(cfg, parameter)
            blocks = [(None, "compound_row")]
        else:
            layers = []
            blocks = [("compound", "compound_row")]
        if not cfg.compound_only:
            blocks.append(("protein", "protein_row"))
        width = cfg.input_width()
        for li, (hidden, rate) in enumerate(zip(cfg.hidden_layers,
                                                cfg.dropout_rates)):
            w = parameter(f"dense{li}.W", (width, hidden))
            b = parameter(f"dense{li}.b", (hidden,), 0.0)
            layers.append(IndexedDense(blocks, w, "indexed_dense0") if li == 0
                          else MatMul(w, f"matmul{li - 1 + shift}"))
            layers.append(AddBias(b, f"add_bias{li + shift}"))
            if cfg.use_batchnorm:
                gamma = parameter(f"bn{li}.gamma", (hidden,), 1.0)
                beta = parameter(f"bn{li}.beta", (hidden,), 0.0)
                layers.append(BatchNorm(gamma, beta, f"bn{li}"))
            layers.append(Relu(f"relu{li + shift}"))
            layers.append(Dropout(rate, f"dropout{li}"))
            width = hidden
        w_out = parameter("output.W", (width, n_outputs))
        b_out = parameter("output.b", (n_outputs,), 0.0)
        layers += [
            MatMul(w_out, f"matmul{len(cfg.hidden_layers) - 1 + shift}"),
            AddBias(b_out, "output"), WeightedMse("loss")]
        return cls(cfg, Graph(layers), protein_index)

    @staticmethod
    def _conv_stack(cfg: ModelConfig, parameter) -> list:
        """The graph-conv stack's layers, each parameter made by
        ``parameter(name, shape, fill)`` as in ``_assemble``."""
        layers = [Input("atom_features")]
        width = atom_feature_width(DEFAULT_ATOM_VOCABULARY, cfg.max_degree)
        degrees = range(cfg.max_degree + 1)
        for li, out_width in enumerate(cfg.conv_widths):
            w_self = [parameter(f"conv{li}.wself{d}", (width, out_width))
                      for d in degrees]
            w_nbr = [parameter(f"conv{li}.wnbr{d}", (width, out_width))
                     for d in degrees]
            bias = [parameter(f"conv{li}.b{d}", (out_width,), 0.0)
                    for d in degrees]
            layers += [GraphConv(w_self, w_nbr, bias, f"conv{li}"),
                       GraphPool(f"pool{li}")]
            width = out_width
        return layers + [
            RestoreAtomOrder("atom_order"),
            MatMul(parameter("convdense.W", (width, cfg.conv_dense)),
                   "matmul0"),
            AddBias(parameter("convdense.b", (cfg.conv_dense,), 0.0),
                    "add_bias0"),
            Relu("relu0"), GraphGather("gather")]

    @property
    def input_weight(self) -> Parameter:
        """``dense0.W``: one row per input column, compound columns first."""
        return next(p for p in self.graph.parameters() if p.name == "dense0.W")

    # -- inference ----------------------------------------------------------

    def predict_feeds(self, feeds: dict, first: GatherAdd | None = None,
                      tiles: dict | None = None) -> np.ndarray:
        """The output of an inference pass (``Graph.infer``) of every layer
        but the loss: dropout off, batchnorm on running stats. Unlike a
        training ``forward``, which keeps what its backward reads, the pass
        keeps nothing.

        ``first``, the first dense layer's value, starts the pass after
        that layer; ``tiles`` is ``Graph.infer``'s.
        """
        start = 0 if first is None else \
            self.graph.layers.index(self.first_layer) + 1
        return self.graph.infer(feeds, first, start, -1, tiles)

    def output_columns(self, protein_ids) -> np.ndarray:
        """Output-unit indices for ``protein_ids`` (compound-only variants)."""
        if self.protein_index is None:
            raise ModelError("paired variants have per-task outputs, not "
                             "per-protein outputs")
        columns = []
        for pid in protein_ids:
            if pid not in self.protein_index:
                raise ModelError(
                    f"unknown protein id {pid!r}: compound-only models can "
                    f"only predict for proteins seen in training")
            columns.append(self.protein_index[pid])
        return np.asarray(columns, dtype=np.int64)

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path,
             run_config_text: str | None = None) -> None:
        """Write the checkpoint: a JSON header, then the float64 bytes of
        every parameter and batch-norm statistic in name order, through one
        atomic ``write_artifact``.

        Every tensor is written from the array the graph holds, with no
        ``state_dict`` copy.
        """
        state = self.graph.live_state()
        names = sorted(state)
        manifest = []
        offset = 0
        for name in names:
            manifest.append({"name": name, "shape": list(state[name].shape),
                             "offset": offset})
            offset += state[name].size * 8
        header = {
            "featurization": self.cfg.featurization_signature(),
            "config": asdict(self.cfg),
            "protein_index": self.protein_index,
            "run_config": run_config_text,
            "tensors": manifest,
        }
        blob = json.dumps(header, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        # each array's own buffer, not a ``tobytes`` copy of it
        tensors = (np.ascontiguousarray(state[name], dtype="<f8")
                   for name in names)
        write_artifact(path, itertools.chain(
            (_MAGIC, struct.pack("<IQ", _FORMAT_VERSION, len(blob)), blob),
            tensors))

    @classmethod
    def load(cls, path: str | Path) -> tuple["Model", dict]:
        """The model a checkpoint holds, and its ``extras``
        (``{"run_config": <snapshot text or None>}``).

        The header is read first, and the model is built from it with
        unset parameter arrays (``Parameter.empty``): nothing is drawn,
        copied or checked that the file then overwrites. Every manifest
        entry's name, shape and byte range is checked before any payload
        byte is read. Each tensor is then read with one ``readinto``
        straight into its live array, and the whole state is checked for
        finiteness, so the load holds one copy of the state. A file that
        also holds Adam moments (``adam.*`` tensors and an
        ``optimizer_step`` header key, as checkpoints were once written)
        loads the same way; their bytes are skipped, never read. A load
        that fails raises a ``ModelError`` (or a ``NonFiniteError``) naming
        the file, and drops the model and every reference to its arrays.
        """
        with open(path, "rb") as handle:
            magic = handle.read(8)
            if magic != _MAGIC:
                raise ModelError(f"{path}: not a model checkpoint")
            prefix = handle.read(12)
            if len(prefix) != 12:
                raise ModelError(f"{path}: truncated checkpoint (no header)")
            version, header_len = struct.unpack("<IQ", prefix)
            if version != _FORMAT_VERSION:
                raise ModelError(
                    f"{path}: checkpoint format {version} not supported")
            blob = handle.read(header_len)
            if len(blob) != header_len:
                raise ModelError(f"{path}: truncated checkpoint header")
            try:
                header = json.loads(blob.decode("utf-8"))
            except ValueError:
                raise ModelError(
                    f"{path}: checkpoint header is not JSON") from None
            try:  # every header entry that loading reads
                signature = header["featurization"]
                cfg = _config_from_json(header["config"])
                protein_index = header["protein_index"]
                manifest = [(entry["name"], tuple(entry["shape"]),
                             entry["offset"])
                            for entry in header["tensors"]
                            if not entry["name"].startswith("adam.")]
                extras = {"run_config": header["run_config"]}
            except KeyError as exc:
                raise ModelError(f"{path}: checkpoint header has no "
                                 f"{exc.args[0]!r}") from None
            except (TypeError, AttributeError):  # an entry of another type
                raise ModelError(
                    f"{path}: malformed checkpoint header") from None
            if not isinstance(signature, dict):
                raise ModelError(f"{path}: malformed checkpoint header")
            _check_featurization(signature, cfg, path)
            protein_ids = None
            if protein_index is not None:
                ordered = sorted(protein_index, key=protein_index.get)
                protein_ids = tuple(ordered)
            model = cls._assemble(
                cfg, protein_ids,
                lambda name, shape, fill=None: Parameter.empty(name, shape))
            try:
                _read_state(handle, path, manifest, model.graph.live_state())
            except BaseException as exc:
                # the arrays may hold unset bytes: no frame of the error's
                # traceback keeps them
                traceback.clear_frames(exc.__traceback__)
                del model
                raise
        return model, extras


def _read_state(handle, path, manifest, live: dict[str, np.ndarray]) -> None:
    """Read the payload that starts at ``handle``'s position into the
    arrays of ``live``, one ``readinto`` per ``(name, shape, offset)`` of
    ``manifest``, after checking every entry against ``live`` and the
    file's size; then check every array for finiteness."""
    base = handle.tell()
    available = max(0, os.fstat(handle.fileno()).st_size - base)
    for name, shape, start in manifest:
        if name not in live:
            raise ModelError(f"{path}: unknown state entry {name!r}")
        if shape != live[name].shape:
            raise ModelError(
                f"{path}: state entry {name!r}: stored shape {shape} != "
                f"expected {live[name].shape}")
        end = start + live[name].nbytes
        if start < 0 or end > available:
            raise ModelError(
                f"{path}: truncated checkpoint: tensor {name!r} needs bytes "
                f"{start}..{end} of a {available}-byte payload")
    missing = sorted(set(live).difference(name for name, _, _ in manifest))
    if missing:
        raise ModelError(f"{path}: checkpoint has no tensor {missing[0]!r}")
    for name, _, start in manifest:
        array = live[name]
        handle.seek(base + start)
        if handle.readinto(memoryview(array).cast("B")) != array.nbytes:
            raise ModelError(f"{path}: truncated checkpoint: tensor {name!r} "
                             f"ends past the end of the file")
        if sys.byteorder == "big":  # the payload is little-endian
            array.byteswap(inplace=True)
    try:
        require_finite(live)
    except NonFiniteError as exc:
        raise NonFiniteError(f"{path}: {exc}") from None


def _config_from_json(payload: dict) -> ModelConfig:
    """The :class:`ModelConfig` whose ``asdict`` JSON is ``payload``."""
    return ModelConfig(**{field.name: _as_tuple(payload[field.name])
                          for field in fields(ModelConfig)})


def _as_tuple(value):
    return tuple(value) if isinstance(value, list) else value


class FeatureStore:
    """Precomputed featurizations of a :class:`PairDataset` for one config.

    Fingerprints and protein descriptors are computed once and reused across
    epochs. A batch's feeds carry each distinct compound and protein of the
    batch once plus the per-pair row indices. For graph-convolution variants
    every compound's graph and atom feature rows are packed once, here, and
    a batch of distinct molecules is selected from that pack.
    """

    def __init__(self, dataset: PairDataset, cfg: ModelConfig):
        self.dataset = dataset
        self.cfg = cfg.normalized()
        self._graphs: PackedGraphs | None = None
        self.fingerprint_matrix: np.ndarray | None = None
        if self.cfg.uses_graphconv:
            try:
                rows = atom_feature_matrix(dataset.molecules,
                                           DEFAULT_ATOM_VOCABULARY,
                                           self.cfg.max_degree)
            except FeaturizationError as exc:
                raise FeaturizationError(
                    f"compound {dataset.compounds[exc.molecule]!r}: {exc}"
                ) from exc
            self._graphs = PackedGraphs.from_table(dataset.molecules, rows,
                                                   self.cfg.max_degree)
        else:
            # uint8 0/1, an eighth of float64's bytes; _compound_feeds casts
            # the rows it hands out, exactly
            self.fingerprint_matrix = ecfp_matrix(
                dataset.molecules, self.cfg.fp_radius, self.cfg.fp_bits)
        if self.cfg.compound_only:
            self.protein_matrix = None
            if dataset.n_tasks != 1:
                raise ModelError(
                    "compound-only variants support single-measurement data only")
        else:
            # checked here once: scoring projects these rows unchecked
            self.protein_matrix = proteins.descriptor_matrix(
                dataset.sequences, dataset.protein_ids)
            if not all_finite(self.protein_matrix):
                bad = np.flatnonzero(
                    ~np.isfinite(self.protein_matrix).all(axis=1))[0]
                raise NonFiniteError(
                    f"protein {dataset.protein_ids[bad]!r}: non-finite "
                    f"descriptor values")

    def build_model(self, cfg: ModelConfig | None = None) -> Model:
        """A fresh model of ``cfg`` (default: the store's own config); ``cfg``
        must featurize inputs as the store's config does."""
        cfg = self.cfg if cfg is None else cfg
        _check_featurization(self.cfg.featurization_signature(), cfg,
                             "feature store")
        protein_ids = self.dataset.protein_ids if cfg.compound_only else None
        return Model.build(cfg, protein_ids=protein_ids)

    def input_columns_set(self, model: Model, indices) -> list[np.ndarray]:
        """Per input block of ``model``'s first layer, a mask of the columns
        that at least one of the pairs ``indices`` sets.

        A graph-conv compound vector is learned, so all its columns count.
        """
        pairs = self.dataset.pairs[self._pair_indices(indices)]
        if self.cfg.uses_graphconv:
            masks = [np.ones(model.cfg.conv_dense, dtype=bool)]
        else:
            masks = [self.fingerprint_matrix[np.unique(pairs[:, 0])].any(axis=0)]
        if not self.cfg.compound_only:
            masks.append(
                self.protein_matrix[np.unique(pairs[:, 1])].any(axis=0))
        return masks

    def _compound_feeds(self, compound_idx: np.ndarray) -> dict:
        if self.cfg.uses_graphconv:
            rows, batch = self._graphs.batch(compound_idx)
            return {"atom_features": rows, "graph_batch": batch}
        return {"compound":
                self.fingerprint_matrix[compound_idx].astype(np.float64)}

    def _pair_indices(self, indices) -> np.ndarray:
        """``indices`` as an int64 array of pair rows of the dataset; a
        :class:`ModelError` names the first entry that is not one."""
        array = np.asarray(indices)
        if array.ndim != 1:
            raise ModelError(f"pair indices must be a 1-d sequence of "
                             f"integers, got shape {array.shape}")
        if array.size == 0:
            return np.empty(0, dtype=np.int64)
        if array.dtype.kind not in "iu":  # floats, bools, strings, objects
            raise ModelError(f"pair index {array[:1].tolist()[0]!r} (entry "
                             f"0) is not an integer: the indices are "
                             f"{array.dtype}")
        n_pairs = self.dataset.n_pairs
        if array.min() < 0 or array.max() >= n_pairs:
            k = int(np.flatnonzero((array < 0) | (array >= n_pairs))[0])
            raise ModelError(f"pair index {array[k]} (entry {k}) is outside "
                             f"the dataset's {n_pairs} pairs")
        return array.astype(np.int64, copy=False)

    def feeds(self, indices, model: Model | None = None) -> dict:
        """Graph feeds, targets and weights for the pairs ``indices``; a
        compound-only store needs ``model`` for its protein output columns."""
        indices = self._pair_indices(indices)
        compound_idx = self.dataset.pairs[indices, 0]
        protein_idx = self.dataset.pairs[indices, 1]
        distinct, compound_row = np.unique(compound_idx, return_inverse=True)
        feeds = self._compound_feeds(distinct)
        feeds["compound_row"] = compound_row
        if not self.cfg.compound_only:
            distinct, protein_row = np.unique(protein_idx, return_inverse=True)
            feeds["protein"] = self.protein_matrix[distinct]
            feeds["protein_row"] = protein_row
        if self.cfg.compound_only:
            if model is None or model.protein_index is None:
                raise ModelError(
                    "compound-only targets need the built model (for its "
                    "protein output mapping)")
            n_out = len(model.protein_index)
            target = np.zeros((indices.size, n_out))
            weight = np.zeros((indices.size, n_out))
            cols = model.output_columns(
                [self.dataset.protein_ids[i] for i in protein_idx])
            rows = np.arange(indices.size)
            target[rows, cols] = self.dataset.y[indices, 0]
            weight[rows, cols] = self.dataset.w[indices, 0]
        else:
            target = self.dataset.y[indices]
            weight = self.dataset.w[indices]
        feeds["target"] = target
        feeds["weight"] = weight
        return feeds

    def pair_targets(self, indices) -> tuple[np.ndarray, np.ndarray]:
        indices = self._pair_indices(indices)
        return self.dataset.y[indices], self.dataset.w[indices]

    def predict(self, model: Model, indices, batch_size: int = 1024) -> np.ndarray:
        """Per-pair predictions with one column per task.

        The call runs in two passes. First, each distinct compound and
        protein of ``indices`` is projected once through its block of
        ``dense0.W``, at most ``batch_size`` rows at a time, into one
        ``(distinct, hidden)`` table per input block (``_projection``); a
        graph-conv compound runs through the conv stack in the same blocks
        of molecules first. Then the pairs are scored ``batch_size`` at a
        time: a chunk hands the tables and its pairs' row indices in as the
        first layer's value (a ``GatherAdd``) to an inference pass of the
        layers after it (``Graph.infer``). That pass gathers and adds the
        rows, as the first layer does, block by block into the next layer's
        own buffer (or once, whole, for a chunk under two blocks), and its
        layers write into the chunk's dead buffers in place. The blocked
        chains' tiled vectors are built once for the call. The call holds
        those tables and tiles plus one block of input rows, never a
        per-pair join of the two or a call-sized copy of fingerprint or
        descriptor rows, and never writes the tables. Once it returns it
        holds nothing but the predictions it hands back: the tiles go with
        the call, and no layer keeps anything of an inference pass, so the
        model keeps only its parameters and batch-norm running statistics
        between calls.

        ``indices`` is a 1-d sequence of integer pair rows of the dataset,
        and ``batch_size`` a positive integer (not a bool); anything else
        is a :class:`ModelError` that names the first bad index.

        A pair's prediction depends on the other pairs of the call only in
        its last bits, through the BLAS kernel that a product's shape
        selects. A pair scored alone (a one-row product goes through gemv),
        or in a chunk whose row count is not a multiple of 4 (a
        ``batch_size`` that is not one, or the last chunk of a call), can
        differ in the last bits from the same pair scored in a full chunk
        of the default size. Calls that chunk the same pairs the same way
        give the same bytes.
        """
        if (not isinstance(batch_size, (int, np.integer))
                or isinstance(batch_size, bool) or batch_size < 1):
            raise ModelError(
                f"batch_size must be a positive integer, got {batch_size!r}")
        indices = self._pair_indices(indices)
        n_outputs = model.cfg.n_tasks
        if indices.size == 0:
            return np.empty((0, n_outputs))
        pairs = self.dataset.pairs[indices]
        compounds, compound_row = np.unique(pairs[:, 0], return_inverse=True)
        tables = [self._projection(model, 0, compounds, batch_size)]
        rows = [compound_row]
        if self.cfg.compound_only:
            columns = model.output_columns(
                [self.dataset.protein_ids[i] for i in pairs[:, 1]])
        else:
            proteins, protein_row = np.unique(pairs[:, 1], return_inverse=True)
            tables.append(self._projection(model, 1, proteins, batch_size))
            rows.append(protein_row)
        tables = tuple(tables)
        tiles = {}
        chunks = []
        for start in range(0, indices.size, batch_size):
            part = slice(start, start + batch_size)
            first = GatherAdd(tables, tuple(row[part] for row in rows))
            out = model.predict_feeds({}, first, tiles)
            if self.cfg.compound_only:
                out = out[np.arange(out.shape[0]), columns[part]][:, None]
            chunks.append(out)
        return np.concatenate(chunks, axis=0)

    def _projection(self, model: Model, block: int, distinct: np.ndarray,
                    batch_size: int) -> np.ndarray:
        """First-layer projection of the ``distinct`` compounds (``block``
        0) or proteins (1), in blocks of at most ``batch_size`` rows.

        Fingerprint rows (cast to float64) and descriptor rows go straight
        to ``project``, with no inference pass: fingerprints are 0/1 and
        the descriptors were checked when the store was built. A graph-conv
        compound block runs the conv stack, the layers before the first
        dense layer, through ``Graph.infer``, whose checks its output
        passes."""
        first = model.first_layer
        lo = 0 if block == 0 else model.cfg.compound_width()
        parts = []
        for rows in _row_blocks(distinct.size, batch_size):
            chosen = distinct[rows]
            if block == 1:
                table = self.protein_matrix[chosen]
            elif self.cfg.uses_graphconv:
                table = model.graph.infer(
                    self._compound_feeds(chosen),
                    stop=model.graph.layers.index(first))
            else:
                table = self._compound_feeds(chosen)["compound"]
            parts.append(first.project(table, lo))
        return np.concatenate(parts, axis=0)


def _row_blocks(n: int, limit: int) -> list[slice]:
    """``range(n)`` split as evenly as can be into blocks of at most
    ``limit`` rows, except that a block never holds one row unless ``n`` is
    1 (so a limit below 3 may give blocks of 3 rows).

    A one-row product runs through gemv, which sums in another order than
    the GEMM of a larger block. For the default first-layer shapes (2048 or
    8421 input columns into 256, and 128 or 8421 into 64) a GEMM row does
    not depend on how many rows share the product (checked for 2 to 1100
    rows, OpenBLAS, 2-core Xeon), so without one-row blocks the blocking
    never changes a projection. A narrower product of a few rows (below
    about a million multiply-adds, e.g. 2048 columns into 32 on up to 13
    rows) can take OpenBLAS's small-matrix kernel, whose rows differ from a
    larger block's in the last bits.
    """
    count = max(1, min(-(-n // limit), n // 2))
    edges = [n * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
