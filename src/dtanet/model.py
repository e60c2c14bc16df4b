"""Network assembly for the four model variants, plus checkpoints.

A model joins a compound vector to a protein descriptor and regresses the
pair through a stack of dense -> batchnorm -> relu -> dropout blocks onto
one output per task:

* ``padme-ecfp``        fingerprint bits | protein descriptor
* ``padme-graphconv``   conv/pool stack + sum readout | protein descriptor
* ``compound-only-*``   compound vector only, one output per known protein

The join is never materialized. The first dense layer's weight ``dense0.W``
has one row per input column (compound columns first), and the layer
projects each distinct compound and each distinct protein of a batch once
through its block of rows, then adds the two projected rows per pair
(``Graph.indexed_dense``). A training batch's feeds therefore hold the
distinct compound inputs, the distinct protein descriptors, and the per-pair
row indices ``compound_row`` and ``protein_row``.

Prediction lifts the distinct row from the batch to the call:
``FeatureStore.predict`` projects each distinct compound and protein of the
whole call once, then hands each chunk's gather-add of those projected rows to
the eval-mode network as the first layer's value
(``Graph.forward(..., given=...)``).

The compound-only variants cannot see new proteins (a prediction for an
unknown protein id is a hard error); the paired variants accept any protein
sequence, which is what makes cold-start prediction possible.

Checkpoints are a small binary container: magic ``DTNCKPT1``, uint32 format
version, uint64 JSON header length, a JSON header (config snapshot,
featurization layout version, tensor manifest, optional optimizer state
metadata and run-config snapshot), then the float64 little-endian tensor
payloads in manifest order. Loading refuses featurization layouts other
than the one this code produces.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import proteins
from .artifacts import write_artifact
from .compounds import (
    DEFAULT_ATOM_VOCABULARY,
    FeaturizationError,
    atom_feature_width,
    atom_features,
    ecfp_matrix,
)
from .data import PairDataset
from .engine import Graph, Parameter
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
    atom_vocabulary: tuple[str, ...] = DEFAULT_ATOM_VOCABULARY
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
                       conv_widths=tuple(self.conv_widths),
                       atom_vocabulary=tuple(self.atom_vocabulary))

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
            "atom_vocabulary": list(self.atom_vocabulary),
            "protein_layout": proteins.LAYOUT_VERSION,
            "protein_dim": proteins.DESCRIPTOR_LENGTH,
        }

    def featurization_fingerprint(self) -> str:
        payload = json.dumps(self.featurization_signature(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _he_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Model:
    """A built network: the graph plus handles to its named inputs."""

    def __init__(self, cfg: ModelConfig, graph: Graph, output, loss,
                 protein_index: dict[str, int] | None):
        self.cfg = cfg
        self.graph = graph
        self.output = output
        self.loss = loss
        self.protein_index = protein_index
        # the indexed_dense node; its first inputs are the input-block tables
        self.first_layer = next(node for node in graph.nodes
                                if node.op == "indexed_dense")

    @classmethod
    def build(cls, cfg: ModelConfig,
              protein_ids: tuple[str, ...] | None = None) -> "Model":
        """Construct the network; deterministic under ``cfg.seed``."""
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
        rng = np.random.default_rng(cfg.seed)
        graph = Graph()
        if cfg.uses_graphconv:
            compound = cls._build_conv_stack(graph, cfg, rng)
        else:
            compound = graph.placeholder("compound")
        blocks = [(compound, graph.object_input("compound_row"))]
        if not cfg.compound_only:
            blocks.append((graph.placeholder("protein"),
                           graph.object_input("protein_row")))
        x = None
        width = cfg.input_width()
        for li, (hidden, rate) in enumerate(zip(cfg.hidden_layers,
                                                cfg.dropout_rates)):
            w = graph.parameter(f"dense{li}.W", _he_uniform(rng, width, hidden))
            b = graph.parameter(f"dense{li}.b", np.zeros(hidden))
            product = (graph.indexed_dense(blocks, w) if x is None
                       else graph.matmul(x, w))
            x = graph.add_bias(product, b)
            if cfg.use_batchnorm:
                gamma = graph.parameter(f"bn{li}.gamma", np.ones(hidden))
                beta = graph.parameter(f"bn{li}.beta", np.zeros(hidden))
                x = graph.batch_norm(x, gamma, beta, name=f"bn{li}")
            x = graph.relu(x)
            x = graph.dropout(x, rate)
            width = hidden
        w_out = graph.parameter("output.W", _he_uniform(rng, width, n_outputs))
        b_out = graph.parameter("output.b", np.zeros(n_outputs))
        output = graph.add_bias(graph.matmul(x, w_out), b_out, name="output")
        target = graph.placeholder("target")
        weight = graph.placeholder("weight")
        loss = graph.weighted_mse(output, target, weight, name="loss")
        return cls(cfg, graph, output, loss, protein_index)

    @staticmethod
    def _build_conv_stack(graph: Graph, cfg: ModelConfig,
                          rng: np.random.Generator):
        h = graph.placeholder("atom_features")
        structure = graph.object_input("graph_batch")
        width = atom_feature_width(cfg.atom_vocabulary, cfg.max_degree)
        for li, out_width in enumerate(cfg.conv_widths):
            w_self = [graph.parameter(f"conv{li}.wself{d}",
                                      _he_uniform(rng, width, out_width))
                      for d in range(cfg.max_degree + 1)]
            w_nbr = [graph.parameter(f"conv{li}.wnbr{d}",
                                     _he_uniform(rng, width, out_width))
                     for d in range(cfg.max_degree + 1)]
            bias = [graph.parameter(f"conv{li}.b{d}", np.zeros(out_width))
                    for d in range(cfg.max_degree + 1)]
            h = graph.add(GraphConv(h, structure, w_self, w_nbr, bias),
                          f"conv{li}")
            h = graph.add(GraphPool(h, structure), f"pool{li}")
            width = out_width
        h = graph.add(RestoreAtomOrder(h, structure), "atom_order")
        w = graph.parameter("convdense.W", _he_uniform(rng, width, cfg.conv_dense))
        b = graph.parameter("convdense.b", np.zeros(cfg.conv_dense))
        h = graph.relu(graph.add_bias(graph.matmul(h, w), b))
        return graph.add(GraphGather(h, structure), "gather")

    @property
    def input_weight(self) -> Parameter:
        """``dense0.W``: one row per input column, compound columns first."""
        return next(p for p in self.graph.parameters() if p.name == "dense0.W")

    # -- inference ----------------------------------------------------------

    def predict_feeds(self, feeds: dict,
                      given: dict | None = None) -> np.ndarray:
        """Eval-mode forward pass: dropout off, batchnorm on running stats.

        ``given`` maps nodes to values the forward takes instead of
        computing them, as in ``Graph.forward``.
        """
        (out,) = self.graph.forward(feeds, [self.output], training=False,
                                    given=given)
        return out

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

    def save(self, path: str | Path, optimizer_step: int = 0,
             optimizer_arrays: dict[str, np.ndarray] | None = None,
             run_config_text: str | None = None) -> None:
        state = dict(self.graph.state_dict())
        if optimizer_arrays:
            state.update(optimizer_arrays)
        manifest = []
        offset = 0
        for name in sorted(state):
            array = np.ascontiguousarray(state[name], dtype=np.float64)
            manifest.append({"name": name, "shape": list(array.shape),
                             "offset": offset})
            offset += array.size * 8
        header = {
            "format_version": _FORMAT_VERSION,
            "featurization": self.cfg.featurization_signature(),
            "featurization_fingerprint": self.cfg.featurization_fingerprint(),
            "config": asdict(self.cfg),
            "protein_index": self.protein_index,
            "optimizer_step": optimizer_step,
            "run_config": run_config_text,
            "tensors": manifest,
        }
        blob = json.dumps(header, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        tensors = (np.ascontiguousarray(state[name], dtype="<f8").tobytes()
                   for name in sorted(state))
        write_artifact(path, itertools.chain(
            (_MAGIC, struct.pack("<IQ", _FORMAT_VERSION, len(blob)), blob),
            tensors))

    @classmethod
    def load(cls, path: str | Path) -> tuple["Model", dict]:
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
            header = json.loads(blob.decode("utf-8"))
            payload = handle.read()
        layout = header["featurization"]["layout_version"]
        if layout != FEATURIZATION_VERSION:
            raise ModelError(
                f"{path}: featurization layout {layout} is incompatible "
                f"with this build ({FEATURIZATION_VERSION})")
        cfg = _config_from_json(header["config"])
        protein_index = header["protein_index"]
        protein_ids = None
        if protein_index is not None:
            ordered = sorted(protein_index, key=protein_index.get)
            protein_ids = tuple(ordered)
        model = cls.build(cfg, protein_ids=protein_ids)
        if model.cfg.featurization_fingerprint() != header["featurization_fingerprint"]:
            raise ModelError(f"{path}: featurization fingerprint mismatch")
        tensors = {}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            size = int(np.prod(shape)) if shape else 1
            start = entry["offset"]
            if start < 0 or start + size * 8 > len(payload):
                raise ModelError(
                    f"{path}: truncated checkpoint: tensor {entry['name']!r} "
                    f"needs bytes {start}..{start + size * 8} of a "
                    f"{len(payload)}-byte payload")
            array = np.frombuffer(payload, dtype="<f8", count=size,
                                  offset=start).reshape(shape).copy()
            tensors[entry["name"]] = array
        model_state = {k: v for k, v in tensors.items()
                       if not k.startswith("adam.")}
        adam_state = {k: v for k, v in tensors.items() if k.startswith("adam.")}
        model.graph.load_state(model_state)
        extras = {
            "optimizer_arrays": adam_state,
            "optimizer_step": header["optimizer_step"],
            "run_config": header["run_config"],
        }
        return model, extras


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
            self._graphs = PackedGraphs.from_graphs(
                dataset.molecules,
                [self._atom_features(smiles, molecule)
                 for smiles, molecule in zip(dataset.compounds,
                                             dataset.molecules)],
                self.cfg.max_degree)
        else:
            self.fingerprint_matrix = ecfp_matrix(
                dataset.molecules, self.cfg.fp_radius,
                self.cfg.fp_bits).astype(np.float64)
        if self.cfg.compound_only:
            self.protein_matrix = None
            if dataset.n_tasks != 1:
                raise ModelError(
                    "compound-only variants support single-measurement data only")
        else:
            self.protein_matrix = proteins.descriptor_matrix(
                dataset.sequences, dataset.protein_ids)

    def _atom_features(self, smiles: str, molecule):
        try:
            return atom_features(molecule, self.cfg.atom_vocabulary,
                                 self.cfg.max_degree)
        except FeaturizationError as exc:
            raise FeaturizationError(f"compound {smiles!r}: {exc}") from exc

    def build_model(self, cfg: ModelConfig | None = None) -> Model:
        """A fresh model of ``cfg`` (default: the store's own config); ``cfg``
        must featurize inputs as the store's config does."""
        cfg = self.cfg if cfg is None else cfg
        if cfg.featurization_signature() != self.cfg.featurization_signature():
            raise ModelError("the model's featurization differs from the "
                             "feature store's")
        protein_ids = self.dataset.protein_ids if cfg.compound_only else None
        return Model.build(cfg, protein_ids=protein_ids)

    def input_columns_set(self, model: Model, indices) -> list[np.ndarray]:
        """Per input block of ``model``'s first layer, a mask of the columns
        that at least one of the pairs ``indices`` sets.

        A graph-conv compound vector is learned, so all its columns count.
        """
        pairs = self.dataset.pairs[np.asarray(indices, dtype=np.int64)]
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
        return {"compound": self.fingerprint_matrix[compound_idx]}

    def feeds(self, indices, with_targets: bool = True,
              model: Model | None = None) -> dict:
        """Graph feeds for the pairs ``indices`` (targets need ``model``)."""
        indices = np.asarray(indices, dtype=np.int64)
        compound_idx = self.dataset.pairs[indices, 0]
        protein_idx = self.dataset.pairs[indices, 1]
        distinct, compound_row = np.unique(compound_idx, return_inverse=True)
        feeds = self._compound_feeds(distinct)
        feeds["compound_row"] = compound_row
        if not self.cfg.compound_only:
            distinct, protein_row = np.unique(protein_idx, return_inverse=True)
            feeds["protein"] = self.protein_matrix[distinct]
            feeds["protein_row"] = protein_row
        if with_targets:
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
        indices = np.asarray(indices, dtype=np.int64)
        return self.dataset.y[indices], self.dataset.w[indices]

    def predict(self, model: Model, indices, batch_size: int = 1024) -> np.ndarray:
        """Per-pair predictions with one column per task.

        The call runs in two passes. First, each distinct compound and
        protein of ``indices`` is projected once through its block of
        ``dense0.W``, at most ``batch_size`` rows at a time, into one
        ``(distinct, hidden)`` table per input block; a graph-conv compound
        runs through the conv stack in the same blocks of molecules first.
        Then the pairs are scored ``batch_size`` at a time: a chunk gathers
        and adds its pairs' projection rows, as the first layer does, and
        hands the sum in as that layer's value to the rest of the eval-mode
        network. The call holds those tables plus one block of input rows,
        never a per-pair join of the two or a call-sized copy of
        fingerprint or descriptor rows.

        A pair's prediction depends on the other pairs of the call only in
        its last bits, through the BLAS kernel that a product's shape
        selects. A pair scored alone (a one-row product goes through gemv),
        or in a chunk whose row count is not a multiple of 4 (a
        ``batch_size`` that is not one, or the last chunk of a call), can
        differ in the last bits from the same pair scored in a full chunk
        of the default size. Calls that chunk the same pairs the same way
        give the same bytes.
        """
        if not isinstance(batch_size, (int, np.integer)) or batch_size < 1:
            raise ModelError(
                f"batch_size must be a positive integer, got {batch_size!r}")
        indices = np.asarray(indices, dtype=np.int64)
        n_outputs = 1 if self.cfg.compound_only else model.cfg.n_tasks
        if indices.size == 0:
            return np.empty((0, n_outputs))
        pairs = self.dataset.pairs[indices]
        compounds, compound_row = np.unique(pairs[:, 0], return_inverse=True)
        tables = [self._projection(model, 0, compounds, batch_size)]
        if self.cfg.compound_only:
            columns = model.output_columns(
                [self.dataset.protein_ids[i] for i in pairs[:, 1]])
        else:
            proteins, protein_row = np.unique(pairs[:, 1], return_inverse=True)
            tables.append(self._projection(model, 1, proteins, batch_size))
        chunks = []
        for start in range(0, indices.size, batch_size):
            part = slice(start, start + batch_size)
            # the first layer's gather-add, in its order
            first = tables[0][compound_row[part]]
            if not self.cfg.compound_only:
                first += tables[1][protein_row[part]]
            out = model.predict_feeds({}, {model.first_layer: first})
            if self.cfg.compound_only:
                out = out[np.arange(out.shape[0]), columns[part]][:, None]
            chunks.append(out)
        return np.concatenate(chunks, axis=0)

    def _projection(self, model: Model, block: int, distinct: np.ndarray,
                    batch_size: int) -> np.ndarray:
        """First-layer projection of the ``distinct`` compounds (``block``
        0) or proteins (1), in blocks of at most ``batch_size`` rows."""
        first = model.first_layer
        lo = 0 if block == 0 else model.cfg.compound_width()
        parts = []
        for rows in _row_blocks(distinct.size, batch_size):
            chosen = distinct[rows]
            feeds = (self._compound_feeds(chosen) if block == 0
                     else {"protein": self.protein_matrix[chosen]})
            (table,) = model.graph.forward(feeds, [first.inputs[block]])
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
