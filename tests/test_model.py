"""Model assembly, prediction semantics, checkpoints, cold-start contract."""

import gc
import json
import math
import re
import struct
import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import held_state
from dtanet import engine
from dtanet import model as model_module
from dtanet import proteins as protein_module
from dtanet.compounds import FeaturizationError
from dtanet.engine import (
    AddBias,
    BatchNorm,
    Dropout,
    EngineError,
    GatherAdd,
    Graph,
    Input,
    Layer,
    MatMul,
    NonFiniteError,
    Parameter,
    Relu,
    ShapeError,
    WeightedMse,
)
from dtanet.graphconv import GraphStructureError
from dtanet.model import FeatureStore, Model, ModelConfig, ModelError
from dtanet.proteins import DESCRIPTOR_LENGTH, psc
from dtanet.synthetic import memory_dataset, random_sequence
from dtanet.training import TrainConfig, train


def small_config(**overrides):
    base = dict(variant="padme-ecfp", hidden_layers=(16,),
                dropout_rates=(0.0,), fp_bits=512, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


class TestConfig:
    def test_paired_input_width(self):
        cfg = ModelConfig(variant="padme-ecfp", fp_bits=2048,
                          hidden_layers=(256, 256))
        assert cfg.input_width() == 2048 + 8421 == 10469

    def test_graphconv_input_width(self):
        cfg = ModelConfig(variant="padme-graphconv", conv_dense=128)
        assert cfg.input_width() == 128 + DESCRIPTOR_LENGTH

    def test_layer_count_bounds(self):
        with pytest.raises(ModelError, match="1..5"):
            ModelConfig(hidden_layers=()).normalized()
        with pytest.raises(ModelError, match="1..5"):
            ModelConfig(hidden_layers=(8,) * 6).normalized()

    def test_graph_conv_variants_need_a_conv_layer(self):
        for variant in ("padme-graphconv", "compound-only-graphconv"):
            with pytest.raises(ModelError, match="^conv_widths must have"):
                ModelConfig(variant=variant, conv_widths=()).normalized()
        # the fingerprint variants have no conv stack to describe
        assert ModelConfig(conv_widths=()).normalized().conv_widths == ()

    def test_dropout_broadcast(self):
        cfg = ModelConfig(hidden_layers=(8, 8, 8),
                          dropout_rates=(0.2,)).normalized()
        assert cfg.dropout_rates == (0.2, 0.2, 0.2)

    def test_bad_variant(self):
        with pytest.raises(ModelError, match="unknown variant"):
            ModelConfig(variant="padme-transformer").normalized()

    def test_multitask_output_width(self):
        cfg = ModelConfig(variant="padme-ecfp", n_tasks=61,
                          hidden_layers=(32,), fp_bits=512)
        model = Model.build(cfg)
        out_w = next(p for p in model.graph.parameters()
                     if p.name == "output.W")
        assert out_w.array.shape[1] == 61

    def test_single_task_output_width(self):
        model = Model.build(small_config())
        out_w = next(p for p in model.graph.parameters()
                     if p.name == "output.W")
        assert out_w.array.shape[1] == 1


# Each variant's layers and parameters, in stack order, for a small
# config: error messages name the layers, and the parameter order fixes the
# He-uniform draws, Adam's flat buffer and the order of dropout draws.
CONV = ([f"conv0.{kind}{d}" for kind in ("wself", "wnbr", "b")
         for d in range(7)] + ["convdense.W", "convdense.b"])
DENSE = ["dense0.W", "dense0.b", "bn0.gamma", "bn0.beta", "dense1.W",
         "dense1.b", "bn1.gamma", "bn1.beta", "output.W", "output.b"]
STACKS = {
    "ecfp": (["indexed_dense0", "add_bias0", "bn0", "relu0", "dropout0",
              "matmul0", "add_bias1", "bn1", "relu1", "dropout1", "matmul1",
              "output", "loss"], DENSE),
    "graphconv": (["atom_features", "conv0", "pool0", "atom_order", "matmul0",
                   "add_bias0", "relu0", "gather", "indexed_dense0",
                   "add_bias1", "bn0", "relu1", "dropout0", "matmul1",
                   "add_bias2", "bn1", "relu2", "dropout1", "matmul2",
                   "output", "loss"], CONV + DENSE),
}


class TestStack:
    @pytest.mark.parametrize("variant", ["padme-ecfp", "padme-graphconv",
                                         "compound-only-ecfp",
                                         "compound-only-graphconv"])
    def test_layer_names_and_parameter_order(self, variant):
        model = Model.build(small_config(variant=variant,
                                         hidden_layers=(16, 8),
                                         conv_widths=(8,), conv_dense=12),
                            protein_ids=("P1", "P2"))
        layers, params = STACKS[variant.rpartition("-")[2]]
        assert [layer.name for layer in model.graph.layers] == layers
        assert [p.name for p in model.graph.parameters()] == params
        assert [node.name for node in model.graph.nodes
                if isinstance(node, Parameter)] == params


class TestPrediction:
    def test_zero_parameters_predict_output_bias(self):
        model = Model.build(small_config(use_batchnorm=False))
        zeros = {name: np.zeros_like(arr)
                 for name, arr in model.graph.state_dict().items()}
        bias_value = 0.731
        zeros["output.b"] = np.array([bias_value])
        model.graph.load_state(zeros)
        feeds = {"compound": np.random.default_rng(0).random((4, 512)),
                 "protein": np.random.default_rng(1).random((4, 8421)),
                 "compound_row": np.arange(4), "protein_row": np.arange(4)}
        out = model.predict_feeds(feeds)
        assert np.allclose(out, bias_value)

    def test_eval_determinism(self):
        model = Model.build(small_config(dropout_rates=(0.5,)))
        feeds = {"compound": np.random.default_rng(0).random((3, 512)),
                 "protein": np.random.default_rng(1).random((3, 8421)),
                 "compound_row": np.arange(3), "protein_row": np.arange(3)}
        a = model.predict_feeds(feeds)
        b = model.predict_feeds(feeds)
        assert np.array_equal(a, b)

    def test_build_determinism_under_seed(self):
        a = Model.build(small_config(seed=4))
        b = Model.build(small_config(seed=4))
        for pa, pb in zip(a.graph.parameters(), b.graph.parameters()):
            assert np.array_equal(pa.array, pb.array)

    def test_overfit_ten_pairs(self):
        dataset = memory_dataset(n_compounds=10, n_proteins=4, n_pairs=10,
                                 seed=3)
        store = FeatureStore(dataset, small_config(hidden_layers=(64,)))
        model = store.build_model()
        idx = np.arange(10)
        train(model, store, idx, np.array([], dtype=np.int64),
              TrainConfig(batch_size=10, max_epochs=400, patience=400,
                          learning_rate=3e-3, seed=0))
        predicted = store.predict(model, idx)
        assert np.max(np.abs(predicted - dataset.y)) < 0.05

    def test_cold_start_accepts_unseen_protein(self):
        # the paired variants take any sequence, trained on it or not
        dataset = memory_dataset(n_compounds=6, n_proteins=3, n_pairs=12,
                                 seed=0)
        store = FeatureStore(dataset, small_config())
        model = store.build_model()
        unseen = random_sequence(np.random.default_rng(99))
        feeds = {"compound": store.fingerprint_matrix[:2],
                 "protein": np.stack([psc(unseen), psc(unseen, True)]),
                 "compound_row": np.arange(2), "protein_row": np.arange(2)}
        out = model.predict_feeds(feeds)
        assert out.shape == (2, 1)
        assert np.all(np.isfinite(out))

    def test_compound_only_rejects_unknown_protein(self):
        dataset = memory_dataset(n_compounds=6, n_proteins=3, n_pairs=12,
                                 seed=0)
        store = FeatureStore(dataset, small_config(variant="compound-only-ecfp"))
        model = store.build_model()
        with pytest.raises(ModelError, match="unknown protein id"):
            model.output_columns(["NOT-A-PROTEIN"])

    def test_compound_only_output_per_protein(self):
        dataset = memory_dataset(n_compounds=6, n_proteins=5, n_pairs=15,
                                 seed=1)
        store = FeatureStore(dataset, small_config(variant="compound-only-ecfp"))
        model = store.build_model()
        out_w = next(p for p in model.graph.parameters()
                     if p.name == "output.W")
        assert out_w.array.shape[1] == 5

    def test_multitask_masked_gradient_is_zero(self):
        cfg = small_config(n_tasks=3)
        model = Model.build(cfg)
        rng = np.random.default_rng(0)
        feeds = {"compound": rng.random((4, 512)),
                 "protein": rng.random((4, 8421)),
                 "target": rng.random((4, 3)),
                 "weight": np.zeros((4, 3)),
                 "compound_row": np.arange(4), "protein_row": np.arange(4)}
        feeds["weight"][:, 0] = 1.0  # only task 0 observed
        model.graph.forward(feeds, rng=rng)
        model.graph.backward()
        out_w = next(p for p in model.graph.parameters()
                     if p.name == "output.W")
        assert np.all(out_w.grad[:, 1:] == 0.0)
        assert np.any(out_w.grad[:, 0] != 0.0)


VARIANTS = ("padme-ecfp", "padme-graphconv", "compound-only-ecfp",
            "compound-only-graphconv")


def assert_matches(value, reference):
    """Summation-order tolerance; the floor covers entries that are zero in
    exact arithmetic (a bias feeding batch norm has a zero gradient)."""
    assert value.shape == reference.shape
    assert np.max(np.abs(value - reference)) <= \
        1e-12 * np.max(np.abs(reference)) + 1e-15


class JoinProtein(Layer):
    """The previous layer's rows joined with the ``protein`` feed's rows,
    column by column; the backward hands back the previous layer's
    columns of the gradient."""

    op = "join"

    def compute(self, x, ctx):
        if not ctx.inference:
            self.saved = x.shape[1]
        return np.concatenate([x, ctx.feeds["protein"]], axis=1)

    def backprop(self, grad, need_input):
        return grad[:, :self.saved]


def concat_reference(model):
    """``model``'s network and state with the first layer a plain dense
    layer over per-pair rows, the compound and protein rows joined:
    a graph whose last layer is the loss and its output layer's position."""
    cfg = model.cfg
    state = model.graph.state_dict()

    def parameter(name, shape=None, fill=None):
        return Parameter(name, state[name].copy())

    layers = (Model._conv_stack(cfg, parameter) if cfg.uses_graphconv
              else [Input("compound")])
    if not cfg.compound_only:
        layers.append(JoinProtein())
    for li, rate in enumerate(cfg.dropout_rates):
        layers += [MatMul(parameter(f"dense{li}.W"), f"dense{li}"),
                   AddBias(parameter(f"dense{li}.b"), f"bias{li}")]
        if cfg.use_batchnorm:
            layers.append(BatchNorm(parameter(f"bn{li}.gamma"),
                                    parameter(f"bn{li}.beta"), f"bn{li}"))
        layers += [Relu(f"relu{li}"), Dropout(rate, f"dropout{li}")]
    g = Graph([*layers, MatMul(parameter("output.W")),
               AddBias(parameter("output.b"), "output"), WeightedMse("loss")])
    g.load_state(state)
    return g


def per_pair_feeds(store, indices, feeds):
    """The reference's inputs: one compound and one protein row per pair."""
    pairs = store.dataset.pairs[indices]
    ref = store._compound_feeds(pairs[:, 0])
    if not store.cfg.compound_only:
        ref["protein"] = store.protein_matrix[pairs[:, 1]]
    ref.update({k: feeds[k] for k in ("target", "weight") if k in feeds})
    return ref


class TestIndexedFirstLayer:
    """The first layer projects distinct rows once; it must agree with the
    concat + matmul definition on identical parameters."""

    def _setup(self, variant, n_compounds, n_proteins, n_pairs):
        dataset = memory_dataset(n_compounds=n_compounds, n_proteins=n_proteins,
                                 n_pairs=n_pairs, seed=2)
        store = FeatureStore(dataset, small_config(
            variant=variant, hidden_layers=(16, 8), dropout_rates=(0.2,),
            conv_widths=(8,), conv_dense=12))
        return store, store.build_model()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_concat_reference(self, variant):
        store, model = self._setup(variant, 6, 3, 14)
        assert model.graph.state_dict()["dense0.W"].shape == \
            (model.cfg.input_width(), 16)
        rng = np.random.default_rng(5)
        indices = rng.permutation(store.dataset.n_pairs)
        feeds = store.feeds(indices, model=model)
        assert len(feeds["compound_row"]) == indices.size
        model.graph.forward(feeds, rng=rng)
        model.graph.load_state({  # move every entry off its initial value
            k: (np.abs(v) + 0.5 if k.endswith("running_var")
                else v + 0.1 * rng.standard_normal(v.shape))
            for k, v in model.graph.state_dict().items()})
        graph = concat_reference(model)
        ref_feeds = per_pair_feeds(store, indices, feeds)

        reference = graph.infer(ref_feeds, stop=-1)
        if model.cfg.compound_only:
            cols = model.output_columns([store.dataset.protein_ids[i] for i in
                                         store.dataset.pairs[indices, 1]])
            reference = reference[np.arange(indices.size), cols][:, None]
        assert_matches(store.predict(model, indices), reference)

        value = Graph(model.graph.layers[:-1]).forward(
            feeds, rng=np.random.default_rng(3))
        reference = Graph(graph.layers[:-1]).forward(
            ref_feeds, rng=np.random.default_rng(3))
        assert_matches(value, reference)
        model.graph.forward(feeds, rng=np.random.default_rng(4))
        model.graph.backward()
        graph.forward(ref_feeds, rng=np.random.default_rng(4))
        graph.backward()
        by_name = {p.name: p for p in graph.parameters()}
        for param in model.graph.parameters():
            assert_matches(param.grad, by_name[param.name].grad)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_predict_does_not_depend_on_chunk_size(self, variant):
        """The ecfp variants give the one-chunk bytes in chunks of 16 and
        256 pairs. Chunks of one pair run the per-pair layers through gemv,
        and a graph-conv block of other molecules can hold a one-atom degree
        slice; both sum in another order."""
        store, model = self._setup(variant, 40, 10, 300)
        indices = np.arange(store.dataset.n_pairs)
        reference = store.predict(model, indices, batch_size=1024)
        for batch_size in (1, 16, 256):
            predicted = store.predict(model, indices, batch_size=batch_size)
            if batch_size > 1 and variant.endswith("ecfp"):
                assert np.array_equal(predicted, reference), batch_size
            else:
                assert_matches(predicted, reference)

    def test_predict_projects_each_distinct_row_once(self, monkeypatch):
        store, model = self._setup("padme-ecfp", 200, 10, 300)
        first = model.first_layer
        projected = []

        def spy(layer, table, lo, original=type(first).project):
            projected.append((lo, table.copy()))
            return original(layer, table, lo)

        monkeypatch.setattr(type(first), "project", spy)
        indices = np.arange(store.dataset.n_pairs)
        predicted = store.predict(model, indices, batch_size=100)
        pairs = store.dataset.pairs
        compounds, proteins = np.unique(pairs[:, 0]), np.unique(pairs[:, 1])
        assert compounds.size > 100  # two compound blocks, three chunks
        width = model.cfg.compound_width()
        assert {lo for lo, _ in projected} == {0, width}
        assert [len(t) for lo, t in projected if lo == 0] == [
            compounds.size // 2, compounds.size - compounds.size // 2]
        assert np.array_equal(
            np.concatenate([t for lo, t in projected if lo == 0]),
            store.fingerprint_matrix[compounds])
        assert np.array_equal(
            np.concatenate([t for lo, t in projected if lo == width]),
            store.protein_matrix[proteins])
        monkeypatch.undo()
        assert_matches(predicted, store.predict(model, indices))


def small_store(variant, **overrides):
    """A store over 30 pairs for a small model of ``variant``."""
    cfg = dict(variant=variant, hidden_layers=(16, 8), dropout_rates=(0.2,),
               conv_widths=(8,), conv_dense=12)
    return FeatureStore(memory_dataset(n_compounds=12, n_proteins=4,
                                       n_pairs=30, seed=6),
                        small_config(**{**cfg, **overrides}))


def trained_like(variant, **overrides):
    """A model of a store over 30 pairs, every state entry moved off its
    initial value (running variances kept positive), and the pairs' feeds."""
    store = small_store(variant, **overrides)
    model = store.build_model()
    rng = np.random.default_rng(7)
    feeds = store.feeds(np.arange(30), model=model)
    model.graph.forward(feeds, rng=rng)
    move_state(model, rng)
    return model, feeds


def move_state(model, rng) -> None:
    """Move every state entry of ``model`` off its value (running variances
    kept positive)."""
    model.graph.load_state({
        k: (np.abs(v) + 0.5 if k.endswith("running_var")
            else v + 0.1 * rng.standard_normal(v.shape))
        for k, v in model.graph.state_dict().items()})


# Rows per inference block of a 256-wide hidden layer.
BLOCK_ROWS = engine._INFER_BLOCK // 256


def wide_model(variant="padme-ecfp", n_pairs=30, **overrides):
    """A store over ``n_pairs`` pairs and a model of ``variant`` with two
    256-wide hidden layers, whose inference runs a chunk of at least
    ``2 * BLOCK_ROWS`` pairs in row blocks, its state moved."""
    store = FeatureStore(
        memory_dataset(n_compounds=400, n_proteins=8, n_pairs=n_pairs,
                       seed=6),
        small_config(**{**dict(variant=variant, hidden_layers=(256, 256),
                               dropout_rates=(0.2,), conv_widths=(8,),
                               conv_dense=12), **overrides}))
    model = store.build_model()
    move_state(model, np.random.default_rng(7))
    return store, model


def whole_arrays(monkeypatch) -> None:
    """Raise the inference block above any chunk of these tests, so each
    chain runs as one block on its plain vectors."""
    monkeypatch.setattr(engine, "_INFER_BLOCK", 1 << 40)


def layer_named(model, name):
    return next(layer for layer in model.graph.layers if layer.name == name)


def after(model, name) -> int:
    """The position after the layer ``name``: where a pass given its value
    starts, or where a pass that returns it stops."""
    return model.graph.layers.index(layer_named(model, name)) + 1


def first_value(model, feeds):
    """The first dense layer's training value for ``feeds``."""
    return Graph(model.graph.layers[:after(model, "indexed_dense0")]).forward(
        feeds).copy()


class TestInference:
    """``Graph.infer`` reuses dead buffers and skips implied checks; without
    batch norm or dropout its results must be a training forward's bytes."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_infer_equals_a_forward_without_batch_norm_or_dropout(
            self, variant):
        model, feeds = trained_like(variant, use_batchnorm=False,
                                    dropout_rates=(0.0,))
        graph = model.graph
        start = after(model, "indexed_dense0")
        for stop in (start + 1, len(graph.layers) - 1):
            reference = Graph(graph.layers[:stop]).forward(feeds).copy()
            assert graph.infer(feeds, stop=stop).tobytes() == \
                reference.tobytes()
            given = graph.infer({}, first_value(model, feeds), start, stop)
            assert given.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("variant", ["padme-ecfp", "padme-graphconv"])
    def test_infer_writes_no_feed_parameter_given_value_or_earlier_result(
            self, variant):
        model, feeds = trained_like(variant)
        graph = model.graph
        start = after(model, "indexed_dense0")

        def snapshot(arrays):
            return [a.tobytes() for a in arrays]

        numeric = [v for v in feeds.values() if isinstance(v, np.ndarray)]
        kept = snapshot(numeric + [p.array for p in graph.parameters()])
        earlier = graph.infer(feeds, stop=-1)
        value = first_value(model, feeds)
        before = snapshot([earlier, value])
        again = graph.infer(feeds, stop=-1)
        graph.infer({}, value, start, -1)
        graph.infer({}, value, start, after(model, "bn0"))
        assert snapshot([earlier, value]) == before
        assert again.tobytes() == earlier.tobytes()
        assert again is not earlier
        assert snapshot(numeric + [p.array for p in graph.parameters()]) \
            == kept

    def test_a_backward_after_infer_is_refused(self):
        model, feeds = trained_like("padme-graphconv")
        graph = model.graph
        graph.forward(feeds, rng=np.random.default_rng(0))
        graph.infer(feeds)
        with pytest.raises(EngineError, match="before forward"):
            graph.backward()
        conv = layer_named(model, "conv0")
        assert conv.saved is None  # an inference pass keeps no mask
        graph.forward(feeds, rng=np.random.default_rng(0))
        graph.backward()
        assert conv.saved is not None

    def test_a_forward_keeps_what_a_backward_reads(self):
        model, feeds = trained_like("padme-graphconv")
        graph = model.graph
        graph.infer(feeds)
        assert held_state(graph) == []
        graph.forward(feeds, rng=np.random.default_rng(0))
        graph.backward()
        assert held_state(graph) == [
            "conv0", "pool0", "atom_order", "matmul0", "relu0", "gather",
            "indexed_dense0", "bn0", "relu1", "dropout0", "matmul1", "bn1",
            "relu2", "dropout1", "matmul2", "loss"]
        assert all(p.grad is not None for p in graph.parameters())

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_predict_leaves_nothing_of_its_passes_on_the_graph(self, variant):
        store = small_store(variant)
        model = store.build_model()
        indices = np.arange(store.dataset.n_pairs)
        model.graph.forward(store.feeds(indices, model=model),
                            rng=np.random.default_rng(0))
        first = store.predict(model, indices, batch_size=16)
        assert held_state(model.graph) == []
        again = store.predict(model, indices, batch_size=16)
        assert again.tobytes() == first.tobytes()

    @pytest.mark.parametrize("where, name", [
        ("dense1.b", "add_bias1"),
        ("given", "indexed_dense0"),
        ("running_var", "bn0"),
    ])
    def test_nonfinite_values_name_the_node_they_did(self, where, name):
        model, feeds = trained_like("padme-ecfp")
        graph = model.graph
        value = first_value(model, feeds)
        if where == "dense1.b":
            next(p for p in graph.parameters()
                 if p.name == "dense1.b").array[3] = np.nan
        elif where == "given":
            value[2, 5] = np.inf
        else:
            layer_named(model, "bn0").running_var[1] = -1.0
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteError, match=f"'{name}'"):
            graph.infer({}, value, after(model, "indexed_dense0"), -1)
        if where == "dense1.b":  # a forward reads no running statistic
            with pytest.raises(NonFiniteError, match=f"'{name}'"):
                graph.forward(feeds, rng=np.random.default_rng(0))


class TestBlockedInference:
    """``Graph.infer`` runs each chain of row-wise layers over row blocks of
    a value of at least two blocks; the bytes, the errors and the buffers it
    writes are those of whole arrays."""

    @pytest.mark.parametrize("variant, use_batchnorm", [
        *((variant, True) for variant in VARIANTS), ("padme-ecfp", False)])
    def test_block_boundaries_keep_the_bytes(self, variant, use_batchnorm,
                                             monkeypatch):
        store, model = wide_model(variant, n_pairs=2600,
                                  use_batchnorm=use_batchnorm)
        part = np.arange(300)
        sizes = (1, 2, 3, 5, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                 2 * BLOCK_ROWS + 1, 1024)
        calls = [(part, size) for size in sizes]
        calls.append((np.arange(2600), 1024))
        real_repeat = np.repeat
        tiled = []

        def repeat(a, *args, **kwargs):
            tiled.append(np.shape(a))
            return real_repeat(a, *args, **kwargs)

        blocked = []
        for indices, size in calls:
            tiled.clear()
            with mock.patch.object(np, "repeat", repeat):
                blocked.append(store.predict(model, indices, batch_size=size))
        # the last call scores three blocked chunks: each of its two hidden
        # layers' vectors (the bias, and batch norm's four) is tiled once
        if variant.endswith("ecfp"):
            assert len(tiled) == 2 * (1 + 4 * use_batchnorm)
        whole_arrays(monkeypatch)
        for (indices, size), got in zip(calls, blocked):
            want = store.predict(model, indices, batch_size=size)
            assert got.tobytes() == want.tobytes(), size
        assert held_state(model.graph) == []

    @pytest.mark.parametrize("early, late, name", [
        ("bn0", "given", "indexed_dense0"),
        ("given", "bn0", "indexed_dense0"),
        ("bn0", "add_bias0", "add_bias0"),
        ("add_bias0", "bn0", "add_bias0"),
    ])
    def test_errors_across_blocks_name_the_earliest_node(
            self, early, late, name, monkeypatch):
        _, model = wide_model()
        graph = model.graph
        rows = 3 * BLOCK_ROWS + 10
        value = np.random.default_rng(3).standard_normal((rows, 256))
        # column 5 overflows in bn0 from 1e308, column 9 in add_bias0
        layer_named(model, "bn0").running_var[5] = 1e-4
        next(p for p in graph.parameters()
             if p.name == "dense0.b").array[9] = 1e308
        for where, row in ((early, 10), (late, 2 * BLOCK_ROWS + 4)):
            if where == "given":
                value[row, 7] = np.nan
            else:
                value[row, 5 if where == "bn0" else 9] = 1e308
        messages = []
        for whole in (False, True):
            if whole:
                whole_arrays(monkeypatch)
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteError, match=f"'{name}'") as caught:
                graph.infer({}, value, after(model, "indexed_dense0"), -1)
            assert held_state(graph) == []
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("nan", [False, True])
    def test_a_shape_error_comes_after_the_checks_before_it(
            self, nan, monkeypatch):
        # a 255-wide given value does not fit add_bias0's 256-entry bias
        _, model = wide_model()
        value = np.ones((3 * BLOCK_ROWS, 255))
        if nan:
            value[2 * BLOCK_ROWS, 0] = np.nan
        error = NonFiniteError if nan else ShapeError
        messages = []
        for whole in (False, True):
            if whole:
                whole_arrays(monkeypatch)
            with pytest.raises(error) as caught:
                model.graph.infer({}, value, after(model, "indexed_dense0"),
                                  -1)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_a_blocked_pass_writes_no_given_value_or_parameter(
            self, monkeypatch):
        _, model = wide_model()
        graph = model.graph
        start = after(model, "indexed_dense0")
        value = np.random.default_rng(3).standard_normal(
            (3 * BLOCK_ROWS + 10, 256))
        kept = [value.tobytes()] + [p.array.tobytes()
                                    for p in graph.parameters()]
        stops = [-1, after(model, "bn0")]
        blocked = [graph.infer({}, value, start, stop) for stop in stops]
        assert [value.tobytes()] + [p.array.tobytes()
                                    for p in graph.parameters()] == kept
        # a later pass wrote into no earlier result
        whole_arrays(monkeypatch)
        for stop, got in zip(stops, blocked):
            want = graph.infer({}, value, start, stop)
            assert got.tobytes() == want.tobytes()


# Non-finite values a parity test writes, and the batch sizes it scores at.
BAD_VALUES = (np.nan, np.inf, -np.inf)
BATCH_SIZES = (1, 5, 64, 65, 1024)


def scoring_model(variant, shape):
    """A store over 150 pairs and a model of ``variant``, its state moved:
    at ``ModelConfig``'s default sizes, or at the tests' tiny ones (one
    16-wide hidden layer over 512 bits)."""
    sizes = {} if shape == "default" else dict(
        hidden_layers=(16,), fp_bits=512, conv_widths=(8,), conv_dense=12)
    store = FeatureStore(memory_dataset(n_compounds=60, n_proteins=5,
                                        n_pairs=150, seed=4),
                         ModelConfig(variant=variant, **sizes))
    model = store.build_model()
    move_state(model, np.random.default_rng(8))
    return store, model


def poison_sites(model) -> list[str]:
    """The state entries a parity test may write a non-finite value into,
    plus ``table``, the first layer's projected compound rows."""
    return ["table"] + sorted(model.graph.live_state())


def scored(store, model, batch_size, block_entries):
    """``store.predict`` of every pair at ``batch_size`` with inference
    blocks of ``block_entries`` entries: the predictions, or the error's
    class and message. The graph holds no state afterwards either way."""
    with mock.patch.object(engine, "_INFER_BLOCK", block_entries), \
            np.errstate(all="ignore"):
        try:
            result = store.predict(model, np.arange(store.dataset.n_pairs),
                                   batch_size=batch_size)
        except EngineError as error:
            result = (type(error), str(error))
    assert held_state(model.graph) == []
    return result


def same_outcome(got, want) -> bool:
    if isinstance(want, tuple) or isinstance(got, tuple):
        return got == want
    return np.array_equal(got, want)


class TestScoringErrorParity:
    """A blocked scoring call gives the bytes and the error (class and
    message) of the same call run node by node on whole arrays, whichever
    state entry or first-layer table row holds a NaN or an infinity and
    whichever row block it first shows in."""

    @pytest.fixture(scope="class")
    def wide(self):
        return wide_model()[1]

    @pytest.mark.parametrize("shape", ["default", "tiny"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_blocked_predict_matches_node_by_node(self, variant, shape):
        store, model = scoring_model(variant, shape)
        width = model.cfg.hidden_layers[0]
        state = model.graph.state_dict()
        live = model.graph.live_state()
        real_projection = FeatureStore._projection

        @settings(max_examples=8, deadline=None, derandomize=True)
        @given(site=st.sampled_from(poison_sites(model)),
               bad=st.sampled_from(BAD_VALUES),
               row=st.integers(0, 10 ** 6), column=st.integers(0, 10 ** 6))
        @example(site="bn0.beta", bad=-np.inf, row=0, column=3)
        @example(site="dense0.b", bad=np.nan, row=0, column=3)
        @example(site="table", bad=np.inf, row=7, column=3)
        def check(site, bad, row, column):
            def poisoned(self, model, block, distinct, batch_size):
                table = real_projection(self, model, block, distinct,
                                        batch_size)
                if block == 0:
                    table[row % len(table), column % table.shape[1]] = bad
                return table

            target = live.get(site)
            if target is not None and target.ndim == 2:
                target[row % len(target)] = bad
            elif target is not None:
                target[column % len(target)] = bad
            try:
                with mock.patch.object(
                        FeatureStore, "_projection",
                        poisoned if site == "table" else real_projection):
                    reference = {size: scored(store, model, size, 1 << 40)
                                 for size in BATCH_SIZES}
                    errors = [r for r in reference.values()
                              if isinstance(r, tuple)]
                    # one poisoned entry reaches every chunking alike
                    assert not errors or errors == [errors[0]] * len(
                        BATCH_SIZES)
                    for entries in (engine._INFER_BLOCK, 16 * width):
                        for size in (64, 65, 1024):
                            got = scored(store, model, size, entries)
                            assert same_outcome(got, reference[size]), \
                                (site, bad, size, entries)
            finally:
                model.graph.load_state(state)

        check()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(block=st.sampled_from(["first", "middle", "last"]),
           site=st.sampled_from(["table0", "table1", "dense0.b", "bn0.gamma",
                                 "bn0.beta", "bn0.running_mean",
                                 "bn0.running_var", "dense1.W", "dense1.b",
                                 "bn1.beta"]),
           bad=st.sampled_from(BAD_VALUES), seed=st.integers(0, 2 ** 16))
    def test_a_given_gather_add_matches_its_formed_array(self, wide, block,
                                                         site, bad, seed):
        graph = wide.graph
        rng = np.random.default_rng(seed)
        n = 3 * BLOCK_ROWS + 10
        tables = (rng.standard_normal((20, 256)),
                  rng.standard_normal((6, 256)))
        # table row 0 is read by one pair, in the block drawn
        at = {"first": 5, "middle": BLOCK_ROWS + 7, "last": n - 3}[block]
        indices = (rng.integers(1, 20, n), rng.integers(1, 6, n))
        indices[0][at] = indices[1][at] = 0
        live = graph.live_state()
        state = graph.state_dict()
        column = int(rng.integers(0, 256))
        if site.startswith("table"):
            tables[int(site[-1])][0, column] = bad
        else:  # an entry of a vector, a row of a weight
            live[site][column] = bad
        kept = [a.tobytes() for a in tables + indices]
        record = GatherAdd(tables, indices)
        formed = record.form()

        def run(value, block_entries):
            with mock.patch.object(engine, "_INFER_BLOCK", block_entries), \
                    np.errstate(all="ignore"):
                try:
                    out = graph.infer({}, value,
                                      after(wide, "indexed_dense0"), -1)
                except EngineError as error:
                    out = (type(error), str(error))
            assert held_state(graph) == []
            return out

        try:
            want = run(formed, 1 << 40)
            for value in (record, formed):
                for entries in (engine._INFER_BLOCK, 16 * 256):
                    assert same_outcome(run(value, entries), want)
            assert [a.tobytes() for a in tables + indices] == kept
        finally:
            graph.load_state(state)
        if site.startswith("table") or site == "dense0.b":
            assert isinstance(want, tuple)  # the value reached a check


class TestFeatureStore:
    def test_degree_overflow_names_the_compound(self):
        dataset = memory_dataset(n_compounds=4, n_proteins=2, n_pairs=6)
        bad = "C(C)(C)(C)(C)(C)(C)C"  # a degree-7 carbon
        dataset = replace(dataset, compounds=(bad, *dataset.compounds[1:]),
                          molecules=None)
        with pytest.raises(FeaturizationError, match=re.escape(repr(bad))):
            FeatureStore(dataset, small_config(variant="padme-graphconv"))

    def test_a_non_finite_descriptor_is_refused_naming_the_protein(
            self, monkeypatch):
        dataset = memory_dataset(n_compounds=4, n_proteins=3, n_pairs=6)
        real = protein_module.descriptor_matrix

        def poisoned(sequences, ids):
            matrix = real(sequences, ids)
            matrix[1, 7] = np.inf
            return matrix

        monkeypatch.setattr(protein_module, "descriptor_matrix", poisoned)
        with pytest.raises(NonFiniteError,
                           match=re.escape(repr(dataset.protein_ids[1]))):
            FeatureStore(dataset, small_config())

    def test_descriptor_rows_are_fed_read_only_and_not_tested_again(
            self, monkeypatch):
        store = small_store("padme-ecfp")
        model = store.build_model()
        feeds = store.feeds(np.arange(30), model=model)
        rows = feeds["protein"]
        assert type(rows) is engine._Checked and not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = np.nan
        tested = []
        real = engine.all_finite
        monkeypatch.setattr(engine, "all_finite",
                            lambda a: tested.append(np.shape(a)) or real(a))
        model.graph.forward(feeds, rng=np.random.default_rng(0))
        assert feeds["compound"].shape in tested
        assert rows.shape not in tested

    @pytest.mark.parametrize("variant", ["padme-ecfp", "padme-graphconv"])
    @pytest.mark.parametrize("hand_built", [np.array, lambda rows: rows.copy()],
                             ids=["array", "copy"])
    def test_a_hand_built_non_finite_descriptor_feed_is_named(
            self, variant, hand_built):
        store = small_store(variant)
        model = store.build_model()
        feeds = store.feeds(np.arange(30), model=model)
        feeds["protein"] = hand_built(feeds["protein"])
        feeds["protein"][1, 5] = np.nan
        with pytest.raises(NonFiniteError, match=re.escape(
                "non-finite values produced by node 'protein' (input)")):
            model.graph.forward(feeds, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_store_tables_are_projected_without_an_inference_pass(
            self, variant, monkeypatch):
        # fingerprint and descriptor rows go straight to the projection;
        # a graph-conv compound block runs its conv stack, one pass a block
        store = small_store(variant)
        model = store.build_model()
        passes = []
        real = Graph.infer

        def spy(graph, feeds, x=None, start=0, stop=None, tiles=None):
            passes.append(graph.layers[:stop][-1].name)
            return real(graph, feeds, x, start, stop, tiles)

        monkeypatch.setattr(Graph, "infer", spy)
        store.predict(model, np.arange(30), batch_size=16)
        # the 12 compounds make one block of at most 16
        blocks = ["gather"] if variant.endswith("graphconv") else []
        assert passes == blocks + ["output"] * 2

    @pytest.mark.parametrize("variant, n_tasks", [
        *((variant, 1) for variant in VARIANTS),
        ("padme-ecfp", 3), ("padme-graphconv", 3)])
    def test_empty_predict_has_one_column_per_output(self, variant, n_tasks):
        dataset = memory_dataset(n_compounds=4, n_proteins=2, n_pairs=6,
                                 n_tasks=n_tasks, seed=3)
        store = FeatureStore(dataset, small_config(
            variant=variant, n_tasks=n_tasks, conv_widths=(4,),
            conv_dense=5))
        model = store.build_model()
        out = store.predict(model, [])
        assert out.shape == (0, store.predict(model, [0]).shape[1])
        assert out.shape[1] == (1 if variant.startswith("compound-only")
                                else n_tasks)

    @pytest.mark.parametrize("batch_size", [0, -1, True])
    def test_predict_refuses_a_batch_size_below_one(self, batch_size):
        store = FeatureStore(memory_dataset(n_compounds=6, n_proteins=3,
                                            n_pairs=14), small_config())
        model = store.build_model()
        with pytest.raises(ModelError, match=f"batch_size.* {batch_size}$"):
            store.predict(model, np.arange(14), batch_size=batch_size)

    @pytest.mark.parametrize("indices, message", [
        ([-1], "pair index -1 (entry 0) is outside the dataset's 14 pairs"),
        ([3, 14, 15], "pair index 14 (entry 1) is outside"),
        ([[1, 2]], "1-d sequence of integers, got shape (1, 2)"),
        ([1.5], "pair index 1.5 (entry 0) is not an integer"),
        ([True, False], "pair index True (entry 0) is not an integer"),
        (["3"], "pair index '3' (entry 0) is not an integer"),
    ])
    @pytest.mark.parametrize("call", ["predict", "feeds", "pair_targets"])
    def test_bad_pair_indices_are_refused_naming_the_entry(self, indices,
                                                           message, call):
        store = FeatureStore(memory_dataset(n_compounds=6, n_proteins=3,
                                            n_pairs=14), small_config())
        args = (store.build_model(), indices) if call == "predict" \
            else (indices,)
        with pytest.raises(ModelError, match=re.escape(message)):
            getattr(store, call)(*args)

    def test_empty_compound_selection_is_refused(self):
        store = FeatureStore(memory_dataset(n_compounds=4, n_proteins=2,
                                            n_pairs=6),
                             small_config(variant="padme-graphconv"))
        with pytest.raises(GraphStructureError, match="empty batch"):
            store.feeds([])

    def test_model_must_featurize_as_the_store(self):
        store = FeatureStore(memory_dataset(n_compounds=4, n_proteins=2,
                                            n_pairs=6), small_config())
        store.build_model(small_config(hidden_layers=(8, 8)))
        with pytest.raises(ModelError, match="feature store: featurization "
                           "fp_bits 512 is incompatible with this build's "
                           "1024"):
            store.build_model(small_config(fp_bits=1024))


class TestBatchnormConsistency:
    def test_frozen_stats_match_train_eval(self):
        model = Model.build(small_config(use_batchnorm=True))
        rng = np.random.default_rng(2)
        feeds = {"compound": rng.random((32, 512)),
                 "protein": rng.random((32, 8421)),
                 "compound_row": np.arange(32), "protein_row": np.arange(32)}
        layers = model.graph.layers
        train_out = Graph(layers[:-1]).forward(feeds, rng=rng)
        bn = layer_named(model, "bn0")
        x = Graph(layers[:layers.index(bn)]).forward(feeds)
        bn.running_mean = x.mean(axis=0)
        bn.running_var = x.var(axis=0)
        eval_out = model.predict_feeds(feeds)
        assert np.max(np.abs(train_out - eval_out)) < 1e-10


def _with_tensors(header, tensors):
    """A checkpoint header whose manifest is ``tensors(manifest)``."""
    return {**header, "tensors": tensors(header["tensors"])}


def _with_bias_copy(header, **entry):
    """A checkpoint header with one more manifest entry: the output bias's,
    updated by ``entry``."""
    bias = next(e for e in header["tensors"] if e["name"] == "output.b")
    return {**header, "tensors": [*header["tensors"], {**bias, **entry}]}


class TestCheckpoint:
    def test_round_trip_preserves_predictions(self, tmp_path):
        dataset = memory_dataset(n_compounds=8, n_proteins=4, n_pairs=16,
                                 seed=5)
        store = FeatureStore(dataset, small_config())
        model = store.build_model()
        path = tmp_path / "model.ckpt"
        model.save(path, run_config_text="snapshot")
        loaded, extras = Model.load(path)
        assert extras["run_config"] == "snapshot"
        idx = np.arange(8)
        assert np.array_equal(store.predict(model, idx),
                              store.predict(loaded, idx))

    def test_predict_changes_no_state(self, tmp_path):
        dataset = memory_dataset(n_compounds=6, n_proteins=3, n_pairs=10,
                                 seed=6)
        store = FeatureStore(dataset, small_config())
        model = store.build_model()
        keys = model.graph.live_state().keys()
        assert {"bn0.running_mean", "bn0.running_var"} <= keys
        before, after = tmp_path / "before.ckpt", tmp_path / "after.ckpt"
        model.save(before)
        store.predict(model, np.arange(dataset.n_pairs))
        assert model.graph.live_state().keys() == keys
        model.save(after)
        assert after.read_bytes() == before.read_bytes()

    def test_write_read_write_byte_identical(self, tmp_path):
        dataset = memory_dataset(n_compounds=6, n_proteins=3, n_pairs=10,
                                 seed=6)
        store = FeatureStore(dataset, small_config())
        model = store.build_model()
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        model.save(first, run_config_text="cfg")
        loaded, extras = Model.load(first)
        assert extras == {"run_config": "cfg"}
        loaded.save(second, run_config_text=extras["run_config"])
        assert first.read_bytes() == second.read_bytes()

    def test_refuses_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTCKPT!" + b"\x00" * 32)
        with pytest.raises(ModelError, match="not a model checkpoint"):
            Model.load(path)

    def test_refuses_other_featurization_layout(self, tmp_path):
        dataset = memory_dataset(n_compounds=4, n_proteins=2, n_pairs=6,
                                 seed=7)
        store = FeatureStore(dataset, small_config())
        model = store.build_model()
        path = tmp_path / "model.ckpt"
        model.save(path)
        raw = bytearray(path.read_bytes())
        text = raw.decode("latin-1")
        mutated = text.replace('"layout_version":1', '"layout_version":9')
        path.write_bytes(mutated.encode("latin-1"))
        with pytest.raises(ModelError, match="featurization layout_version 9 "
                           "is incompatible with this build's 1"):
            Model.load(path)

    @pytest.mark.parametrize("entry, stored", [
        ("protein_layout", 2), ("protein_dim", 8420), ("fp_bits", 999)])
    def test_refuses_another_featurization_entry(self, tmp_path, entry,
                                                 stored):
        # a same-length edit of one signature entry; the config is untouched
        model, path = self._saved(tmp_path)
        ours = model.cfg.featurization_signature()[entry]
        text = path.read_bytes().decode("latin-1")
        start = text.index('"featurization":{')
        end = text.index("}", start)
        old, new = f'"{entry}":{ours}', f'"{entry}":{stored}'
        assert len(old) == len(new) and text.count(old, start, end) == 1
        text = text[:start] + text[start:end].replace(old, new) + text[end:]
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ModelError, match=re.escape(
                f"model.ckpt: featurization {entry} {stored} is "
                f"incompatible with this build's {ours}")):
            Model.load(path)

    @pytest.mark.parametrize("keep", [16, 40, -8, -1])
    def test_truncated_checkpoint_names_the_file(self, tmp_path, keep):
        dataset = memory_dataset(n_compounds=4, n_proteins=2, n_pairs=6,
                                 seed=7)
        model = FeatureStore(dataset, small_config()).build_model()
        path = tmp_path / "model.ckpt"
        model.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:keep])
        with pytest.raises(ModelError, match="model.ckpt.*truncated"):
            Model.load(path)

    def _saved(self, tmp_path, **overrides):
        dataset = memory_dataset(n_compounds=4, n_proteins=2, n_pairs=6,
                                 seed=7)
        model = FeatureStore(dataset, small_config(**overrides)).build_model()
        path = tmp_path / "model.ckpt"
        model.save(path)
        return model, path

    @staticmethod
    def _rewrite_header(path, edit):
        """Replace the checkpoint's header by ``edit(header)``, raw bytes or
        a value written as JSON; the tensor payload stays as it was."""
        raw = path.read_bytes()
        (length,) = struct.unpack("<Q", raw[12:20])
        blob = edit(json.loads(raw[20:20 + length]))
        if not isinstance(blob, bytes):
            blob = json.dumps(blob).encode()
        path.write_bytes(raw[:8] + struct.pack("<IQ", 1, len(blob)) + blob
                         + raw[20 + length:])

    @pytest.mark.parametrize("edit, message", [
        (lambda h: _with_tensors(
            h, lambda ts: [t for t in ts if t["name"] != "dense0.W"]),
         "has no tensor 'dense0.W'"),
        (lambda h: b"{not json", "header is not JSON"),
        (lambda h: {k: v for k, v in h.items() if k != "featurization"},
         "header has no 'featurization'"),
        (lambda h: [1, 2], "malformed checkpoint header"),
        (lambda h: _with_tensors(
            h, lambda ts: [{**t, "shape": 5} for t in ts]),
         "malformed checkpoint header"),
        (lambda h: _with_bias_copy(h, name=5), "malformed checkpoint header"),
        (lambda h: _with_bias_copy(h, name="output.c"),
         "unknown state entry 'output.c'"),
        (lambda h: _with_bias_copy(h, name="bn9.running_mean"),
         "unknown state entry 'bn9.running_mean'"),
        (lambda h: _with_bias_copy(h, shape=[1, 1]),
         "state entry 'output.b': stored shape"),
    ], ids=["missing-parameter", "not-json", "no-featurization",
            "array-header", "shape-not-a-list", "name-not-a-string",
            "unknown-tensor", "unknown-statistic", "wrong-shape"])
    def test_refuses_what_it_cannot_restore(self, tmp_path, edit, message):
        _, path = self._saved(tmp_path)
        self._rewrite_header(path, edit)
        with pytest.raises(ModelError, match=f"model.ckpt: .*{message}"):
            Model.load(path)

    def test_refuses_half_the_running_statistics(self, tmp_path):
        _, path = self._saved(tmp_path)
        self._rewrite_header(path, lambda h: _with_tensors(
            h, lambda ts: [t for t in ts
                           if not t["name"].endswith("running_var")]))
        with pytest.raises(ModelError, match="model.ckpt: checkpoint has no "
                                             "tensor 'bn0.running_var'"):
            Model.load(path)

    def test_refuses_a_checkpoint_without_running_statistics(self, tmp_path):
        _, path = self._saved(tmp_path)
        self._rewrite_header(path, lambda h: _with_tensors(
            h, lambda ts: [t for t in ts if ".running_" not in t["name"]]))
        with pytest.raises(ModelError, match="model.ckpt: checkpoint has no "
                                             "tensor 'bn0.running_mean'"):
            Model.load(path)

    @pytest.mark.parametrize("shape", [[1], [7], [16, 1]])
    def test_refuses_a_running_statistic_in_another_shape(self, tmp_path,
                                                          shape):
        _, path = self._saved(tmp_path)
        self._rewrite_header(path, lambda h: _with_tensors(
            h, lambda ts: [{**t, "shape": shape}
                           if t["name"] == "bn0.running_mean" else t
                           for t in ts]))
        with pytest.raises(ModelError, match=re.escape(
                "model.ckpt: state entry 'bn0.running_mean': stored shape")):
            Model.load(path)

    def test_poisoned_checkpoint_fails_at_load(self, tmp_path):
        dataset = memory_dataset(n_compounds=4, n_proteins=2, n_pairs=6,
                                 seed=7)
        model = FeatureStore(dataset, small_config()).build_model()
        weight = next(p for p in model.graph.parameters()
                      if p.name == "dense0.W")
        weight.array[3, 2] = np.nan
        path = tmp_path / "model.ckpt"
        model.save(path)
        with pytest.raises(NonFiniteError, match="dense0.W"):
            Model.load(path)

    def test_compound_only_round_trip_keeps_protein_mapping(self, tmp_path):
        dataset = memory_dataset(n_compounds=6, n_proteins=4, n_pairs=12,
                                 seed=8)
        store = FeatureStore(dataset,
                             small_config(variant="compound-only-ecfp"))
        model = store.build_model()
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded, _ = Model.load(path)
        assert loaded.protein_index == model.protein_index

    def _trained(self, tmp_path):
        """A store, a model fit for one epoch (so its batch-norm running
        statistics have moved), and its checkpoint."""
        dataset = memory_dataset(n_compounds=6, n_proteins=3, n_pairs=12,
                                 seed=9)
        store = FeatureStore(dataset, small_config())
        model = store.build_model()
        idx = np.arange(dataset.n_pairs)
        train(model, store, idx[:8], idx[8:],
              TrainConfig(batch_size=4, max_epochs=1, seed=0))
        path = tmp_path / "model.ckpt"
        model.save(path, run_config_text="cfg")
        return store, model, path

    def test_checkpoint_holds_the_model_state_only(self, tmp_path):
        _, model, path = self._trained(tmp_path)
        raw = path.read_bytes()
        (length,) = struct.unpack("<Q", raw[12:20])
        header = json.loads(raw[20:20 + length])
        state = model.graph.state_dict()
        assert "optimizer_step" not in header
        assert [t["name"] for t in header["tensors"]] == sorted(state)
        assert len(raw) == 20 + length + sum(v.nbytes for v in state.values())

    def test_loads_a_checkpoint_in_the_earlier_header_layout(self, tmp_path):
        # headers were once written with a hash of the featurization
        # signature, the format version a second time and the atom
        # vocabulary in the config; loading ignores all three
        store, model, path = self._trained(tmp_path)
        self._rewrite_header(path, lambda h: {
            **h, "format_version": 1,
            "featurization_fingerprint": "5f0c1d2e3a4b6978",
            "config": {**h["config"],
                       "atom_vocabulary": h["featurization"][
                           "atom_vocabulary"]}})
        loaded, _ = Model.load(path)
        state, saved = loaded.graph.state_dict(), model.graph.state_dict()
        assert state.keys() == saved.keys()
        for name in saved:
            assert np.array_equal(state[name], saved[name]), name
        idx = np.arange(store.dataset.n_pairs)
        assert store.predict(loaded, idx).tobytes() == \
            store.predict(model, idx).tobytes()

    @staticmethod
    def _add_adam_moments(path, model, rng):
        """Rewrite ``model``'s checkpoint at ``path`` as checkpoints were
        once written, with the best epoch's Adam moments: an
        ``optimizer_step`` header key and an ``adam.{m,v}.<param>`` tensor
        per parameter, sorted with the rest, so stored first."""
        raw = path.read_bytes()
        (length,) = struct.unpack("<Q", raw[12:20])
        header = json.loads(raw[20:20 + length])
        payload = raw[20 + length:]
        tensors, shapes = {}, {}
        for t in header["tensors"]:
            end = t["offset"] + 8 * math.prod(t["shape"])
            tensors[t["name"]] = payload[t["offset"]:end]
            shapes[t["name"]] = t["shape"]
        for p in model.graph.parameters():
            for kind in ("m", "v"):
                moment = rng.standard_normal(p.array.shape).astype("<f8")
                tensors[f"adam.{kind}.{p.name}"] = moment.tobytes()
                shapes[f"adam.{kind}.{p.name}"] = list(p.array.shape)
        manifest, offset = [], 0
        for name in sorted(tensors):
            manifest.append({"name": name, "shape": shapes[name],
                             "offset": offset})
            offset += len(tensors[name])
        blob = json.dumps({**header, "optimizer_step": 3,
                           "tensors": manifest}).encode()
        path.write_bytes(raw[:8] + struct.pack("<IQ", 1, len(blob)) + blob
                         + b"".join(tensors[name] for name in sorted(tensors)))
        assert manifest[0]["name"].startswith("adam.")

    def test_loads_a_checkpoint_with_adam_moments(self, tmp_path):
        store, model, path = self._trained(tmp_path)
        self._add_adam_moments(path, model, np.random.default_rng(1))
        loaded, extras = Model.load(path)
        assert extras == {"run_config": "cfg"}
        state, saved = loaded.graph.state_dict(), model.graph.state_dict()
        assert state.keys() == saved.keys()
        for name in saved:
            assert np.array_equal(state[name], saved[name]), name
        idx = np.arange(store.dataset.n_pairs)
        assert store.predict(loaded, idx).tobytes() == \
            store.predict(model, idx).tobytes()
        # the moments are never read: the default padme-ecfp model's file
        # holds three times its 22 MB of state, and loading it holds as
        # little as loading a file without them
        model = Model.build(ModelConfig())
        model.save(path)
        self._add_adam_moments(path, model, np.random.default_rng(2))
        state_bytes = sum(v.nbytes for v in model.graph.live_state().values())
        del model
        tracemalloc.start()
        try:
            Model.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * state_bytes

    def test_load_holds_little_beyond_the_state_it_loads(self, tmp_path):
        # The default padme-ecfp model: 22 MB of parameters. Loading holds
        # the built model and the file's payload, not a copy per tensor.
        model = Model.build(ModelConfig())
        path = tmp_path / "model.ckpt"
        model.save(path)
        state_bytes = sum(v.nbytes for v in model.graph.live_state().values())
        del model
        tracemalloc.start()
        try:
            loaded, _ = Model.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(v.nbytes for v in loaded.graph.live_state().values()) == \
            state_bytes
        assert peak <= 1.25 * state_bytes

    @staticmethod
    def _manifest(path):
        """``(name, payload start, payload end)`` of each stored tensor,
        with offsets counted from the start of the file."""
        raw = path.read_bytes()
        (length,) = struct.unpack("<Q", raw[12:20])
        header = json.loads(raw[20:20 + length])
        return [(t["name"], 20 + length + t["offset"],
                 20 + length + t["offset"] + 8 * math.prod(t["shape"]))
                for t in header["tensors"]]

    def test_a_payload_cut_inside_a_tensor_names_that_tensor(self, tmp_path):
        _, path = self._saved(tmp_path)
        raw = path.read_bytes()
        manifest = self._manifest(path)
        assert len(manifest) == 8
        for name, start, end in manifest:
            path.write_bytes(raw[:(start + end) // 2])
            with pytest.raises(ModelError, match=re.escape(
                    f"model.ckpt: truncated checkpoint: tensor '{name}' "
                    f"needs bytes")):
                Model.load(path)

    def test_a_nan_in_the_last_tensor_read_names_file_and_tensor(
            self, tmp_path):
        _, path = self._saved(tmp_path)
        name, _, end = self._manifest(path)[-1]
        raw = bytearray(path.read_bytes())
        raw[end - 8:end] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteError, match=re.escape(
                f"model.ckpt: state entry '{name}' has non-finite values")):
            Model.load(path)

    @pytest.mark.parametrize("variant", ["padme-ecfp", "padme-graphconv"])
    def test_load_draws_no_weights(self, tmp_path, monkeypatch, variant):
        model, path = self._saved(tmp_path, variant=variant)

        def refuse(*args):
            raise AssertionError("Model.load drew an initial weight")

        monkeypatch.setattr(model_module, "_he_uniform", refuse)
        loaded, _ = Model.load(path)
        state = loaded.graph.live_state()
        for name, array in model.graph.live_state().items():
            assert array.tobytes() == state[name].tobytes(), name

    @pytest.mark.parametrize("damage", ["nan", "cut"])
    def test_a_failed_load_keeps_no_unset_array(self, tmp_path, monkeypatch,
                                                damage):
        _, path = self._saved(tmp_path)
        raw = path.read_bytes()
        if damage == "nan":
            path.write_bytes(raw[:-8] + struct.pack("<d", np.nan))
        else:
            path.write_bytes(raw[:-4])
        made = []
        real_empty = Parameter.empty.__func__

        def recording(cls, name, shape):
            param = real_empty(cls, name, shape)
            made.append(weakref.ref(param))
            return param

        monkeypatch.setattr(Parameter, "empty", classmethod(recording))
        with pytest.raises((ModelError, NonFiniteError)) as caught:
            Model.load(path)
        assert made
        gc.collect()
        # the error and its traceback are still held here
        assert caught.value.__traceback__ is not None
        assert all(ref() is None for ref in made)

