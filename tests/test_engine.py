"""Autodiff engine: layer semantics, gradients vs central differences, Adam."""

import warnings

import numpy as np
import pytest

from conftest import (
    central_difference_directional,
    check_layer_gradients,
    context,
    held_state,
    relative_error,
)
from dtanet import engine
from dtanet.engine import (
    Adam,
    AddBias,
    BatchNorm,
    CompactGrad,
    Dropout,
    EngineError,
    GatherAdd,
    Graph,
    IndexedDense,
    Input,
    MatMul,
    NonFiniteError,
    Parameter,
    Relu,
    RowSelection,
    ShapeError,
    WeightedMse,
)


def loss_only(graph, feeds, rng_seed=None):
    def evaluate():
        rng = np.random.default_rng(rng_seed) if rng_seed is not None else None
        return float(graph.forward(feeds, rng=rng))
    return evaluate


def check_param_gradient(graph, feeds, param, rng, rng_seed=None,
                         tol=1e-4, h=1e-5):
    """Directional derivative against the analytic gradient."""
    evaluate = loss_only(graph, feeds, rng_seed)
    evaluate()
    graph.backward()
    direction = rng.standard_normal(param.array.shape)
    direction /= max(np.linalg.norm(direction), 1e-12)
    analytic = float((param.grad * direction).sum())
    graph.zero_grad()
    numeric = central_difference_directional(evaluate, param.array, direction, h)
    assert relative_error(analytic, numeric) < tol, \
        f"{param.name}: analytic {analytic} vs numeric {numeric}"


def recorded_values(graph: Graph) -> dict:
    """Each layer's value in the latest pass, by name, recorded as the pass
    runs (whole-array passes only): no layer keeps its value, so this is
    how a test sees them."""
    seen = {}
    for layer in graph.layers:
        for method in ("compute", "apply"):
            original = getattr(layer, method, None)
            if original is None:
                continue

            def record(*args, layer=layer, original=original):
                seen[layer.name] = value = original(*args)
                return value
            setattr(layer, method, record)
    return seen


class TestOpSemantics:
    def test_relu_definition(self):
        g = Graph([Input("x"), Relu()])
        value = g.forward({"x": np.array([[-1.0, 0.0, 2.0]])})
        assert value.tolist() == [[0.0, 0.0, 2.0]]

    def test_matmul_identity(self):
        g = Graph([Input("x"), MatMul(Parameter("I", np.eye(3)))])
        vec = np.array([[1.5, -2.0, 0.25]])
        assert np.array_equal(g.forward({"x": vec}), vec)

    def test_weighted_mse_masks_entries(self):
        g = Graph([Input("pred"), WeightedMse()])
        value = g.forward({"pred": np.array([[1.0, 5.0]]),
                           "target": np.array([[1.0, 0.0]]),
                           "weight": np.array([[1.0, 0.0]])})
        assert float(value) == 0.0

    def test_zero_weight_zero_gradient(self):
        w = Parameter("w", np.array([[2.0], [3.0]]))
        g = Graph([Input("x"), MatMul(w), WeightedMse()])
        feeds = {"x": np.array([[1.0, 1.0], [2.0, 0.0]]),
                 "target": np.zeros((2, 1)),
                 "weight": np.array([[0.0], [1.0]])}
        g.forward(feeds)
        g.backward()
        # only row 2 contributes: pred2 = 4, dL/dpred2 = 2*4, dL/dw = x2 * 8
        expected = np.array([[16.0], [0.0]])
        assert np.allclose(w.grad, expected)

    def test_dropout_is_identity_in_infer(self):
        g = Graph([Input("x"), Dropout(0.5)])
        data = np.arange(6, dtype=float).reshape(2, 3)
        assert np.array_equal(g.infer({"x": data}), data)

    def test_dropout_inverted_scaling(self):
        g = Graph([Input("x"), Dropout(0.5)])
        value = g.forward({"x": np.ones((200, 50))},
                          rng=np.random.default_rng(0))
        kept = value[value > 0]
        assert np.allclose(kept, 2.0)  # scaled by 1/(1-p)
        assert abs(value.mean() - 1.0) < 0.05

    def test_batchnorm_state_exists_from_construction(self):
        gamma = Parameter("gamma", np.array([1.5, 0.5, 2.0]))
        bn = BatchNorm(gamma, Parameter("beta", np.zeros(3)), "bn")
        g = Graph([Input("x"), bn])
        state = g.live_state()
        assert state["bn.running_mean"].tolist() == [0.0, 0.0, 0.0]
        assert state["bn.running_var"].tolist() == [1.0, 1.0, 1.0]
        g.infer({"x": np.ones((4, 3))})
        assert g.live_state().keys() == state.keys()
        assert state["bn.running_mean"] is bn.running_mean
        assert bn.running_var.tolist() == [1.0, 1.0, 1.0]
        with pytest.raises(ShapeError, match="'bn.running_var': stored shape"):
            g.load_state({"bn.running_var": np.ones(2)})

    def test_batchnorm_forward_and_infer_agreement(self):
        # with running statistics equal to the batch statistics, the
        # training forward and the inference pass agree to 1e-10
        bn = BatchNorm(Parameter("gamma", np.array([1.5, 0.5])),
                       Parameter("beta", np.array([0.2, -0.1])))
        g = Graph([Input("x"), bn])
        data = np.random.default_rng(3).normal(2.0, 3.0, size=(64, 2))
        train_out = g.forward({"x": data})
        bn.running_mean = data.mean(axis=0)
        bn.running_var = data.var(axis=0)
        inferred = g.infer({"x": data})
        assert np.max(np.abs(train_out - inferred)) < 1e-10

    def test_relu_local_derivative_values(self):
        # d relu/dx is exactly 1 at x=2, 0 at x=-1, 0 at the kink
        layer = Relu()
        layer.compute(np.array([[2.0, -1.0, 0.0]]), context())
        assert layer.backprop(np.ones((1, 3)), True).tolist() == \
            [[1.0, 0.0, 0.0]]

    def test_weighted_mse_gradient_form(self):
        # against target 0 with unit weights, dL/dx = 2x/n exactly
        layer = WeightedMse()
        value = np.array([[1.0, -2.0], [0.5, 3.0]])
        loss = layer.compute(value, context({"target": np.zeros((2, 2)),
                                             "weight": np.ones((2, 2))}))
        dx = layer.backprop(np.ones_like(loss), True)
        assert np.array_equal(dx, 2.0 * value / 4.0)

    def test_relu_values_equal_the_masked_select_bitwise(self):
        # long enough for vector lanes and a scalar tail, signed zeros included
        specials = [-2.5, -0.0, 0.0, 1e-300, -1e-300, 3.0, np.inf, -np.inf]
        x = np.concatenate([np.tile(specials, 9),
                            np.random.default_rng(0).standard_normal(301)])
        for values in (x, x[::-1].copy(), x.reshape(-1, 1)):
            expected = np.where(values > 0.0, values, 0.0)
            assert np.array_equal(engine.relu(values).view(np.int64),
                                  expected.view(np.int64))

    def test_relu_mask_is_kept_by_a_forward_and_no_inference(self):
        act = Relu()
        g = Graph([Input("x"), act, WeightedMse()])
        rng = np.random.default_rng(7)
        feeds = {"x": np.array([[0.0, 2.0, -1.0, -0.0]]),
                 "target": rng.standard_normal((1, 4)), "weight": np.ones((1, 4))}
        g.forward(feeds)
        assert act.saved.tolist() == [[False, True, False, False]]
        g.infer(feeds)
        assert act.saved is None
        g.forward(feeds)
        dx = act.backprop(np.ones((1, 4)), True)
        assert dx[0, 0] == dx[0, 2] == dx[0, 3] == 0.0

    def test_infer_batchnorm_equals_the_numpy_formula_bitwise(self):
        rng = np.random.default_rng(8)
        gamma = Parameter("gamma", 1.0 + 0.3 * rng.standard_normal(5))
        beta = Parameter("beta", 0.2 * rng.standard_normal(5))
        bn = BatchNorm(gamma, beta, "bn")
        # a zero bias hands batch norm a buffer of the pass to write into
        g = Graph([Input("x"), AddBias(Parameter("zero", np.zeros(5))), bn])
        bn.running_mean = rng.standard_normal(5)
        bn.running_var = rng.random(5) + 0.5
        data = rng.normal(1.0, 2.0, size=(33, 5))
        seen = recorded_values(g)
        value = g.infer({"x": data})
        assert value is seen["add_bias"] is seen["bn"]
        xhat = (data - bn.running_mean) * (1.0 / np.sqrt(bn.running_var
                                                          + bn.eps))
        assert np.array_equal(value, gamma.array * xhat + beta.array)
        # a training forward keeps what its backward reads; infer drops it
        g.forward({"x": data})
        inv_std, centered, xhat = bn.saved
        assert centered is not None and xhat is not None
        g.infer({"x": data})
        assert bn.saved is None

    def test_backward_through_batchnorm_against_central_differences(self):
        rng = np.random.default_rng(9)
        bn = BatchNorm(Parameter("gamma", 1.0 + 0.3 * rng.standard_normal(4)),
                       Parameter("beta", 0.2 * rng.standard_normal(4)))
        check_layer_gradients(bn, rng.standard_normal((6, 4)), rng)

    def test_relu_subgradient_zero_at_zero(self):
        layer = Relu()
        layer.compute(np.array([[0.0, 2.0, -1.0]]), context())
        dx = layer.backprop(np.array([[-1.0, -1.0, -1.0]]), True)[0]
        assert dx[0] == 0.0   # at the kink
        assert dx[1] != 0.0
        assert dx[2] == 0.0   # negative side


class TestGraphExecution:
    def test_each_node_computed_once(self):
        g = Graph([Input("x"), Relu(), Dropout(0.0)])
        seen = recorded_values(g)
        ran = []
        for layer in g.layers:
            def compute(x, ctx, layer=layer, original=layer.compute):
                ran.append(layer.name)
                return original(x, ctx)
            layer.compute = compute
        g.forward({"x": np.ones((1, 2))})
        assert ran == ["x", "relu", "dropout"]
        assert seen["dropout"] is seen["relu"]

    def test_shape_error_names_node(self):
        g = Graph([Input("a"), MatMul(Parameter("W", np.ones((3, 2))), "proj")])
        with pytest.raises(ShapeError, match="proj"):
            g.forward({"a": np.ones((2, 4))})

    def test_nonfinite_feed_caught_at_input(self):
        g = Graph([Input("x"), Relu("act")])
        with pytest.raises(NonFiniteError, match="'x' \\(input\\)"):
            g.forward({"x": np.array([[np.inf]])})

    def test_missing_feed_is_named(self):
        g = Graph([Input("x"), Relu("act"), WeightedMse()])
        with pytest.raises(EngineError, match="no value fed for input 'x'"):
            g.forward({})
        with pytest.raises(EngineError,
                           match="no value fed for input 'target'"):
            g.forward({"x": np.ones((1, 1))})

    def test_nonfinite_overflow_names_op(self):
        g = Graph([Input("x"), MatMul(Parameter("w", np.full((1, 1), 1e200)),
                                      "proj")])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError,
                                                       match="proj"):
            g.forward({"x": np.full((1, 1), 1e200)})

    def test_nonfinite_parameter_rejected_when_created(self):
        with pytest.raises(NonFiniteError, match="'w'"):
            Parameter("w", np.array([[1.0, np.nan]]))

    def test_nonfinite_state_rejected_when_loaded(self):
        w = Parameter("w", np.ones((1, 2)))
        g = Graph([MatMul(w)])
        with pytest.raises(NonFiniteError, match="'w'"):
            g.load_state({"w": np.array([[np.inf, 0.0]])})
        assert np.array_equal(w.array, np.ones((1, 2)))

    @pytest.mark.parametrize("size", [4, 1 << 20])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_finite_values_whose_sum_is_not_finite_pass(self, size, mixed):
        data = np.full((1, size), 1e308)
        if mixed:
            data[0, size // 2:] = -1e308
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(data, axis=None)
        assert np.isnan(total) if mixed and size > 4 else np.isinf(total)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the check itself stays quiet
            assert engine.all_finite(data)
            w = Parameter("w", data)
            Graph([MatMul(w)]).load_state({"w": data})
            value = Graph([Input("x")]).forward({"x": data})
            assert np.array_equal(value, data)
            adam = Adam([w])
            w.grad = data
            with np.errstate(over="ignore"):  # the update's (1-b2)*g*g
                adam.step()
        assert adam.state.step == 1

    @pytest.mark.parametrize("size", [12, 1 << 20])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_nonfinite_entry_is_caught_everywhere(self, size, bad):
        data = np.ones((4, size // 4))
        data[1, 2] = bad
        assert not engine.all_finite(data)
        with pytest.raises(NonFiniteError, match="'x'"):
            Graph([Input("x"), Relu()]).forward({"x": data})
        with pytest.raises(NonFiniteError, match="'w'"):
            Parameter("w", data)
        g = Graph([MatMul(Parameter("v", np.ones(data.shape)))])
        with pytest.raises(NonFiniteError, match="'v'"):
            g.load_state({"v": data})
        theta = Parameter("theta", np.ones(data.shape))
        adam = Adam([theta])
        theta.grad = data
        with pytest.raises(NonFiniteError, match="'theta'"):
            adam.step()

    def test_parameter_written_by_hand_caught_by_its_reader(self):
        w = Parameter("w", np.ones((2, 1)))
        g = Graph([Input("x"), MatMul(w, "proj")])
        w.array[1, 0] = np.nan
        with pytest.raises(NonFiniteError, match="proj"):
            g.forward({"x": np.ones((3, 2))})

    def test_backward_before_forward(self):
        g = Graph([Input("x"), MatMul(Parameter("w", np.ones((1, 1)))),
                   WeightedMse()])
        with pytest.raises(EngineError, match="before forward"):
            g.backward()

    def test_determinism_under_seed(self):
        def run():
            g = Graph([Input("x"), Relu(), Dropout(0.3)])
            return g.forward({"x": np.arange(12.0).reshape(3, 4)},
                             rng=np.random.default_rng(11))
        assert np.array_equal(run(), run())


def dense_chain(batch_norm=True, rate=0.3):
    """x -> matmul -> add_bias -> batch norm -> relu -> dropout -> matmul ->
    add_bias, with moved running statistics: (graph, feeds, layers by name).
    Without ``batch_norm`` the add_bias feeds the relu; its parameters and
    statistics are drawn either way, so the rest of the chain is the same."""
    rng = np.random.default_rng(12)
    w0 = Parameter("w0", rng.standard_normal((4, 6)))
    b0 = Parameter("b0", rng.standard_normal(6))
    gamma = Parameter("gamma", rng.standard_normal(6))
    beta = Parameter("beta", rng.standard_normal(6))
    w1 = Parameter("w1", rng.standard_normal((6, 2)))
    b1 = Parameter("b1", rng.standard_normal(2))
    layers = [Input("x"), MatMul(w0, "mm0"), AddBias(b0, "ab0")]
    if batch_norm:
        layers.append(BatchNorm(gamma, beta, "bn"))
    layers += [Relu("act"), Dropout(rate, "drop"), MatMul(w1, "mm1"),
               AddBias(b1, "out")]
    g = Graph(layers)
    n = {layer.name: layer for layer in g.layers}
    mean, var = rng.standard_normal(6), rng.random(6) + 0.5
    if batch_norm:
        n["bn"].running_mean, n["bn"].running_var = mean, var
    return g, {"x": rng.standard_normal((5, 4))}, n


def train_forward(g, feeds):
    """A training forward with a fixed dropout stream."""
    return g.forward(feeds, rng=np.random.default_rng(0))


def after(g, name) -> int:
    """The position after the layer ``name``: where a pass given its value
    starts."""
    return next(i for i, layer in enumerate(g.layers) if layer.name == name) + 1


class TestPlannedExecution:
    """The inference pass over a fixed stack: buffers, state and checks."""

    def test_infer_writes_only_dead_buffers_of_its_own_pass(self):
        g, feeds, n = dense_chain()
        seen = recorded_values(g)
        out = g.infer(feeds)
        # matmul -> add_bias -> batch norm -> relu share one buffer; the
        # dropout aliases it; the output add_bias reuses its matmul's
        assert seen["ab0"] is seen["mm0"] is seen["bn"] is seen["act"]
        assert seen["drop"] is seen["act"]
        assert seen["out"] is seen["mm1"] is out
        assert not np.shares_memory(seen["x"], seen["mm0"])
        out = out.copy()
        assert g.infer(feeds).tobytes() == out.tobytes()
        # a pass that ends at the batch norm returns its buffer
        bn = g.infer(feeds, stop=after(g, "bn"))
        assert bn is seen["bn"] is seen["mm0"]

    def test_infer_in_place_equals_a_forward_without_batch_norm_or_dropout(
            self):
        # with neither, a training forward runs infer's arithmetic out of
        # place; batch norm's own bytes are the numpy formula test's
        g, feeds, n = dense_chain(batch_norm=False, rate=0.0)
        reference = g.forward(feeds).copy()
        seen = recorded_values(g)
        out = g.infer(feeds)
        assert seen["ab0"] is seen["mm0"] is seen["act"]
        assert out.tobytes() == reference.tobytes()

    def test_infer_leaves_no_value_but_the_parameters(self):
        g, feeds, n = dense_chain()
        train_forward(g, feeds)  # state infer must drop
        x = feeds["x"].copy()
        out = g.infer(feeds)
        assert held_state(g) == []
        assert feeds["x"].tobytes() == x.tobytes()
        assert g.infer(feeds).tobytes() == out.tobytes()

    def test_infer_with_a_given_value_leaves_it_unwritten(self):
        g, feeds, n = dense_chain()
        value = g.infer(feeds, stop=after(g, "bn"))
        kept = value.copy()
        out = g.infer({}, value, after(g, "bn"))
        assert held_state(g) == []
        assert value.tobytes() == kept.tobytes()
        assert out.tobytes() == g.infer(feeds).tobytes()

    def test_an_infer_that_raises_leaves_no_value(self):
        g, feeds, n = dense_chain()
        train_forward(g, feeds)
        n["out"].params[0].array[1] = np.nan
        with pytest.raises(NonFiniteError, match="'out'"):
            g.infer(feeds)
        assert held_state(g) == []
        value = np.full((5, 6), np.inf)
        with pytest.raises(NonFiniteError, match="'bn'"):
            g.infer({}, value, after(g, "bn"))
        assert held_state(g) == [] and np.isinf(value).all()

    def test_a_forward_keeps_what_its_backward_reads(self):
        g, feeds, n = dense_chain()
        g.infer(feeds)
        train_forward(g, feeds)
        assert held_state(g) == ["mm0", "bn", "act", "drop", "mm1"]
        assert n["mm1"].saved.shape == (5, 6)

    def test_a_tiles_dict_tiles_each_vector_once(self, monkeypatch):
        g, _, n = dense_chain()
        monkeypatch.setattr(engine, "_INFER_BLOCK", 12)  # two rows of six
        feeds = {"x": np.random.default_rng(5).standard_normal((7, 4))}
        want = g.infer(feeds).copy()
        tiled = []
        real_repeat = np.repeat

        def repeat(a, *args, **kwargs):
            tiled.append(np.shape(a))
            return real_repeat(a, *args, **kwargs)

        monkeypatch.setattr(np, "repeat", repeat)
        tiles = {}
        for _ in range(3):
            assert g.infer(feeds, tiles=tiles).tobytes() == want.tobytes()
        # the bias and batch norm's four vectors, each once
        assert tiled == [(1, 6)] * 5 and len(tiles) == 3
        assert all(tile.shape == (2, 6) for key in tiles
                   for tile in tiles[key])

    @pytest.mark.parametrize("mode, checked", [
        ("infer", ["x", "mm0", "ab0", "bn", "mm1", "out"]),
        ("train", ["x", "mm0", "ab0", "bn", "drop", "mm1", "out"]),
    ])
    def test_relu_and_identity_dropout_checks_are_implied(self, mode, checked,
                                                          monkeypatch):
        g, feeds, n = dense_chain()
        values = recorded_values(g)
        values["x"] = feeds["x"]  # checked as it is read, before it returns
        seen = []

        def spy(a, original=engine.all_finite):
            # the latest layer holding the array; later ones have not run
            seen.append([name for name, value in values.items()
                         if value is a][-1])
            return original(a)

        monkeypatch.setattr(engine, "all_finite", spy)
        if mode == "infer":
            g.infer(feeds)
        else:
            train_forward(g, feeds)
        assert seen == checked


class TestGradientChecks:
    def _two_layer_net(self, rng, n=5, d_in=4, hidden=6, use_bn=True,
                       dropout=0.0):
        layers = [Input("x"),
                  MatMul(Parameter("w1", rng.standard_normal((d_in, hidden))
                                   * 0.7)),
                  AddBias(Parameter("b1", rng.standard_normal(hidden) * 0.1))]
        if use_bn:
            layers.append(BatchNorm(
                Parameter("gamma", 1.0 + 0.1 * rng.standard_normal(hidden)),
                Parameter("beta", 0.1 * rng.standard_normal(hidden))))
        layers.append(Relu())
        if dropout:
            layers.append(Dropout(dropout))
        layers += [MatMul(Parameter("w2", rng.standard_normal((hidden, 2))
                                    * 0.7)),
                   AddBias(Parameter("b2", rng.standard_normal(2) * 0.1)),
                   WeightedMse()]
        feeds = {"x": rng.standard_normal((n, d_in)),
                 "target": rng.standard_normal((n, 2)),
                 "weight": (rng.random((n, 2)) > 0.3).astype(float)}
        return Graph(layers), feeds

    @pytest.mark.parametrize("seed", range(8))
    def test_two_layer_net_all_parameters(self, seed):
        rng = np.random.default_rng(seed)
        g, feeds = self._two_layer_net(rng)
        for param in g.parameters():
            check_param_gradient(g, feeds, param, rng)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_with_dropout_frozen_rng(self, seed):
        rng = np.random.default_rng(100 + seed)
        g, feeds = self._two_layer_net(rng, use_bn=False, dropout=0.4)
        for param in g.parameters():
            check_param_gradient(g, feeds, param, rng, rng_seed=seed)

    @pytest.mark.parametrize("make", [
        lambda rng: MatMul(Parameter("w", rng.standard_normal((4, 3)))),
        lambda rng: AddBias(Parameter("b", rng.standard_normal(4))),
        lambda rng: Relu(),
        lambda rng: Dropout(0.4),
        lambda rng: WeightedMse(),
    ], ids=["matmul", "add_bias", "relu", "dropout", "weighted_mse"])
    def test_gradient_wrt_inputs(self, make):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((6, 4))
        x[np.abs(x) < 1e-3] = 0.5  # away from the ReLU's kink
        feeds = {"target": rng.standard_normal((6, 4)),
                 "weight": (rng.random((6, 4)) > 0.3).astype(float)}
        check_layer_gradients(make(rng), x, rng, feeds, rng_seed=3)


class TestBackward:
    def test_the_first_layer_with_parameters_forms_no_input_gradient(
            self, monkeypatch):
        rng = np.random.default_rng(0)
        g = Graph([Input("x"), Relu(),
                   MatMul(Parameter("w", rng.standard_normal((3, 2))), "mm0"),
                   MatMul(Parameter("v", rng.standard_normal((2, 2))), "mm1"),
                   WeightedMse("loss")])
        asked = []
        for layer in g.layers:
            def backprop(grad, need_input, layer=layer,
                         original=layer.backprop):
                asked.append((layer.name, need_input))
                return original(grad, need_input)
            layer.backprop = backprop
        g.forward({"x": rng.standard_normal((4, 3)),
                   "target": rng.standard_normal((4, 2)),
                   "weight": np.ones((4, 2))})
        g.backward()
        assert asked == [("loss", True), ("mm1", True), ("mm0", False)]

    def test_backward_replaces_every_gradient(self):
        rng = np.random.default_rng(1)
        w, b = (Parameter("w", rng.standard_normal((3, 2))),
                Parameter("b", rng.standard_normal(2)))
        g = Graph([Input("x"), MatMul(w), AddBias(b), WeightedMse()])
        feeds = {"x": rng.standard_normal((4, 3)),
                 "target": rng.standard_normal((4, 2)),
                 "weight": np.ones((4, 2))}
        g.forward(feeds)
        w.grad = b.grad = "stale"
        g.backward()
        dz = 2.0 * (feeds["x"] @ w.array + b.array - feeds["target"]) / 8.0
        assert np.allclose(w.grad, feeds["x"].T @ dz)
        assert np.allclose(b.grad, dz.sum(axis=0))
        g.zero_grad()
        assert w.grad is None and b.grad is None


class TestIndexedDense:
    """``sum_k (T_k @ W[rows_k])[index_k]`` against its concat reference."""

    def _net(self, rng, widths, n=7):
        blocks, feeds = [], {}
        for k, width in enumerate(widths):
            blocks.append((f"t{k}", f"i{k}"))
            rows = 3 + k  # fewer rows than pairs: indices repeat
            feeds[f"t{k}"] = rng.standard_normal((rows, width))
            feeds[f"i{k}"] = rng.integers(0, rows, size=n)
        w = Parameter("W", rng.standard_normal((sum(widths), 4)) * 0.5)
        b = Parameter("b", rng.standard_normal(4) * 0.1)
        first = IndexedDense(blocks, w, "first")
        g = Graph([first, AddBias(b, "b"), WeightedMse()])
        feeds["target"] = rng.standard_normal((n, 4))
        feeds["weight"] = np.ones((n, 4))
        return g, feeds, first

    @pytest.mark.parametrize("widths", [(5,), (5, 3)])
    def test_forward_matches_concat_then_matmul(self, widths):
        rng = np.random.default_rng(1)
        g, feeds, first = self._net(rng, widths)
        value = first.compute(None, context(feeds))
        joined = np.concatenate([feeds[f"t{k}"][feeds[f"i{k}"]]
                                 for k in range(len(widths))], axis=1)
        reference = joined @ first.params[0].array
        assert np.max(np.abs(value - reference)) <= \
            1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("widths", [(5,), (5, 3)])
    def test_gradients_against_central_differences(self, widths):
        rng = np.random.default_rng(len(widths))
        g, feeds, first = self._net(rng, widths)
        for param in g.parameters():
            check_param_gradient(g, feeds, param, rng)
        # as the stack's first layer, it forms no gradient of its tables
        g.forward(feeds)
        assert first.backprop(np.ones((7, 4)), False) is None
        # a table that is the previous layer's value gets one
        later = IndexedDense([(None, "i0"), *first.blocks[1:]],
                             first.params[0], "later")
        check_layer_gradients(later, feeds["t0"], rng, feeds)

    @pytest.mark.parametrize("change, message", [
        ({"i0": np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0])}, "integer"),
        ({"i0": np.zeros((7, 1), dtype=np.int64)}, "1-d"),
        ({"i0": np.array([0, 1, 2, 0, 1, 2, -1])}, "range"),
        ({"i1": np.array([0, 1, 2, 3, 0, 1, 4])}, "range"),
        ({"i1": np.array([0, 1, 2])}, "differ in length"),
        ({"t1": np.ones((4, 2))}, "do not sum"),
    ])
    def test_shape_errors_name_the_node(self, change, message):
        g, feeds, _ = self._net(np.random.default_rng(0), (5, 3))
        feeds.update(change)
        with pytest.raises(ShapeError, match=f"first.*{message}"):
            g.forward(feeds)

    def test_a_non_finite_table_is_named_as_an_input(self):
        g, feeds, _ = self._net(np.random.default_rng(0), (5, 3))
        feeds["t1"][2, 1] = np.nan
        with pytest.raises(NonFiniteError, match="'t1' \\(input\\)"):
            g.forward(feeds)

    def _given(self, widths=(5, 3)):
        """The net, its feeds, its ``IndexedDense`` layer, and that layer's
        value for the feeds as a caller forms it: ``project`` per block,
        then a gather-add."""
        g, feeds, first = self._net(np.random.default_rng(4), widths)
        value = first.project(feeds["t0"], 0)[feeds["i0"]]
        for k in range(1, len(widths)):
            value += first.project(feeds[f"t{k}"],
                                   sum(widths[:k]))[feeds[f"i{k}"]]
        return g, feeds, first, value

    @pytest.mark.parametrize("widths", [(5,), (5, 3)])
    def test_given_first_layer_equals_forward_skips_inputs(self, widths):
        g, feeds, first, value = self._given(widths)
        reference = g.forward(feeds)
        rest = {name: feeds[name] for name in ("target", "weight")}
        # the tables and indices are not fed: the first layer does not run
        assert g.infer(rest, value, 1) == reference

    def test_backward_needs_a_forward_without_given_values(self):
        g, feeds, first, value = self._given()
        g.infer(feeds, value, 1)
        with pytest.raises(EngineError, match="before forward"):
            g.backward()
        g.forward(feeds)
        g.backward()

    def test_given_values_are_checked_for_finiteness(self):
        g, feeds, first, value = self._given()
        value[0, 0] = np.inf
        with pytest.raises(NonFiniteError, match="'first'"):
            g.infer(feeds, value, 1)

    @pytest.mark.parametrize("widths", [(5,), (5, 3)])
    def test_a_given_gather_add_is_its_formed_value(self, widths):
        g, feeds, first, value = self._given(widths)
        tables = tuple(first.project(feeds[f"t{k}"], sum(widths[:k]))
                       for k in range(len(widths)))
        record = GatherAdd(tables, tuple(feeds[f"i{k}"]
                                         for k in range(len(widths))))
        assert record.form().tobytes() == value.tobytes()
        assert g.infer(feeds, record, 1) == g.infer(feeds, value, 1)

    @pytest.mark.parametrize("change, message", [
        (lambda t, i: (t, (i[0] + 100, i[1])), "given index 0 leaves the "
                                               "range of its"),
        (lambda t, i: (t, (i[0], i[1][:-1])), "indices differ in length"),
        (lambda t, i: (t, i[:1]), "one index each"),
        (lambda t, i: ((t[0], t[1][:, :2]), i), "2-d tables of one width"),
    ])
    def test_a_given_gather_add_is_checked(self, change, message):
        g, feeds, first, _value = self._given()
        tables = (first.project(feeds["t0"], 0), first.project(feeds["t1"], 5))
        record = GatherAdd(*change(tables, (feeds["i0"], feeds["i1"])))
        with pytest.raises(ShapeError, match=f"first.*{message}"):
            g.infer(feeds, record, 1)


def textbook_adam(theta, m, v, g, t, lr, b1, b2, eps):
    """Kingma & Ba, Algorithm 1, written as plain array expressions."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdam:
    @pytest.mark.parametrize("shape", [(129, 7), (300, 3), (257, 2, 2),
                                       (11,), (1, 1), ()])
    def test_bitwise_equal_to_textbook_rule(self, shape):
        rng = np.random.default_rng(len(shape) * 1000 + sum(shape))
        lr, b1, b2, eps = 3e-3, 0.8, 0.99, 1e-7
        start = rng.standard_normal(shape)
        p = Parameter("theta", start)
        other = Parameter("other", rng.standard_normal((130, 5)))
        adam = Adam([other, p], learning_rate=lr, beta1=b1, beta2=b2, eps=eps)
        theta, m, v = start.copy(), np.zeros(shape), np.zeros(shape)
        for t in range(1, 7):
            g = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 2)
            if g.ndim == 2 and t % 2:
                g[::3] = 0.0  # rows without gradient
            p.grad = g
            other.grad = rng.standard_normal((130, 5))
            adam.step()
            theta, m, v = textbook_adam(theta, m, v, g, t, lr, b1, b2, eps)
            assert np.array_equal(p.array, theta)
            assert np.array_equal(adam.state.m["theta"], m)
            assert np.array_equal(adam.state.v["theta"], v)

    def test_nonfinite_gradient_writes_nothing(self):
        rng = np.random.default_rng(9)
        first = Parameter("first", rng.standard_normal((200, 3)))
        second = Parameter("second", rng.standard_normal(4))
        adam = Adam([first, second])
        first.grad = rng.standard_normal((200, 3))
        second.grad = rng.standard_normal(4)
        adam.step()
        before = ([first.array.copy(), second.array.copy()],
                  moment_copies(adam), adam.state.step)
        first.grad = rng.standard_normal((200, 3))
        second.grad = np.array([0.0, np.inf, 1.0, 2.0])
        with pytest.raises(NonFiniteError, match="second"):
            adam.step()
        assert np.array_equal(first.array, before[0][0])
        assert np.array_equal(second.array, before[0][1])
        after = moment_copies(adam)
        assert after.keys() == before[1].keys()
        assert all(np.array_equal(after[k], before[1][k]) for k in after)
        assert adam.state.step == before[2]

    def test_gradient_shape_must_match(self):
        p = Parameter("theta", np.zeros((3, 2)))
        adam = Adam([p])
        p.grad = np.zeros((2, 3))
        with pytest.raises(ShapeError, match="theta"):
            adam.step()

    def test_first_step_magnitude_is_learning_rate(self):
        p = Parameter("theta", np.array([0.0]))
        adam = Adam([p], learning_rate=1e-3)
        p.grad = np.array([0.37])
        adam.step()
        # bias correction cancels at t=1, update = lr * g / (|g| + eps)
        assert abs(abs(p.array[0]) - 1e-3) < 1e-6

    def test_zero_gradient_no_motion(self):
        p = Parameter("theta", np.array([1.0, -2.0]))
        adam = Adam([p])
        p.grad = np.zeros(2)
        adam.step()
        assert np.array_equal(p.array, np.array([1.0, -2.0]))
        assert np.all(adam.state.m["theta"] == 0.0)
        assert np.all(adam.state.v["theta"] == 0.0)

    def test_quadratic_convergence_against_recurrence(self):
        # independent oracle: the same recurrence in plain Python floats
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        theta_oracle, m, v = 0.0, 0.0, 0.0
        for t in range(1, 101):
            grad = 2.0 * (theta_oracle - 3.0)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta_oracle -= lr * m_hat / (v_hat ** 0.5 + eps)

        p = Parameter("theta", np.array([0.0]))
        adam = Adam([p], learning_rate=lr, beta1=b1, beta2=b2, eps=eps)
        for _ in range(100):
            p.grad = 2.0 * (p.array - 3.0)
            adam.step()
        assert abs(p.array[0] - theta_oracle) < 1e-12
        assert abs(p.array[0] - 3.0) < 0.1

    def test_nonfinite_gradient_raises(self):
        p = Parameter("theta", np.array([0.0]))
        adam = Adam([p])
        p.grad = np.array([np.nan])
        with pytest.raises(NonFiniteError, match="theta"):
            adam.step()


def sparse_net(rng, widths, out_width, n=40, distinct=(9, 6)):
    """An ``IndexedDense`` -> loss net whose tables have zero columns."""
    blocks, feeds = [], {}
    for k, width in enumerate(widths):
        blocks.append((f"t{k}", f"i{k}"))
        feeds[f"t{k}"] = (rng.random((distinct[k], width)) < 0.02).astype(float)
        feeds[f"i{k}"] = rng.integers(0, distinct[k], size=n)
    w = Parameter("W", rng.standard_normal((sum(widths), out_width)) * 0.1)
    w_out = Parameter("w_out", rng.standard_normal((out_width, 1)))
    g = Graph([IndexedDense(blocks, w, "first"), Relu(), MatMul(w_out),
               WeightedMse()])
    feeds["target"] = rng.standard_normal((n, 1))
    feeds["weight"] = np.ones((n, 1))
    return g, feeds, w


def set_columns(feeds, n_blocks):
    return [feeds[f"t{k}"].any(axis=0) for k in range(n_blocks)]


class TestRowSelection:
    def test_blocks_stay_whole_below_a_quarter_inactive(self):
        whole = np.ones(8, dtype=bool)
        whole[[0, 5]] = False  # 2 of 8 inactive (exactly a quarter): compacted
        nearly = np.ones(9, dtype=bool)
        nearly[4] = False  # 1 of 9 inactive: whole
        selection = RowSelection([whole, nearly, np.zeros(3, dtype=bool)])
        assert selection.widths == (8, 9, 3)
        assert selection.n_rows == 6 + 9 + 0
        (c0, cols0, rows0), (c1, cols1, rows1), (c2, cols2, rows2) = \
            selection.blocks
        assert (c0, c1, c2) == (slice(0, 6), slice(6, 15), slice(15, 15))
        assert cols0.tolist() == [1, 2, 3, 4, 6, 7]
        assert rows0.tolist() == [1, 2, 3, 4, 6, 7]
        assert cols1 is None and rows1 == slice(8, 17)
        assert cols2.size == 0 and rows2.size == 0

    @pytest.mark.parametrize("widths, out_width", [((600, 900), 64),
                                                    ((300, 2000), 256)])
    def test_compact_backward_rows_equal_the_full_rows(self, widths,
                                                       out_width):
        g, feeds, w = sparse_net(np.random.default_rng(out_width),
                                       widths, out_width)
        g.forward(feeds)
        g.backward()
        full = w.grad
        selection = RowSelection(set_columns(feeds, len(widths)))
        assert all(columns is not None for _, columns, _ in selection.blocks)
        w.row_selection = selection
        g.backward()
        compact = np.asarray(w.grad)
        assert compact.shape == (selection.n_rows, out_width)
        kept = np.zeros(w.array.shape[0], dtype=bool)
        for compact_rows, _, rows in selection.blocks:
            assert np.array_equal(compact[compact_rows], full[rows])
            kept[rows] = True
        assert not full[~kept].any()
        w.row_selection = None
        g.backward()
        assert np.array_equal(w.grad, full)

    @pytest.mark.parametrize("n_active", [1, 2, 3])
    def test_a_block_of_few_active_columns_fits_like_every_row(self,
                                                               n_active):
        # A block compacted to 1..3 columns would form its gradient as a
        # product of 1..3 rows, which can round unlike the same rows of the
        # full product (here over 512 distinct table rows): it stays whole.
        fits = []
        for selected in (False, True):
            rng = np.random.default_rng(80 + n_active)
            blocks, feeds = [], {}
            for k, (width, n_kept) in enumerate(((40, n_active), (24, 24))):
                blocks.append((f"t{k}", f"i{k}"))
                table = np.zeros((512, width))
                table[:, rng.permutation(width)[:n_kept]] = \
                    rng.standard_normal((512, n_kept))
                feeds[f"t{k}"] = table
                feeds[f"i{k}"] = rng.permutation(1024) % 512
            w = Parameter("W", rng.standard_normal((64, 64)) * 0.1)
            g = Graph([IndexedDense(blocks, w), Relu(),
                       MatMul(Parameter("w_out", rng.standard_normal(
                           (64, 1)))), WeightedMse()])
            feeds["target"] = rng.standard_normal((1024, 1))
            feeds["weight"] = np.ones((1024, 1))
            if selected:
                w.row_selection = RowSelection(set_columns(feeds, 2))
                assert [columns is None for _, columns, _
                        in w.row_selection.blocks] == [True, True]
            adam = Adam(g.parameters())
            for _ in range(3):
                g.forward(feeds)
                g.backward()
                adam.step()
            fits.append(w.array.tobytes())
        assert fits[0] == fits[1]

    def test_selection_must_cover_the_tables(self):
        g, feeds, w = sparse_net(np.random.default_rng(0), (20, 30), 4)
        w.row_selection = RowSelection([np.ones(30, dtype=bool),
                                        np.ones(20, dtype=bool)])
        g.forward(feeds)
        with pytest.raises(ShapeError, match="first.*row selection"):
            g.backward()

    def test_adam_on_selected_rows_equals_adam_on_every_row(self):
        # Two weights start equal: one trains every row, one the selection.
        # Unselected rows get zero gradients, as in a fit; a selected row
        # also sees zero gradients at some steps.
        rng = np.random.default_rng(5)
        widths = (300, 100, 140)
        masks = [rng.random(300) < 0.3, rng.random(100) < 0.9,
                 np.ones(140, dtype=bool)]
        start = rng.standard_normal((540, 3))
        full = Parameter("w", start)
        part = Parameter("w", start)
        part.row_selection = selection = RowSelection(masks)
        kept = np.concatenate(masks)
        assert [c is None for _, c, _ in selection.blocks] == \
            [False, True, True]
        adam_full, adam_part = Adam([full]), Adam([part])
        for t in range(5):
            g = rng.standard_normal((540, 3)) * kept[:, None]
            g[rng.random(540) < 0.3] = 0.0
            full.grad = g
            part.grad = np.concatenate(
                [g[rows] for _, _, rows in selection.blocks])
            adam_full.step()
            adam_part.step()
            assert np.array_equal(full.array, part.array)
        assert adam_part.state.m["w"].shape == (selection.n_rows, 3)
        # each compact moment is the full optimizer's moment on the selected
        # rows, and +0 on the inactive rows of a whole block; the full
        # moment is +0 on every inactive row, so dropping them loses nothing
        inactive = compact(part, np.repeat(~kept[:, None], 3, axis=1))
        assert inactive.any()
        for kind in ("m", "v"):
            moment = getattr(adam_part.state, kind)["w"]
            full_moment = getattr(adam_full.state, kind)["w"]
            assert np.array_equal(moment, compact(part, full_moment))
            assert_positive_zero(moment[inactive])
            assert_positive_zero(full_moment[~kept])
        part.grad = np.zeros((540, 3))  # a full-shape gradient is refused
        with pytest.raises(ShapeError, match="'w'"):
            adam_part.step()

    def test_64_wide_selection_in_entry_sized_blocks_equals_textbook(
            self, monkeypatch):
        # A 64-wide weight is updated _ADAM_CHUNK // 64 = 512 rows at a
        # time: the compacted block's 700 kept rows and the whole block's
        # 1000 rows take two updates each.
        rng = np.random.default_rng(47)
        lr, b1, b2, eps = 2e-3, 0.85, 0.995, 1e-7
        first = np.zeros(2400, dtype=bool)
        first[rng.permutation(2400)[:700]] = True
        masks = [first, np.ones(1000, dtype=bool)]
        start = rng.standard_normal((3400, 64))
        w = Parameter("w", start)
        w.row_selection = selection = RowSelection(masks)
        assert [c is None for _, c, _ in selection.blocks] == [False, True]
        kept = np.concatenate(masks)
        updated = []
        real_update = Adam._update

        def counting(self, theta, rows, g, *rest):
            updated.append(g.shape[0])
            real_update(self, theta, rows, g, *rest)

        monkeypatch.setattr(Adam, "_update", counting)
        adam = Adam([w], learning_rate=lr, beta1=b1, beta2=b2, eps=eps)
        theta, m, v = start.copy(), np.zeros(start.shape), np.zeros(start.shape)
        for t in range(1, 6):
            g = rng.standard_normal(start.shape) * kept[:, None]
            g[rng.random(3400) < 0.2] = 0.0  # selected rows without gradient
            w.grad = compact(w, g)
            updated.clear()
            adam.step()
            assert updated == [512, 188, 512, 488]
            theta, m, v = textbook_adam(theta, m, v, g, t, lr, b1, b2, eps)
            assert np.array_equal(w.array, theta)
        assert np.array_equal(adam.state.m["w"], compact(w, m))
        assert np.array_equal(adam.state.v["w"], compact(w, v))
        assert_positive_zero(m[~kept])
        assert_positive_zero(v[~kept])

    def test_a_row_zero_in_one_batch_still_moves(self):
        # The selection holds the fit's columns, not the batch's: a row whose
        # column one batch leaves at zero has non-zero moments from an
        # earlier batch, so Adam moves it at that step as the full path does.
        nets = [sparse_net(np.random.default_rng(3), (50, 40), 8, n=12,
                           distinct=(4, 3)) for _ in range(2)]
        first = nets[0][1]
        second = {k: v.copy() for k, v in first.items()}
        column = int(np.flatnonzero(first["t0"].any(axis=0))[0])
        second["t0"][:, column] = 0.0
        fit_columns = [a | b for a, b in zip(set_columns(first, 2),
                                             set_columns(second, 2))]
        nets[1][2].row_selection = selection = RowSelection(fit_columns)
        assert selection.blocks[0][1] is not None  # the block is compacted
        after = []
        for g, _, w in nets:
            adam = Adam(g.parameters())
            states = []
            for batch in (first, second):
                g.forward(batch)
                g.backward()
                adam.step()
                states.append(w.array.copy())
            after.append(states)
        assert not nets[0][2].grad[column].any()  # no gradient in batch two
        (full1, full2), (part1, part2) = after
        assert not np.array_equal(part1[column], part2[column])
        assert np.array_equal(part1, full1)
        assert np.array_equal(part2, full2)


def two_block_net(rng, out_width, distinct):
    """An ``IndexedDense`` net over a table whose selection is compacted
    and one kept whole, each spanning several Adam blocks of rows; the
    compacted block's last Adam block holds a single row."""
    block = engine._ADAM_CHUNK // out_width
    active = np.zeros(4 * block + 10, dtype=bool)
    active[rng.permutation(active.size)[:2 * block + 1]] = True
    masks = [active, np.ones(2 * block + 37, dtype=bool)]
    blocks, feeds = [], {}
    n = 2 * distinct + 3
    for k, mask in enumerate(masks):
        blocks.append((f"t{k}", f"i{k}"))
        feeds[f"t{k}"] = rng.standard_normal((distinct, mask.size)) * mask
        feeds[f"i{k}"] = rng.integers(0, distinct, size=n)
    w = Parameter("W", rng.standard_normal((sum(m.size for m in masks),
                                            out_width)) * 0.05)
    w_out = Parameter("w_out", rng.standard_normal((out_width, 1)))
    g = Graph([IndexedDense(blocks, w, "first"), Relu(), MatMul(w_out),
               WeightedMse()])
    feeds["target"] = rng.standard_normal((n, 1))
    feeds["weight"] = np.ones((n, 1))
    return g, feeds, w, RowSelection(masks)


class TestCompactGrad:
    """While the first-layer weight carries a row selection, its gradient
    is the factors of its product, formed whole by ``np.asarray`` and per
    row block by ``Adam.step``, with the bytes of a backward over every
    row."""

    @pytest.mark.parametrize("distinct", [1, 2, 3, 31, 32, 33, 257])
    @pytest.mark.parametrize("out_width", [16, 64, 256])
    def test_formed_rows_equal_the_full_rows(self, out_width, distinct,
                                             monkeypatch):
        rng = np.random.default_rng(out_width * 1000 + distinct)
        g, feeds, w, selection = two_block_net(rng, out_width, distinct)
        assert [c is None for _, c, _ in selection.blocks] == [False, True]
        g.forward(feeds)
        g.backward()
        full = w.grad
        assert isinstance(full, np.ndarray)
        w.row_selection = selection
        adam = Adam([w])
        g.backward()
        grad = w.grad
        assert isinstance(grad, CompactGrad)
        assert grad.shape == (selection.n_rows, out_width)
        whole = np.asarray(grad)
        for compact, _, rows in selection.blocks:
            assert np.array_equal(whole[compact], full[rows])
        assert np.array_equal(grad.any(axis=1), whole.any(axis=1))
        # each block Adam forms is the same rows of the full gradient
        seen = []
        real_update = Adam._update

        def checking(self, theta, rows, block, *rest):
            assert np.array_equal(block, full[rows])
            seen.append(np.arange(theta.shape[0])[rows])
            real_update(self, theta, rows, block, *rest)

        monkeypatch.setattr(Adam, "_update", checking)
        adam.step()
        block = engine._ADAM_CHUNK // out_width
        assert [len(rows) for rows in seen] == [block, block, 1,
                                                block, block, 37]
        kept = np.concatenate([np.arange(w.array.shape[0])[rows]
                               for _, _, rows in selection.blocks])
        assert np.array_equal(np.concatenate(seen), kept)

    def test_bad_factors_raise_and_write_nothing(self, monkeypatch):
        rng = np.random.default_rng(61)
        g, feeds, w, selection = two_block_net(rng, 16, 5)
        w.row_selection = selection
        adam = Adam(g.parameters())
        g.forward(feeds)
        g.backward()
        adam.step()
        params = g.parameters()
        before = ([p.array.copy() for p in params], moment_copies(adam),
                  adam.state.step)

        def assert_unchanged():
            for p, old in zip(params, before[0]):
                assert np.array_equal(p.array, old), p.name
            after = moment_copies(adam)
            for key in after:
                assert np.array_equal(after[key], before[1][key]), key
            assert adam.state.step == before[2]

        formed = []
        real_array = CompactGrad.__array__

        def counting(self, *args, **kwargs):
            formed.append(self)
            return real_array(self, *args, **kwargs)

        monkeypatch.setattr(CompactGrad, "__array__", counting)
        # a NaN in per_row; w_out, later in order, is bad too
        g.forward(feeds)
        g.backward()
        w.grad.blocks[1][2][0, 0] = np.nan
        next(p for p in params if p.name == "w_out").grad = np.full(
            (16, 1), np.nan)
        with pytest.raises(NonFiniteError,
                           match="^non-finite gradient for parameter 'W'$"):
            adam.step()
        assert_unchanged()
        # finite factors whose product overflows: the step forms the array
        # and finds the infinity there
        g.backward()
        blocks = [(compact, np.full(kept.shape, 1e200), np.full(
            per_row.shape, 1e200)) for compact, kept, per_row
            in w.grad.blocks]
        w.grad = CompactGrad(w.grad.shape, blocks)
        assert not w.grad.bounded()
        formed.clear()
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match="^non-finite gradient for parameter 'W'$"):
            adam.step()
        assert formed, "the overflow was not found in the formed array"
        assert_unchanged()

    def test_formed_path_updates_with_the_same_bytes(self, monkeypatch):
        # A CompactGrad the factors cannot bound is formed whole and read as
        # an array; the update is the block-by-block one, byte for byte.
        results = []
        for bound in (engine._FINITE_PRODUCT, 0.0):
            monkeypatch.setattr(engine, "_FINITE_PRODUCT", bound)
            rng = np.random.default_rng(67)
            g, feeds, w, selection = two_block_net(rng, 64, 33)
            w.row_selection = selection
            adam = Adam(g.parameters())
            for _ in range(3):
                g.forward(feeds)
                g.backward()
                assert w.grad.bounded() == (bound > 0.0)
                adam.step()
            results.append((w.array.copy(), moment_copies(adam)))
        (theta_a, moments_a), (theta_b, moments_b) = results
        assert np.array_equal(theta_a, theta_b)
        for key in moments_a:
            assert np.array_equal(moments_a[key], moments_b[key]), key


def mixed_parameters(rng):
    """Parameters of every rank around a row-selected weight; the flat part
    spans more than one chunk of the flat update."""
    shapes = {"scalar": (), "vector": (11,), "cube": (257, 2, 2),
              "selected": (200, 6), "wide": (300, 120)}
    params = [Parameter(name, rng.standard_normal(shape))
              for name, shape in shapes.items()]
    selected = params[3]
    selected.row_selection = RowSelection([rng.random(120) < 0.3,
                                           rng.random(80) < 0.95])
    assert [c is None for _, c, _ in selected.row_selection.blocks] == \
        [False, True]
    assert sum(p.array.size for p in params if p is not selected) > \
        engine._ADAM_CHUNK
    return params, selected


def compact(param, full_grad):
    """``full_grad`` in ``param``'s row-selection layout."""
    return np.concatenate([full_grad[rows] for _, _, rows
                           in param.row_selection.blocks])


def moment_copies(adam):
    """A copy of each of ``adam``'s moments, in its own layout."""
    return {(kind, name): moment.copy()
            for kind, moments in (("m", adam.state.m), ("v", adam.state.v))
            for name, moment in moments.items()}


def assert_positive_zero(values):
    assert not values.any() and not np.signbit(values).any()


class TestFlatAdam:
    """Parameters outside a row selection are views of one flat buffer, and
    one update over it is the textbook rule entry by entry."""

    def test_mixed_parameters_bitwise_equal_to_textbook_rule(self):
        rng = np.random.default_rng(41)
        lr, b1, b2, eps = 2e-3, 0.85, 0.995, 1e-7
        params, selected = mixed_parameters(rng)
        kept = np.zeros(200, dtype=bool)
        for _, _, rows in selected.row_selection.blocks:
            kept[rows] = True
        theta = {p.name: p.array.copy() for p in params}
        m = {p.name: np.zeros(p.array.shape) for p in params}
        v = {p.name: np.zeros(p.array.shape) for p in params}
        adam = Adam(params, learning_rate=lr, beta1=b1, beta2=b2, eps=eps)
        for t in range(1, 7):
            for p in params:
                g = rng.standard_normal(p.array.shape) * 10.0 ** rng.integers(-5, 2)
                if g.ndim >= 2:
                    g[rng.random(g.shape[0]) < 0.3] = 0.0  # rows without gradient
                if p is selected:
                    g[~kept] = 0.0
                    p.grad = compact(p, g)
                else:
                    p.grad = g
                theta[p.name], m[p.name], v[p.name] = textbook_adam(
                    theta[p.name], m[p.name], v[p.name], g, t, lr, b1, b2, eps)
            adam.step()
            for p in params:
                assert np.array_equal(p.array, theta[p.name]), p.name
                if p is not selected:
                    assert np.array_equal(adam.state.m[p.name], m[p.name])
                    assert np.array_equal(adam.state.v[p.name], v[p.name])
        assert np.array_equal(adam.state.m["selected"],
                              compact(selected, m["selected"]))
        assert np.array_equal(adam.state.v["selected"],
                              compact(selected, v["selected"]))
        assert_positive_zero(m["selected"][~kept])
        assert_positive_zero(v["selected"][~kept])

    def test_parameters_and_moments_are_views_of_the_buffer(self):
        rng = np.random.default_rng(43)
        w = Parameter("w", rng.standard_normal((4, 3)))
        b = Parameter("b", rng.standard_normal(3))
        scale = Parameter("scale", rng.standard_normal((3, 1)))
        g = Graph([Input("x"), MatMul(w), AddBias(b), MatMul(scale, "mm1")])
        g.forward({"x": np.ones((2, 4))})
        old = w.array
        adam = Adam(g.parameters())
        assert w.array is not old and np.array_equal(w.array, old)
        for p in g.parameters():
            assert np.shares_memory(p.array, adam.flat_theta)
            assert np.shares_memory(adam.state.m[p.name], adam.flat_m)
            assert np.shares_memory(adam.state.v[p.name], adam.flat_v)
        assert adam.flat_theta.size == 4 * 3 + 3 + 3
        views = [p.array for p in g.parameters()]
        loaded = {p.name: rng.standard_normal(p.array.shape)
                  for p in g.parameters()}
        g.load_state(loaded)
        assert all(p.array is view for p, view in zip(g.parameters(), views))
        assert np.array_equal(adam.flat_theta, np.concatenate(
            [loaded[p.name].ravel() for p in g.parameters()]))
        state = g.state_dict()
        assert state.keys() == loaded.keys()
        for name in state:
            assert np.array_equal(state[name], loaded[name])
            assert not np.shares_memory(state[name], adam.flat_theta)

    def test_a_second_adam_repacks_from_current_values(self):
        rng = np.random.default_rng(47)
        p = Parameter("p", rng.standard_normal((5, 2)))
        first = Adam([p])
        p.grad = rng.standard_normal((5, 2))
        first.step()
        moved = p.array.copy()
        second = Adam([p])
        assert np.array_equal(p.array, moved)
        assert np.shares_memory(p.array, second.flat_theta)
        assert not np.shares_memory(p.array, first.flat_theta)
        assert second.state.step == 0 and not second.flat_m.any()

    @pytest.mark.parametrize("bad, named", [
        (("wide",), "wide"),
        (("selected",), "selected"),
        (("wide", "vector"), "vector"),
        (("wide", "selected"), "selected"),
    ])
    def test_nonfinite_gradient_names_the_first_and_writes_nothing(
            self, bad, named):
        rng = np.random.default_rng(53)
        params, selected = mixed_parameters(rng)
        adam = Adam(params)

        def set_grads():
            for p in params:
                p.grad = rng.standard_normal(adam.state.m[p.name].shape)

        set_grads()
        adam.step()
        before = ([p.array.copy() for p in params], moment_copies(adam),
                  adam.state.step)
        set_grads()
        for name in bad:
            grad = next(p for p in params if p.name == name).grad
            grad.reshape(-1)[grad.size // 2] = np.nan
        with pytest.raises(NonFiniteError, match=f"'{named}'"):
            adam.step()
        for p, old in zip(params, before[0]):
            assert np.array_equal(p.array, old), p.name
        after = moment_copies(adam)
        assert after.keys() == before[1].keys()
        for key in after:
            assert np.array_equal(after[key], before[1][key]), key
        assert adam.state.step == before[2]
