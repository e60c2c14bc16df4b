"""Autodiff engine: op semantics, gradients vs central differences, Adam."""

import warnings

import numpy as np
import pytest

from conftest import (
    central_difference_directional,
    concat,
    held_values,
    relative_error,
)
from dtanet import engine
from dtanet.engine import (
    Adam,
    CompactGrad,
    EngineError,
    GatherAdd,
    Graph,
    NonFiniteError,
    Parameter,
    RowSelection,
    ShapeError,
)


def loss_only(graph, loss, feeds, rng_seed=None):
    def evaluate():
        rng = np.random.default_rng(rng_seed) if rng_seed is not None else None
        (value,) = graph.forward(feeds, [loss], rng=rng)
        return float(value)
    return evaluate


def check_param_gradient(graph, loss, feeds, param, rng, rng_seed=None,
                         tol=1e-4, h=1e-5):
    """Directional derivative against the analytic gradient."""
    evaluate = loss_only(graph, loss, feeds, rng_seed)
    evaluate()
    graph.backward(loss)
    direction = rng.standard_normal(param.array.shape)
    direction /= max(np.linalg.norm(direction), 1e-12)
    analytic = float((param.grad * direction).sum())
    graph.zero_grad()
    numeric = central_difference_directional(evaluate, param.array, direction, h)
    assert relative_error(analytic, numeric) < tol, \
        f"{param.name}: analytic {analytic} vs numeric {numeric}"


class TestOpSemantics:
    def test_relu_definition(self):
        g = Graph()
        x = g.placeholder("x")
        out = g.relu(x)
        (value,) = g.forward({"x": np.array([[-1.0, 0.0, 2.0]])}, [out])
        assert value.tolist() == [[0.0, 0.0, 2.0]]

    def test_matmul_identity(self):
        g = Graph()
        x = g.placeholder("x")
        eye = g.parameter("I", np.eye(3))
        out = g.matmul(x, eye)
        vec = np.array([[1.5, -2.0, 0.25]])
        (value,) = g.forward({"x": vec}, [out])
        assert np.array_equal(value, vec)

    def test_weighted_mse_masks_entries(self):
        g = Graph()
        pred, target, weight = (g.placeholder(n) for n in
                                ("pred", "target", "weight"))
        loss = g.weighted_mse(pred, target, weight)
        (value,) = g.forward({"pred": np.array([[1.0, 5.0]]),
                              "target": np.array([[1.0, 0.0]]),
                              "weight": np.array([[1.0, 0.0]])}, [loss])
        assert float(value) == 0.0

    def test_zero_weight_zero_gradient(self):
        g = Graph()
        w = g.parameter("w", np.array([[2.0], [3.0]]))
        x = g.placeholder("x")
        pred = g.matmul(x, w)
        target = g.placeholder("target")
        weight = g.placeholder("weight")
        loss = g.weighted_mse(pred, target, weight)
        feeds = {"x": np.array([[1.0, 1.0], [2.0, 0.0]]),
                 "target": np.zeros((2, 1)),
                 "weight": np.array([[0.0], [1.0]])}
        g.forward(feeds, [loss])
        g.backward(loss)
        # only row 2 contributes: pred2 = 4, dL/dpred2 = 2*4, dL/dw = x2 * 8
        expected = np.array([[16.0], [0.0]])
        assert np.allclose(w.grad, expected)

    def test_concat_splits_gradient(self):
        g = Graph()
        a = g.placeholder("a")
        b = g.placeholder("b")
        cat = concat(g, [a, b])
        target = g.placeholder("t")
        weight = g.placeholder("w")
        loss = g.weighted_mse(cat, target, weight)
        feeds = {"a": np.ones((2, 2)), "b": np.zeros((2, 3)),
                 "t": np.zeros((2, 5)), "w": np.ones((2, 5))}
        (value,) = g.forward(feeds, [loss])
        g.backward(loss, inputs=(a, b))
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)
        assert np.allclose(a.grad, 2.0 * 1.0 / 10.0)
        assert np.allclose(b.grad, 0.0)

    def test_dropout_is_identity_in_infer(self):
        g = Graph()
        x = g.placeholder("x")
        out = g.dropout(x, 0.5)
        data = np.arange(6, dtype=float).reshape(2, 3)
        (value,) = g.infer({"x": data}, [out])
        assert np.array_equal(value, data)

    def test_dropout_inverted_scaling(self):
        g = Graph()
        x = g.placeholder("x")
        out = g.dropout(x, 0.5)
        data = np.ones((200, 50))
        (value,) = g.forward({"x": data}, [out], rng=np.random.default_rng(0))
        kept = value[value > 0]
        assert np.allclose(kept, 2.0)  # scaled by 1/(1-p)
        assert abs(value.mean() - 1.0) < 0.05

    def test_batchnorm_state_exists_from_construction(self):
        g = Graph()
        x = g.placeholder("x")
        gamma = g.parameter("gamma", np.array([1.5, 0.5, 2.0]))
        bn = g.batch_norm(x, gamma, g.parameter("beta", np.zeros(3)),
                          name="bn")
        state = g.live_state()
        assert state["bn.running_mean"].tolist() == [0.0, 0.0, 0.0]
        assert state["bn.running_var"].tolist() == [1.0, 1.0, 1.0]
        g.infer({"x": np.ones((4, 3))}, [bn])
        assert g.live_state().keys() == state.keys()
        assert state["bn.running_mean"] is bn.running_mean
        assert bn.running_var.tolist() == [1.0, 1.0, 1.0]
        with pytest.raises(ShapeError, match="'bn.running_var': stored shape"):
            g.load_state({"bn.running_var": np.ones(2)})

    def test_batchnorm_forward_and_infer_agreement(self):
        # with running statistics equal to the batch statistics, the
        # training forward and the inference pass agree to 1e-10
        g = Graph()
        x = g.placeholder("x")
        gamma = g.parameter("gamma", np.array([1.5, 0.5]))
        beta = g.parameter("beta", np.array([0.2, -0.1]))
        bn = g.batch_norm(x, gamma, beta)
        data = np.random.default_rng(3).normal(2.0, 3.0, size=(64, 2))
        (train_out,) = g.forward({"x": data}, [bn])
        bn.running_mean = data.mean(axis=0)
        bn.running_var = data.var(axis=0)
        (inferred,) = g.infer({"x": data}, [bn])
        assert np.max(np.abs(train_out - inferred)) < 1e-10

    def test_relu_local_derivative_values(self):
        # d relu/dx is exactly 1 at x=2, 0 at x=-1, 0 at the kink
        g = Graph()
        x = g.placeholder("x")
        out = g.relu(x)
        g.forward({"x": np.array([[2.0, -1.0, 0.0]])}, [out])
        x.grad = np.zeros((1, 3))
        out.grad = np.ones((1, 3))
        out.backprop()
        assert x.grad.tolist() == [[1.0, 0.0, 0.0]]

    def test_weighted_mse_gradient_form(self):
        # against target 0 with unit weights, dL/dx = 2x/n exactly
        g = Graph()
        x = g.placeholder("x")
        target = g.placeholder("t")
        weight = g.placeholder("w")
        loss = g.weighted_mse(x, target, weight)
        value = np.array([[1.0, -2.0], [0.5, 3.0]])
        g.forward({"x": value, "t": np.zeros((2, 2)),
                   "w": np.ones((2, 2))}, [loss])
        g.backward(loss, inputs=(x,))
        assert np.array_equal(x.grad, 2.0 * value / 4.0)

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
        g = Graph()
        x = g.placeholder("x")
        out = g.relu(x)
        loss = g.weighted_mse(out, g.placeholder("t"), g.placeholder("w"))
        rng = np.random.default_rng(7)
        feeds = {"x": np.array([[0.0, 2.0, -1.0, -0.0]]),
                 "t": rng.standard_normal((1, 4)), "w": np.ones((1, 4))}
        g.forward(feeds, [loss])
        assert out._mask.tolist() == [[False, True, False, False]]
        g.infer(feeds, [loss])
        assert out._mask is None
        g.forward(feeds, [loss])
        g.backward(loss, inputs=(x,))
        assert x.grad[0, 0] == x.grad[0, 2] == x.grad[0, 3] == 0.0

    def test_infer_batchnorm_equals_the_numpy_formula_bitwise(self):
        rng = np.random.default_rng(8)
        g = Graph()
        x = g.placeholder("x")
        gamma = g.parameter("gamma", 1.0 + 0.3 * rng.standard_normal(5))
        beta = g.parameter("beta", 0.2 * rng.standard_normal(5))
        # a zero bias hands batch norm a buffer of the pass to write into
        shifted = g.add_bias(x, g.parameter("zero", np.zeros(5)))
        bn = g.batch_norm(shifted, gamma, beta)
        bn.running_mean = rng.standard_normal(5)
        bn.running_var = rng.random(5) + 0.5
        data = rng.normal(1.0, 2.0, size=(33, 5))
        seen = recorded_values(g)
        (value,) = g.infer({"x": data}, [bn])
        assert value is seen[shifted.name]
        xhat = (data - bn.running_mean) * (1.0 / np.sqrt(bn.running_var
                                                          + bn.eps))
        assert np.array_equal(value, gamma.array * xhat + beta.array)
        # a training forward keeps what its backward reads; infer drops it
        g.forward({"x": data}, [bn])
        assert bn._centered is not None and bn._xhat is not None
        g.infer({"x": data}, [bn])
        assert bn._centered is None and bn._xhat is None
        assert not hasattr(bn, "_mean")

    def test_backward_through_batchnorm_against_central_differences(self):
        rng = np.random.default_rng(9)
        g = Graph()
        x = g.placeholder("x")
        gamma = g.parameter("gamma", 1.0 + 0.3 * rng.standard_normal(4))
        beta = g.parameter("beta", 0.2 * rng.standard_normal(4))
        bn = g.batch_norm(x, gamma, beta)
        bn.running_mean = rng.standard_normal(4)
        bn.running_var = rng.random(4) + 0.5
        loss = g.weighted_mse(g.relu(bn), g.placeholder("t"),
                              g.placeholder("w"))
        feeds = {"x": rng.standard_normal((6, 4)),
                 "t": rng.standard_normal((6, 4)), "w": np.ones((6, 4))}

        def evaluate():
            (value,) = g.forward(feeds, [loss])
            return float(value)

        for array, node in ((gamma.array, gamma), (beta.array, beta),
                            (feeds["x"], x)):
            evaluate()
            g.backward(loss, inputs=(x,))
            direction = rng.standard_normal(array.shape)
            direction /= np.linalg.norm(direction)
            analytic = float((node.grad * direction).sum())
            numeric = central_difference_directional(evaluate, array,
                                                      direction)
            assert relative_error(analytic, numeric) < 1e-4, node.name

    def test_relu_subgradient_zero_at_zero(self):
        g = Graph()
        x = g.placeholder("x")
        out = g.relu(x)
        target = g.placeholder("t")
        weight = g.placeholder("w")
        loss = g.weighted_mse(out, target, weight)
        feeds = {"x": np.array([[0.0, 2.0, -1.0]]),
                 "t": np.array([[1.0, 1.0, 1.0]]),
                 "w": np.ones((1, 3))}
        g.forward(feeds, [loss])
        g.backward(loss, inputs=(x,))
        dx = x.grad[0]
        assert dx[0] == 0.0   # at the kink
        assert dx[1] != 0.0
        assert dx[2] == 0.0   # negative side


def computed_nodes(graph: Graph) -> list[str]:
    """Names of ``graph``'s nodes, appended each time a node computes."""
    ran = []
    for node in graph.nodes:
        def compute(ctx, node=node, original=node.compute):
            ran.append(node.name)
            return original(ctx)
        node.compute = compute
    return ran


def recorded_values(graph: Graph) -> dict:
    """Each node's value in the latest pass, by name, recorded as the pass
    runs: a node's output when it computes, and each input's value when a
    node reads it (which is how a given node's value shows). ``infer``
    drops the values from the graph, so this is how a test sees them."""
    seen = {}
    for node in graph.nodes:
        def compute(ctx, node=node, original=node.compute):
            for inp in node.inputs:
                seen[inp.name] = inp.value
            seen[node.name] = value = original(ctx)
            return value
        node.compute = compute
    return seen


class TestGraphExecution:
    def test_each_node_computed_once(self):
        g = Graph()
        x = g.placeholder("x")
        r = g.relu(x)
        cat = concat(g, [r, r])
        ran = computed_nodes(g)
        g.forward({"x": np.ones((1, 2))}, [cat])
        assert len(ran) == len(set(ran)) == 3

    def test_only_ancestors_run(self):
        g = Graph()
        x = g.placeholder("x")
        used = g.relu(x)
        y = g.placeholder("y")
        g.relu(y)  # not requested, must not need a feed
        ran = computed_nodes(g)
        g.forward({"x": np.ones((1, 2))}, [used])
        assert "y" not in ran

    def test_add_registers_a_node_under_the_name_given(self):
        g = Graph()
        x = g.placeholder("x")
        named = g.add(engine._Relu(x), "act")
        carried = engine._Relu(x)
        carried.name = "carried"
        g.add(carried)
        unnamed = g.add(engine._Relu(x))
        assert [named.name, carried.name, unnamed.name] == \
            ["act", "carried", "relu0"]
        with pytest.raises(EngineError, match="duplicate node name 'act'"):
            g.add(engine._Relu(x), "act")

    def test_shape_error_names_node(self):
        g = Graph()
        a = g.placeholder("a")
        b = g.parameter("W", np.ones((3, 2)))
        out = g.matmul(a, b, name="proj")
        with pytest.raises(ShapeError, match="proj"):
            g.forward({"a": np.ones((2, 4))}, [out])

    def test_nonfinite_feed_caught_at_input(self):
        g = Graph()
        x = g.placeholder("x")
        out = g.relu(x, name="act")
        with pytest.raises(NonFiniteError, match="'x'"):
            g.forward({"x": np.array([[np.inf]])}, [out])

    def test_nonfinite_overflow_names_op(self):
        g = Graph()
        x = g.placeholder("x")
        w = g.parameter("w", np.full((1, 1), 1e200))
        out = g.matmul(x, w, name="proj")
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError,
                                                       match="proj"):
            g.forward({"x": np.full((1, 1), 1e200)}, [out])

    def test_nonfinite_parameter_rejected_when_created(self):
        g = Graph()
        with pytest.raises(NonFiniteError, match="'w'"):
            g.parameter("w", np.array([[1.0, np.nan]]))

    def test_nonfinite_state_rejected_when_loaded(self):
        g = Graph()
        w = g.parameter("w", np.ones((1, 2)))
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
            g = Graph()
            x = g.placeholder("x")
            w = g.parameter("w", data)
            g.load_state({"w": data})
            (value,) = g.forward({"x": data}, [x])
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
        g = Graph()
        x = g.placeholder("x")
        with pytest.raises(NonFiniteError, match="'x'"):
            g.forward({"x": data}, [g.relu(x)])
        with pytest.raises(NonFiniteError, match="'w'"):
            g.parameter("w", data)
        g.parameter("v", np.ones(data.shape))
        with pytest.raises(NonFiniteError, match="'v'"):
            g.load_state({"v": data})
        theta = Parameter("theta", np.ones(data.shape))
        adam = Adam([theta])
        theta.grad = data
        with pytest.raises(NonFiniteError, match="'theta'"):
            adam.step()

    def test_parameter_written_by_hand_caught_by_its_reader(self):
        g = Graph()
        x = g.placeholder("x")
        w = g.parameter("w", np.ones((2, 1)))
        out = g.matmul(x, w, name="proj")
        w.array[1, 0] = np.nan
        with pytest.raises(NonFiniteError, match="proj"):
            g.forward({"x": np.ones((3, 2))}, [out])

    def test_backward_before_forward(self):
        g = Graph()
        x = g.placeholder("x")
        loss = g.weighted_mse(x, x, x)
        with pytest.raises(EngineError, match="before forward"):
            g.backward(loss)

    def test_determinism_under_seed(self):
        def run():
            g = Graph()
            x = g.placeholder("x")
            out = g.dropout(g.relu(x), 0.3)
            (value,) = g.forward({"x": np.arange(12.0).reshape(3, 4)}, [out],
                                 rng=np.random.default_rng(11))
            return value
        assert np.array_equal(run(), run())


def dense_chain(batch_norm=True, rate=0.3):
    """x -> matmul -> add_bias -> batch norm -> relu -> dropout -> matmul ->
    add_bias, with moved running statistics: (graph, feeds, nodes by name).
    Without ``batch_norm`` the add_bias feeds the relu; its parameters and
    statistics are drawn either way, so the rest of the chain is the same."""
    rng = np.random.default_rng(12)
    g = Graph()
    x = g.placeholder("x")
    h = g.add_bias(g.matmul(x, g.parameter("w0", rng.standard_normal((4, 6))),
                            name="mm0"),
                   g.parameter("b0", rng.standard_normal(6)), name="ab0")
    gamma, beta = rng.standard_normal(6), rng.standard_normal(6)
    if batch_norm:
        h = g.batch_norm(h, g.parameter("gamma", gamma),
                         g.parameter("beta", beta), name="bn")
    h = g.dropout(g.relu(h, name="act"), rate, name="drop")
    g.add_bias(g.matmul(h, g.parameter("w1", rng.standard_normal((6, 2))),
                        name="mm1"),
               g.parameter("b1", rng.standard_normal(2)), name="out")
    n = {node.name: node for node in g.nodes}
    mean, var = rng.standard_normal(6), rng.random(6) + 0.5
    if batch_norm:
        n["bn"].running_mean, n["bn"].running_var = mean, var
    return g, {"x": rng.standard_normal((5, 4))}, n


def train_forward(g, feeds, outputs):
    """A training forward with a fixed dropout stream."""
    return g.forward(feeds, outputs, rng=np.random.default_rng(0))


class TestPlannedExecution:
    def test_infer_writes_only_dead_buffers_of_its_own_pass(self):
        g, feeds, n = dense_chain()
        seen = recorded_values(g)
        (out,) = g.infer(feeds, [n["out"]])
        # matmul -> add_bias -> batch norm -> relu share one buffer; the
        # dropout aliases it; the output add_bias reuses its matmul's
        assert seen["ab0"] is seen["mm0"] is seen["bn"] is seen["act"]
        assert seen["drop"] is seen["act"]
        assert seen["out"] is seen["mm1"] is out
        assert not np.shares_memory(seen["x"], seen["mm0"])
        out = out.copy()
        seen.clear()
        bn, again = g.infer(feeds, [n["bn"], n["out"]])  # bn is requested
        assert again.tobytes() == out.tobytes()
        assert bn is seen["bn"] and not np.shares_memory(bn, seen["act"])

    def test_infer_in_place_equals_a_forward_without_batch_norm_or_dropout(
            self):
        # with neither, a training forward runs infer's arithmetic out of
        # place; batch norm's own bytes are the numpy formula test's
        g, feeds, n = dense_chain(batch_norm=False, rate=0.0)
        (reference,) = g.forward(feeds, [n["out"]])
        reference = reference.copy()
        seen = recorded_values(g)
        (out,) = g.infer(feeds, [n["out"]])
        assert seen["ab0"] is seen["mm0"] is seen["act"]
        assert out.tobytes() == reference.tobytes()

    def test_infer_leaves_no_value_but_the_parameters(self):
        g, feeds, n = dense_chain()
        train_forward(g, feeds, [n["out"]])  # values infer must drop
        x = feeds["x"].copy()
        (out,) = g.infer(feeds, [n["out"]])
        assert held_values(g) == []
        assert all(p.value is p.array for p in g.parameters())
        assert feeds["x"].tobytes() == x.tobytes()
        (again,) = g.infer(feeds, [n["out"]])
        assert again.tobytes() == out.tobytes()

    def test_infer_with_a_given_value_leaves_it_unwritten(self):
        g, feeds, n = dense_chain()
        (value,) = g.infer(feeds, [n["bn"]])
        kept = value.copy()
        g.infer(feeds, [n["out"]])
        (out,) = g.infer({}, [n["out"]], given={n["bn"]: value})
        assert held_values(g) == []
        assert value.tobytes() == kept.tobytes()
        (reference,) = g.infer(feeds, [n["out"]])
        assert out.tobytes() == reference.tobytes()

    def test_an_infer_that_raises_leaves_no_value(self):
        g, feeds, n = dense_chain()
        train_forward(g, feeds, [n["out"]])
        next(p for p in g.parameters() if p.name == "b1").array[1] = np.nan
        with pytest.raises(NonFiniteError, match="'out'"):
            g.infer(feeds, [n["out"]])
        assert held_values(g) == []
        bn = n["bn"]
        value = np.full((5, 6), np.inf)
        with pytest.raises(NonFiniteError, match="'bn'"):
            g.infer({}, [n["out"]], given={bn: value})
        assert held_values(g) == [] and np.isinf(value).all()

    def test_a_forward_keeps_its_values(self):
        g, feeds, n = dense_chain()
        g.infer(feeds, [n["out"]])
        train_forward(g, feeds, [n["out"]])
        assert set(held_values(g)) == set(n) - {p.name
                                                for p in g.parameters()}

    @pytest.mark.parametrize("mode, checked", [
        ("infer", ["x", "mm0", "ab0", "bn", "mm1", "out"]),
        ("train", ["x", "mm0", "ab0", "bn", "drop", "mm1", "out"]),
    ])
    def test_relu_and_identity_dropout_checks_are_implied(self, mode, checked,
                                                          monkeypatch):
        g, feeds, n = dense_chain()
        seen = []

        def spy(a, original=engine.all_finite):
            # the latest node holding the array; later ones have not run
            seen.append([name for name, node in n.items()
                         if node.value is a][-1])
            return original(a)

        monkeypatch.setattr(engine, "all_finite", spy)
        if mode == "infer":
            g.infer(feeds, [n["out"]])
        else:
            train_forward(g, feeds, [n["out"]])
        assert seen == checked

    def test_nonfinite_parameter_read_by_a_relu_is_caught_there(self):
        g = Graph()
        p = g.parameter("p", np.ones((2, 3)))
        act = g.dropout(g.relu(p, name="act"), 0.0)
        p.array[0, 1] = np.nan
        with pytest.raises(NonFiniteError, match="'act'"):
            g.infer({}, [act])
        with pytest.raises(NonFiniteError, match="'act'"):
            g.forward({}, [act])

    def test_a_node_added_after_a_cached_plan_is_computed(self):
        g, feeds, n = dense_chain()
        g.infer(feeds, [n["act"]])
        g.forward(feeds, [n["act"]])
        # a second reader of the ReLU's input: the ReLU may no longer write
        # into that buffer, and the new node must run
        second = g.add_bias(n["bn"], g.parameter("zero", np.zeros(6)))
        (bn,) = g.infer(feeds, [n["bn"]])
        expected = bn.copy()
        act, added = g.infer(feeds, [n["act"], second])
        assert added.tobytes() == expected.tobytes()
        assert act.tobytes() == engine.relu(expected).tobytes()

    def test_a_node_added_after_a_cached_backward_plan_is_scoped(self):
        g, feeds, n = dense_chain()
        loss = g.weighted_mse(n["out"], g.placeholder("t"),
                              g.placeholder("w"))
        feeds.update(t=np.zeros((5, 2)), w=np.ones((5, 2)))
        g.forward(feeds, [loss], rng=np.random.default_rng(0))
        g.backward(loss)
        side = g.relu(n["bn"])  # not on the loss's path
        g.forward(feeds, [loss], rng=np.random.default_rng(0))
        g.backward(loss)
        assert side.wants_grad is False and side.grad is None


class TestGradientChecks:
    def _two_layer_net(self, rng, n=5, d_in=4, hidden=6, use_bn=True,
                       dropout=0.0):
        g = Graph()
        x = g.placeholder("x")
        w1 = g.parameter("w1", rng.standard_normal((d_in, hidden)) * 0.7)
        b1 = g.parameter("b1", rng.standard_normal(hidden) * 0.1)
        h = g.add_bias(g.matmul(x, w1), b1)
        if use_bn:
            gamma = g.parameter("gamma", 1.0 + 0.1 * rng.standard_normal(hidden))
            beta = g.parameter("beta", 0.1 * rng.standard_normal(hidden))
            h = g.batch_norm(h, gamma, beta)
        h = g.relu(h)
        if dropout:
            h = g.dropout(h, dropout)
        w2 = g.parameter("w2", rng.standard_normal((hidden, 2)) * 0.7)
        b2 = g.parameter("b2", rng.standard_normal(2) * 0.1)
        out = g.add_bias(g.matmul(h, w2), b2)
        target = g.placeholder("target")
        weight = g.placeholder("weight")
        loss = g.weighted_mse(out, target, weight)
        feeds = {"x": rng.standard_normal((n, d_in)),
                 "target": rng.standard_normal((n, 2)),
                 "weight": (rng.random((n, 2)) > 0.3).astype(float)}
        return g, loss, feeds

    @pytest.mark.parametrize("seed", range(8))
    def test_two_layer_net_all_parameters(self, seed):
        rng = np.random.default_rng(seed)
        g, loss, feeds = self._two_layer_net(rng)
        for param in g.parameters():
            check_param_gradient(g, loss, feeds, param, rng)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_with_dropout_frozen_rng(self, seed):
        rng = np.random.default_rng(100 + seed)
        g, loss, feeds = self._two_layer_net(rng, use_bn=False, dropout=0.4)
        for param in g.parameters():
            check_param_gradient(g, loss, feeds, param, rng,
                                 rng_seed=seed)

    def test_gradient_wrt_inputs(self):
        rng = np.random.default_rng(42)
        g = Graph()
        x = g.placeholder("x")
        w = g.parameter("w", rng.standard_normal((3, 2)))
        out = g.relu(g.matmul(x, w))
        target = g.placeholder("target")
        weight = g.placeholder("weight")
        loss = g.weighted_mse(out, target, weight)
        x_value = rng.standard_normal((4, 3))
        feeds = {"x": x_value, "target": rng.standard_normal((4, 2)),
                 "weight": np.ones((4, 2))}

        def evaluate():
            (value,) = g.forward(feeds, [loss])
            return float(value)

        evaluate()
        g.backward(loss, inputs=(x,))
        direction = rng.standard_normal(x_value.shape)
        direction /= np.linalg.norm(direction)
        analytic = float((x.grad * direction).sum())
        numeric = central_difference_directional(evaluate, x_value, direction)
        assert relative_error(analytic, numeric) < 1e-4


class TestIndexedDense:
    """``sum_k (T_k @ W[rows_k])[index_k]`` against its concat reference."""

    def _net(self, rng, widths, n=7):
        g = Graph()
        blocks, feeds = [], {}
        for k, width in enumerate(widths):
            blocks.append((g.placeholder(f"t{k}"), g.object_input(f"i{k}")))
            rows = 3 + k  # fewer rows than pairs: indices repeat
            feeds[f"t{k}"] = rng.standard_normal((rows, width))
            feeds[f"i{k}"] = rng.integers(0, rows, size=n)
        w = g.parameter("W", rng.standard_normal((sum(widths), 4)) * 0.5)
        b = g.parameter("b", rng.standard_normal(4) * 0.1)
        out = g.add_bias(g.indexed_dense(blocks, w, name="first"), b)
        loss = g.weighted_mse(out, g.placeholder("target"),
                              g.placeholder("weight"))
        feeds["target"] = rng.standard_normal((n, 4))
        feeds["weight"] = np.ones((n, 4))
        return g, loss, feeds, [table for table, _ in blocks], w

    @pytest.mark.parametrize("widths", [(5,), (5, 3)])
    def test_forward_matches_concat_then_matmul(self, widths):
        rng = np.random.default_rng(1)
        g, _loss, feeds, _tables, w = self._net(rng, widths)
        first = next(n for n in g.nodes if n.name == "first")
        (value,) = g.forward(feeds, [first])
        joined = np.concatenate([feeds[f"t{k}"][feeds[f"i{k}"]]
                                 for k in range(len(widths))], axis=1)
        reference = joined @ w.array
        assert np.max(np.abs(value - reference)) <= \
            1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("widths", [(5,), (5, 3)])
    def test_gradients_against_central_differences(self, widths):
        rng = np.random.default_rng(len(widths))
        g, loss, feeds, tables, _w = self._net(rng, widths)
        for param in g.parameters():
            check_param_gradient(g, loss, feeds, param, rng)
        assert all(table.grad is None for table in tables)

        def evaluate():
            (value,) = g.forward(feeds, [loss])
            return float(value)

        for k, table in enumerate(tables):
            evaluate()
            g.backward(loss, inputs=(table,))
            direction = rng.standard_normal(feeds[f"t{k}"].shape)
            direction /= np.linalg.norm(direction)
            analytic = float((table.grad * direction).sum())
            numeric = central_difference_directional(evaluate, feeds[f"t{k}"],
                                                      direction)
            assert relative_error(analytic, numeric) < 1e-4, table.name

    @pytest.mark.parametrize("change, message", [
        ({"i0": np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0])}, "integer"),
        ({"i0": np.zeros((7, 1), dtype=np.int64)}, "1-d"),
        ({"i0": np.array([0, 1, 2, 0, 1, 2, -1])}, "range"),
        ({"i1": np.array([0, 1, 2, 3, 0, 1, 4])}, "range"),
        ({"i1": np.array([0, 1, 2])}, "differ in length"),
        ({"t1": np.ones((4, 2))}, "do not sum"),
    ])
    def test_shape_errors_name_the_node(self, change, message):
        g, loss, feeds, _tables, _w = self._net(np.random.default_rng(0),
                                                (5, 3))
        feeds.update(change)
        with pytest.raises(ShapeError, match=f"first.*{message}"):
            g.forward(feeds, [loss])

    def _given(self, widths=(5, 3)):
        """The net, its feeds, its ``indexed_dense`` node, and that node's
        value for the feeds as a caller forms it: ``project`` per block,
        then a gather-add."""
        g, loss, feeds, _tables, _w = self._net(np.random.default_rng(4),
                                                widths)
        first = next(n for n in g.nodes if n.name == "first")
        value = first.project(feeds["t0"], 0)[feeds["i0"]]
        for k in range(1, len(widths)):
            value += first.project(feeds[f"t{k}"],
                                   sum(widths[:k]))[feeds[f"i{k}"]]
        return g, loss, feeds, first, value

    @pytest.mark.parametrize("widths", [(5,), (5, 3)])
    def test_given_first_layer_equals_forward_skips_inputs(self, widths):
        g, loss, feeds, first, value = self._given(widths)
        (reference,) = g.forward(feeds, [loss])
        ran = computed_nodes(g)
        seen = recorded_values(g)
        rest = {name: feeds[name] for name in ("target", "weight")}
        (got,) = g.infer(rest, [loss], given={first: value})
        assert got == reference
        assert seen["first"] is value
        assert not {node.name for node in (first, *first.inputs)} & set(ran)
        assert "b" in ran

    def test_backward_needs_a_forward_without_given_values(self):
        g, loss, feeds, first, value = self._given()
        g.infer(feeds, [loss], given={first: value})
        with pytest.raises(EngineError, match="before forward"):
            g.backward(loss)
        g.forward(feeds, [loss])
        g.backward(loss)

    def test_given_values_are_checked_for_finiteness(self):
        g, loss, feeds, first, value = self._given()
        value[0, 0] = np.inf
        with pytest.raises(NonFiniteError, match="'first'"):
            g.infer(feeds, [loss], given={first: value})

    @pytest.mark.parametrize("widths", [(5,), (5, 3)])
    def test_a_given_gather_add_is_its_formed_value(self, widths):
        g, loss, feeds, first, value = self._given(widths)
        tables = tuple(first.project(feeds[f"t{k}"], sum(widths[:k]))
                       for k in range(len(widths)))
        record = GatherAdd(tables, tuple(feeds[f"i{k}"]
                                         for k in range(len(widths))))
        assert record.form().tobytes() == value.tobytes()
        (want,) = g.infer(feeds, [loss], given={first: value})
        (got,) = g.infer(feeds, [loss], given={first: record})
        assert got == want

    @pytest.mark.parametrize("change, message", [
        (lambda t, i: (t, (i[0] + 100, i[1])), "given index 0 leaves the "
                                               "range of its"),
        (lambda t, i: (t, (i[0], i[1][:-1])), "indices differ in length"),
        (lambda t, i: (t, i[:1]), "one index each"),
        (lambda t, i: ((t[0], t[1][:, :2]), i), "2-d tables of one width"),
    ])
    def test_a_given_gather_add_is_checked(self, change, message):
        g, loss, feeds, first, _value = self._given()
        tables = (first.project(feeds["t0"], 0), first.project(feeds["t1"], 5))
        record = GatherAdd(*change(tables, (feeds["i0"], feeds["i1"])))
        with pytest.raises(ShapeError, match=f"first.*{message}"):
            g.infer(feeds, [loss], given={first: record})

    def test_given_nodes_must_be_in_the_graph(self):
        g, loss, feeds, _first, value = self._given()
        stranger = Graph().placeholder("stranger")
        with pytest.raises(EngineError,
                           match="'stranger', which is not a node of this"):
            g.infer(feeds, [loss], given={stranger: value})


class TestBackwardScope:
    def _regression(self, rng):
        g = Graph()
        x = g.placeholder("x")
        w = g.parameter("w", rng.standard_normal((3, 2)))
        z = g.matmul(x, w)
        target = g.placeholder("target")
        weight = g.placeholder("weight")
        loss = g.weighted_mse(z, target, weight)
        feeds = {"x": rng.standard_normal((4, 3)),
                 "target": rng.standard_normal((4, 2)),
                 "weight": np.ones((4, 2))}
        g.forward(feeds, [loss])
        return g, x, w, z, target, weight, loss, feeds

    def test_only_parameter_paths_get_gradients(self):
        g, x, w, z, target, weight, loss, _ = self._regression(
            np.random.default_rng(0))
        g.backward(loss)
        assert w.grad is not None and z.grad is not None
        assert x.grad is None and target.grad is None and weight.grad is None

    def test_inputs_opt_in(self):
        g, x, w, z, target, weight, loss, feeds = self._regression(
            np.random.default_rng(1))
        g.backward(loss, inputs=(x,))
        dz = 2.0 * (z.value - feeds["target"]) / 8.0
        assert np.allclose(x.grad, dz @ w.array.T)
        assert target.grad is None and weight.grad is None

    def test_stale_gradients_are_reset(self):
        g, x, w, z, target, weight, loss, _ = self._regression(
            np.random.default_rng(2))
        g.backward(loss, inputs=(x, target))
        assert x.grad is not None and target.grad is not None
        g.backward(loss)
        assert x.grad is None and target.grad is None
        assert w.grad is not None

    def test_unreached_node_holds_no_gradient(self):
        g, x, w, z, target, weight, loss, _ = self._regression(
            np.random.default_rng(3))
        unused = g.parameter("unused", np.ones(2))
        unused.grad = np.ones(2)
        g.backward(loss)
        assert unused.grad is None

    def test_second_contribution_leaves_adopted_array_alone(self):
        # z feeds both the bias add (which hands its gradient on as is) and
        # the concat, so z's two contributions meet an adopted array
        rng = np.random.default_rng(4)
        g = Graph()
        x = g.placeholder("x")
        w = g.parameter("w", rng.standard_normal((3, 2)))
        b = g.parameter("b", rng.standard_normal(2))
        z = g.matmul(x, w)
        y = g.add_bias(z, b)
        cat = concat(g, [y, z])
        target = g.placeholder("target")
        weight = g.placeholder("weight")
        loss = g.weighted_mse(cat, target, weight)
        feeds = {"x": rng.standard_normal((5, 3)),
                 "target": rng.standard_normal((5, 4)),
                 "weight": np.ones((5, 4))}
        g.forward(feeds, [loss])
        g.backward(loss)
        assert np.array_equal(y.grad, cat.grad[:, :2])
        assert np.array_equal(z.grad, cat.grad[:, 2:] + cat.grad[:, :2])
        for param in (w, b):
            check_param_gradient(g, loss, feeds, param, rng)

    def test_inputs_must_be_numeric_nodes_of_the_graph(self):
        g, x, w, z, target, weight, loss, _ = self._regression(
            np.random.default_rng(5))
        structure = g.object_input("structure")
        with pytest.raises(EngineError, match="structure"):
            g.backward(loss, inputs=(structure,))
        stranger = Graph().placeholder("stranger")
        with pytest.raises(EngineError, match="stranger"):
            g.backward(loss, inputs=(stranger,))


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
    """An ``indexed_dense`` -> loss net whose tables have zero columns."""
    g = Graph()
    blocks, feeds = [], {}
    for k, width in enumerate(widths):
        blocks.append((g.placeholder(f"t{k}"), g.object_input(f"i{k}")))
        feeds[f"t{k}"] = (rng.random((distinct[k], width)) < 0.02).astype(float)
        feeds[f"i{k}"] = rng.integers(0, distinct[k], size=n)
    w = g.parameter("W", rng.standard_normal((sum(widths), out_width)) * 0.1)
    out = g.relu(g.indexed_dense(blocks, w, name="first"))
    w_out = g.parameter("w_out", rng.standard_normal((out_width, 1)))
    loss = g.weighted_mse(g.matmul(out, w_out), g.placeholder("target"),
                          g.placeholder("weight"))
    feeds["target"] = rng.standard_normal((n, 1))
    feeds["weight"] = np.ones((n, 1))
    return g, loss, feeds, w


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
        g, loss, feeds, w = sparse_net(np.random.default_rng(out_width),
                                       widths, out_width)
        g.forward(feeds, [loss])
        g.backward(loss)
        full = w.grad
        selection = RowSelection(set_columns(feeds, len(widths)))
        assert all(columns is not None for _, columns, _ in selection.blocks)
        w.row_selection = selection
        g.backward(loss)
        compact = np.asarray(w.grad)
        assert compact.shape == (selection.n_rows, out_width)
        kept = np.zeros(w.array.shape[0], dtype=bool)
        for compact_rows, _, rows in selection.blocks:
            assert np.array_equal(compact[compact_rows], full[rows])
            kept[rows] = True
        assert not full[~kept].any()
        w.row_selection = None
        g.backward(loss)
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
            g = Graph()
            blocks, feeds = [], {}
            for k, (width, n_kept) in enumerate(((40, n_active), (24, 24))):
                blocks.append((g.placeholder(f"t{k}"),
                               g.object_input(f"i{k}")))
                table = np.zeros((512, width))
                table[:, rng.permutation(width)[:n_kept]] = \
                    rng.standard_normal((512, n_kept))
                feeds[f"t{k}"] = table
                feeds[f"i{k}"] = rng.permutation(1024) % 512
            w = g.parameter("W", rng.standard_normal((64, 64)) * 0.1)
            out = g.relu(g.indexed_dense(blocks, w))
            loss = g.weighted_mse(
                g.matmul(out, g.parameter("w_out", rng.standard_normal(
                    (64, 1)))), g.placeholder("target"),
                g.placeholder("weight"))
            feeds["target"] = rng.standard_normal((1024, 1))
            feeds["weight"] = np.ones((1024, 1))
            if selected:
                w.row_selection = RowSelection(set_columns(feeds, 2))
                assert [columns is None for _, columns, _
                        in w.row_selection.blocks] == [True, True]
            adam = Adam(g.parameters())
            for _ in range(3):
                g.forward(feeds, [loss])
                g.backward(loss)
                adam.step()
            fits.append(w.array.tobytes())
        assert fits[0] == fits[1]

    def test_selection_must_cover_the_tables(self):
        g, loss, feeds, w = sparse_net(np.random.default_rng(0), (20, 30), 4)
        w.row_selection = RowSelection([np.ones(30, dtype=bool),
                                        np.ones(20, dtype=bool)])
        g.forward(feeds, [loss])
        with pytest.raises(ShapeError, match="first.*row selection"):
            g.backward(loss)

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
        first = nets[0][2]
        second = {k: v.copy() for k, v in first.items()}
        column = int(np.flatnonzero(first["t0"].any(axis=0))[0])
        second["t0"][:, column] = 0.0
        fit_columns = [a | b for a, b in zip(set_columns(first, 2),
                                             set_columns(second, 2))]
        nets[1][3].row_selection = selection = RowSelection(fit_columns)
        assert selection.blocks[0][1] is not None  # the block is compacted
        after = []
        for g, loss, _, w in nets:
            adam = Adam(g.parameters())
            states = []
            for batch in (first, second):
                g.forward(batch, [loss])
                g.backward(loss)
                adam.step()
                states.append(w.array.copy())
            after.append(states)
        assert not nets[0][3].grad[column].any()  # no gradient in batch two
        (full1, full2), (part1, part2) = after
        assert not np.array_equal(part1[column], part2[column])
        assert np.array_equal(part1, full1)
        assert np.array_equal(part2, full2)


def two_block_net(rng, out_width, distinct):
    """An ``indexed_dense`` net over a table whose selection is compacted
    and one kept whole, each spanning several Adam blocks of rows; the
    compacted block's last Adam block holds a single row."""
    block = engine._ADAM_CHUNK // out_width
    active = np.zeros(4 * block + 10, dtype=bool)
    active[rng.permutation(active.size)[:2 * block + 1]] = True
    masks = [active, np.ones(2 * block + 37, dtype=bool)]
    g = Graph()
    blocks, feeds = [], {}
    n = 2 * distinct + 3
    for k, mask in enumerate(masks):
        blocks.append((g.placeholder(f"t{k}"), g.object_input(f"i{k}")))
        feeds[f"t{k}"] = rng.standard_normal((distinct, mask.size)) * mask
        feeds[f"i{k}"] = rng.integers(0, distinct, size=n)
    w = g.parameter("W", rng.standard_normal((sum(m.size for m in masks),
                                              out_width)) * 0.05)
    out = g.relu(g.indexed_dense(blocks, w, name="first"))
    w_out = g.parameter("w_out", rng.standard_normal((out_width, 1)))
    loss = g.weighted_mse(g.matmul(out, w_out), g.placeholder("target"),
                          g.placeholder("weight"))
    feeds["target"] = rng.standard_normal((n, 1))
    feeds["weight"] = np.ones((n, 1))
    return g, loss, feeds, w, RowSelection(masks)


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
        g, loss, feeds, w, selection = two_block_net(rng, out_width, distinct)
        assert [c is None for _, c, _ in selection.blocks] == [False, True]
        g.forward(feeds, [loss])
        g.backward(loss)
        full = w.grad
        assert isinstance(full, np.ndarray)
        w.row_selection = selection
        adam = Adam([w])
        g.backward(loss)
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
        g, loss, feeds, w, selection = two_block_net(rng, 16, 5)
        w.row_selection = selection
        adam = Adam(g.parameters())
        g.forward(feeds, [loss])
        g.backward(loss)
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
        g.forward(feeds, [loss])
        g.backward(loss)
        w.grad.blocks[1][2][0, 0] = np.nan
        next(p for p in params if p.name == "w_out").grad = np.full(
            (16, 1), np.nan)
        with pytest.raises(NonFiniteError,
                           match="^non-finite gradient for parameter 'W'$"):
            adam.step()
        assert_unchanged()
        # finite factors whose product overflows: the step forms the array
        # and finds the infinity there
        g.backward(loss)
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
            g, loss, feeds, w, selection = two_block_net(rng, 64, 33)
            w.row_selection = selection
            adam = Adam(g.parameters())
            for _ in range(3):
                g.forward(feeds, [loss])
                g.backward(loss)
                assert w.grad.bounded() == (bound > 0.0)
                adam.step()
            results.append((w.array.copy(), moment_copies(adam)))
        (theta_a, moments_a), (theta_b, moments_b) = results
        assert np.array_equal(theta_a, theta_b)
        for key in moments_a:
            assert np.array_equal(moments_a[key], moments_b[key]), key

    def test_a_second_contribution_is_added_to_the_formed_array(self):
        # W feeds the first layer and a second product; with a selection of
        # whole blocks the sum equals the backward over every row.
        rng = np.random.default_rng(71)
        g = Graph()
        table, index, x = (g.placeholder("t"), g.object_input("i"),
                           g.placeholder("x"))
        w = g.parameter("W", rng.standard_normal((12, 4)))
        total = g.add_bias(g.indexed_dense([(table, index)], w),
                           g.parameter("zero", np.zeros(4)))
        both = concat(g, [total, g.matmul(x, w)])
        loss = g.weighted_mse(g.matmul(both, g.parameter(
            "w_out", rng.standard_normal((8, 1)))), g.placeholder("target"),
            g.placeholder("weight"))
        feeds = {"t": rng.standard_normal((5, 12)),
                 "i": rng.integers(0, 5, size=9),
                 "x": rng.standard_normal((9, 12)),
                 "target": rng.standard_normal((9, 1)),
                 "weight": np.ones((9, 1))}
        g.forward(feeds, [loss])
        g.backward(loss)
        full = w.grad
        w.row_selection = RowSelection([np.ones(12, dtype=bool)])
        g.backward(loss)
        assert isinstance(w.grad, np.ndarray)
        assert np.array_equal(w.grad, full)


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
        g = Graph()
        x = g.placeholder("x")
        w = g.parameter("w", rng.standard_normal((4, 3)))
        b = g.parameter("b", rng.standard_normal(3))
        scale = g.parameter("scale", rng.standard_normal((3, 1)))
        g.forward({"x": np.ones((2, 4))},
                  [g.matmul(g.add_bias(g.matmul(x, w), b), scale)])
        old = w.array
        adam = Adam(g.parameters())
        assert w.array is not old and np.array_equal(w.array, old)
        for p in g.parameters():
            assert p.value is p.array
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
