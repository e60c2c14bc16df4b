"""Graph convolution operators: semantics, gradients, equivariance."""

import numpy as np
import pytest

from conftest import central_difference_directional, relative_error
from dtanet.compounds import atom_features
from dtanet.engine import Adam, Graph
from dtanet.graphconv import (
    GraphConv,
    GraphGather,
    GraphPool,
    GraphStructureError,
    pack_graphs,
)
from dtanet.smiles import parse_smiles
from dtanet.synthetic import unique_smiles

MAX_DEGREE = 6


def packed(smiles_list):
    mols = [parse_smiles(s) for s in smiles_list]
    feats = [atom_features(m) for m in mols]
    return pack_graphs(mols, feats, MAX_DEGREE)


def conv_graph(width_in, width_out, rng, identity=False):
    """A graph with one conv layer; returns (graph, h, structure, conv)."""
    g = Graph()
    h = g.placeholder("h")
    structure = g.object_input("structure")
    if identity:
        make_w = lambda: np.eye(width_in)
        make_b = lambda: np.zeros(width_out)
    else:
        make_w = lambda: rng.standard_normal((width_in, width_out)) * 0.6
        make_b = lambda: rng.standard_normal(width_out) * 0.1
    w_self = [g.parameter(f"ws{d}", make_w()) for d in range(MAX_DEGREE + 1)]
    w_nbr = [g.parameter(f"wn{d}", make_w()) for d in range(MAX_DEGREE + 1)]
    bias = [g.parameter(f"b{d}", make_b()) for d in range(MAX_DEGREE + 1)]
    conv = GraphConv(h, structure, w_self, w_nbr, bias)
    conv.name = "conv"
    g.add(conv)
    return g, h, structure, conv


class TestConvSemantics:
    def test_isolated_atom_identity_weights(self):
        rows, batch = packed(["C"])
        g, _, _, conv = conv_graph(rows.shape[1], rows.shape[1],
                                   np.random.default_rng(0), identity=True)
        (out,) = g.forward({"h": rows, "structure": batch}, [conv])
        assert np.array_equal(out, np.maximum(rows, 0.0))

    def test_edge_sums_neighbor(self):
        rows, batch = packed(["CC"])
        # identity self and neighbor weights, nonnegative features
        g, _, _, conv = conv_graph(rows.shape[1], rows.shape[1],
                                   np.random.default_rng(0), identity=True)
        (out,) = g.forward({"h": rows, "structure": batch}, [conv])
        assert np.allclose(out[0], rows[0] + rows[1])
        assert np.allclose(out[1], rows[0] + rows[1])

    def test_degree_out_of_range(self):
        mol = parse_smiles("C(C)(C)(C)(C)(C)C")
        feats = atom_features(mol)
        with pytest.raises(GraphStructureError, match="degree 6"):
            pack_graphs([mol], [feats], max_degree=5)

    def test_empty_molecule_rejected(self):
        with pytest.raises(GraphStructureError, match="empty batch"):
            pack_graphs([], [])


class TestPoolSemantics:
    def _pool(self, rows, batch):
        g = Graph()
        h = g.placeholder("h")
        structure = g.object_input("structure")
        pool = GraphPool(h, structure)
        pool.name = "pool"
        g.add(pool)
        (out,) = g.forward({"h": rows, "structure": batch}, [pool])
        return out

    def test_path_maxima(self):
        # path A-B-C with scalar features [1, 5, 2] -> [5, 5, 5]
        mols = [parse_smiles("CCC")]
        feats = [atom_features(mols[0])]
        _, batch = pack_graphs(mols, feats, MAX_DEGREE)
        rows = np.array([[1.0], [5.0], [2.0]])
        assert self._pool(rows, batch).ravel().tolist() == [5.0, 5.0, 5.0]

    def test_isolated_atom_unchanged(self):
        _, batch = pack_graphs([parse_smiles("C")],
                               [atom_features(parse_smiles("C"))], MAX_DEGREE)
        rows = np.array([[3.5, -1.0]])
        assert np.array_equal(self._pool(rows, batch), rows)

    def test_tie_routes_to_lowest_atom_index(self):
        mols = [parse_smiles("CC")]
        _, batch = pack_graphs(mols, [atom_features(mols[0])], MAX_DEGREE)
        rows = np.array([[2.0], [2.0]])  # tie in both neighborhoods
        g = Graph()
        h = g.placeholder("h")
        structure = g.object_input("structure")
        pool = GraphPool(h, structure)
        g.add(pool)
        target = g.placeholder("t")
        weight = g.placeholder("w")
        loss = g.weighted_mse(pool, target, weight)
        g.forward({"h": rows, "structure": batch, "t": np.zeros((2, 1)),
                   "w": np.ones((2, 1))}, [loss])
        g.backward(loss, inputs=(h,))
        # both segments pick atom 0, so all gradient lands there
        assert h.grad[1, 0] == 0.0
        assert h.grad[0, 0] != 0.0


class TestGatherSemantics:
    def _gather(self, rows, batch):
        g = Graph()
        h = g.placeholder("h")
        structure = g.object_input("structure")
        gather = GraphGather(h, structure)
        g.add(gather)
        (out,) = g.forward({"h": rows, "structure": batch}, [gather])
        return out

    def test_single_atom_is_own_row(self):
        _, batch = packed(["C"])
        rows = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(self._gather(rows, batch), rows)

    def test_two_atoms_sum(self):
        _, batch = packed(["CC"])
        rows = np.array([[1.0, 2.0], [10.0, 20.0]])
        assert np.array_equal(self._gather(rows, batch),
                              np.array([[11.0, 22.0]]))

    def test_permutation_invariance(self):
        _, batch = packed(["CCC"])
        rows = np.random.default_rng(0).standard_normal((3, 4))
        base = self._gather(rows, batch)
        permuted = self._gather(rows[[2, 0, 1]], batch)
        assert np.allclose(base, permuted)

    def test_batch_boundaries(self):
        _, batch = packed(["CC", "C"])
        rows = np.array([[1.0], [2.0], [5.0]])
        assert np.array_equal(self._gather(rows, batch),
                              np.array([[3.0], [5.0]]))


class TestEquivariance:
    def test_conv_rows_permute_with_atoms(self):
        # the same molecule entered in two atom orders maps to permuted rows
        a = parse_smiles("CCO")
        b = parse_smiles("OCC")
        fa, fb = atom_features(a), atom_features(b)
        rng = np.random.default_rng(5)
        g, _, _, conv = conv_graph(fa.width, 8, rng)
        _, batch_a = pack_graphs([a], [fa], MAX_DEGREE)
        _, batch_b = pack_graphs([b], [fb], MAX_DEGREE)
        (out_a,) = g.forward({"h": fa.rows, "structure": batch_a}, [conv])
        (out_b,) = g.forward({"h": fb.rows, "structure": batch_b}, [conv])
        assert np.allclose(out_a[[2, 1, 0]], out_b)


class TestGradients:
    def _full_stack(self, smiles_list, rng):
        """conv -> pool -> dense -> gather -> dense, scalar loss."""
        mols = [parse_smiles(s) for s in smiles_list]
        feats = [atom_features(m) for m in mols]
        rows, batch = pack_graphs(mols, feats, MAX_DEGREE)
        g, h, structure, conv = conv_graph(rows.shape[1], 6, rng)
        pool = GraphPool(conv, structure)
        pool.name = "pool"
        g.add(pool)
        wd = g.parameter("wd", rng.standard_normal((6, 5)) * 0.6)
        bd = g.parameter("bd", rng.standard_normal(5) * 0.1)
        dense = g.relu(g.add_bias(g.matmul(pool, wd), bd))
        gather = GraphGather(dense, structure)
        gather.name = "gather"
        g.add(gather)
        wo = g.parameter("wo", rng.standard_normal((5, 1)) * 0.6)
        bo = g.parameter("bo", np.zeros(1))
        out = g.add_bias(g.matmul(gather, wo), bo)
        target = g.placeholder("target")
        weight = g.placeholder("weight")
        loss = g.weighted_mse(out, target, weight)
        feeds = {"h": rows + 0.05 * rng.standard_normal(rows.shape),
                 "structure": batch,
                 "target": rng.standard_normal((len(mols), 1)),
                 "weight": np.ones((len(mols), 1))}
        return g, loss, feeds

    @pytest.mark.parametrize("seed", range(6))
    def test_stack_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        smiles_list = unique_smiles(3, np.random.default_rng(seed + 50))
        g, loss, feeds = self._full_stack(smiles_list, rng)

        def evaluate():
            (value,) = g.forward(feeds, [loss])
            return float(value)

        evaluate()
        g.backward(loss)
        grads = {p.name: p.grad.copy() for p in g.parameters()}
        checked = 0
        for param in g.parameters():
            if not np.any(grads[param.name]):
                continue  # unused degree slot in this batch
            direction = rng.standard_normal(param.array.shape)
            direction /= np.linalg.norm(direction)
            analytic = float((grads[param.name] * direction).sum())
            numeric = central_difference_directional(evaluate, param.array,
                                                     direction)
            assert relative_error(analytic, numeric) < 1e-4, param.name
            checked += 1
        assert checked >= 4

    def test_empty_degree_gets_zero_gradient_and_adam_steps(self):
        rng = np.random.default_rng(23)
        g, loss, feeds = self._full_stack(["CCO", "CC"], rng)
        g.forward(feeds, [loss])
        g.backward(loss)
        unused = [p for p in g.parameters() if p.name in ("ws3", "wn3", "b3")]
        assert len(unused) == 3
        for param in unused:
            assert param.grad is not None
            assert param.grad.shape == param.array.shape
            assert not np.any(param.grad)
        before = [p.array.copy() for p in unused]
        Adam(g.parameters()).step()
        for param, old in zip(unused, before):
            assert np.array_equal(param.array, old)

    def test_atom_features_get_no_gradient_unless_named(self):
        rng = np.random.default_rng(29)
        g, loss, feeds = self._full_stack(["CCO", "CCC"], rng)
        g.forward(feeds, [loss])
        g.backward(loss)
        h_node = next(n for n in g.nodes if n.name == "h")
        assert h_node.grad is None

    def test_gradient_wrt_atom_features(self):
        rng = np.random.default_rng(17)
        g, loss, feeds = self._full_stack(["CCO", "CCC"], rng)
        h_value = feeds["h"]

        def evaluate():
            (value,) = g.forward(feeds, [loss])
            return float(value)

        evaluate()
        h_node = next(n for n in g.nodes if n.name == "h")
        g.backward(loss, inputs=(h_node,))
        direction = rng.standard_normal(h_value.shape)
        direction /= np.linalg.norm(direction)
        analytic = float((h_node.grad * direction).sum())
        numeric = central_difference_directional(evaluate, h_value, direction)
        assert relative_error(analytic, numeric) < 1e-4
