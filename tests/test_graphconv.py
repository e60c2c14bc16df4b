"""Graph convolution operators: semantics, gradients, equivariance."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    central_difference_directional,
    check_layer_gradients,
    context,
    join_tables,
    molecule_table,
    molecule_view,
    relative_error,
)
from dtanet.compounds import atom_feature_matrix, atom_features
from dtanet.engine import (
    AddBias,
    Adam,
    Graph,
    Input,
    Layer,
    MatMul,
    Parameter,
    Relu,
    WeightedMse,
    fed,
)
from dtanet.graphconv import (
    GraphConv,
    GraphGather,
    GraphPool,
    GraphStructureError,
    PackedGraphs,
    RestoreAtomOrder,
    pack_graphs,
)
from dtanet.smiles import BondOrder, parse_smiles, parse_table
from dtanet.synthetic import unique_smiles

MAX_DEGREE = 6


def packed(smiles_list):
    mols = parse_table(smiles_list)
    return pack_graphs(mols, atom_feature_matrix(mols), MAX_DEGREE)


def pack_molecules(mols):
    """``pack_graphs`` of the one-molecule tables ``mols``, joined."""
    table = join_tables(mols)
    return pack_graphs(table, atom_feature_matrix(table), MAX_DEGREE)


def conv_layer(width_in, width_out, rng, identity=False):
    """A conv layer with seven degrees of parameters."""
    if identity:
        make_w = lambda: np.eye(width_in)
        make_b = lambda: np.zeros(width_out)
    else:
        make_w = lambda: rng.standard_normal((width_in, width_out)) * 0.6
        make_b = lambda: rng.standard_normal(width_out) * 0.1
    w_self = [Parameter(f"ws{d}", make_w()) for d in range(MAX_DEGREE + 1)]
    w_nbr = [Parameter(f"wn{d}", make_w()) for d in range(MAX_DEGREE + 1)]
    bias = [Parameter(f"b{d}", make_b()) for d in range(MAX_DEGREE + 1)]
    return GraphConv(w_self, w_nbr, bias, "conv")


def conv_graph(width_in, width_out, rng, identity=False):
    """A graph of the feed ``h`` and one conv layer."""
    return Graph([Input("h"), conv_layer(width_in, width_out, rng, identity)])


class TestConvSemantics:
    def test_isolated_atom_identity_weights(self):
        rows, batch = packed(["C"])
        g = conv_graph(rows.shape[1], rows.shape[1],
                       np.random.default_rng(0), identity=True)
        out = g.forward({"h": rows, "graph_batch": batch})
        assert np.array_equal(out, np.maximum(rows, 0.0))

    def test_edge_sums_neighbor(self):
        rows, batch = packed(["CC"])
        # identity self and neighbor weights, nonnegative features
        g = conv_graph(rows.shape[1], rows.shape[1],
                       np.random.default_rng(0), identity=True)
        out = g.forward({"h": rows, "graph_batch": batch})
        assert np.allclose(out[0], rows[0] + rows[1])
        assert np.allclose(out[1], rows[0] + rows[1])

    def test_degree_out_of_range(self):
        mol = parse_smiles("C(C)(C)(C)(C)(C)C")
        feats = atom_features(mol)
        with pytest.raises(GraphStructureError, match="degree 6"):
            pack_graphs(mol, feats, max_degree=5)

    def test_empty_molecule_rejected(self):
        with pytest.raises(GraphStructureError, match="empty batch"):
            pack_graphs(parse_table([]), np.zeros((0, 0)))


class TestPoolSemantics:
    def _pool(self, rows, batch):
        g = Graph([Input("h"), GraphPool("pool")])
        return g.forward({"h": rows, "graph_batch": batch})

    def test_path_maxima(self):
        # path A-B-C with scalar features [1, 5, 2] -> [5, 5, 5]
        _, batch = packed(["CCC"])
        rows = np.array([[1.0], [5.0], [2.0]])
        pooled = self._pool(rows[batch.atom_ids], batch)[batch.restore]
        assert pooled.ravel().tolist() == [5.0, 5.0, 5.0]

    def test_isolated_atom_unchanged(self):
        _, batch = packed(["C"])
        rows = np.array([[3.5, -1.0]])
        assert np.array_equal(self._pool(rows, batch), rows)

    def test_tie_routes_to_lowest_atom_index(self):
        _, batch = packed(["CC"])
        rows = np.array([[2.0], [2.0]])  # tie in both neighborhoods
        pool = GraphPool("pool")
        pool.compute(rows, context({"graph_batch": batch}))
        dh = pool.backprop(np.ones((2, 1)), True)
        # both segments pick atom 0, so all gradient lands there
        assert dh[1, 0] == 0.0
        assert dh[0, 0] != 0.0


class TestGatherSemantics:
    def _gather(self, rows, batch):
        g = Graph([Input("h"), GraphGather("gather")])
        return g.forward({"h": rows, "graph_batch": batch})

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
        g = conv_graph(fa.shape[1], 8, rng)
        _, batch_a = pack_graphs(a, fa, MAX_DEGREE)
        _, batch_b = pack_graphs(b, fb, MAX_DEGREE)
        out_a = g.forward({"h": fa[batch_a.atom_ids], "graph_batch": batch_a})
        out_a = out_a[batch_a.restore]
        out_b = g.forward({"h": fb[batch_b.atom_ids], "graph_batch": batch_b})
        out_b = out_b[batch_b.restore]
        assert np.allclose(out_a[[2, 1, 0]], out_b)


class TestGradients:
    def _full_stack(self, smiles_list, rng):
        """conv -> pool -> dense -> gather -> dense, scalar loss."""
        rows, batch = packed(smiles_list)
        layers = [Input("h"), conv_layer(rows.shape[1], 6, rng),
                  GraphPool("pool"),
                  MatMul(Parameter("wd", rng.standard_normal((6, 5)) * 0.6)),
                  AddBias(Parameter("bd", rng.standard_normal(5) * 0.1)),
                  Relu(), GraphGather("gather"),
                  MatMul(Parameter("wo", rng.standard_normal((5, 1)) * 0.6),
                         "out_matmul"),
                  AddBias(Parameter("bo", np.zeros(1)), "out"), WeightedMse()]
        feeds = {"h": rows + 0.05 * rng.standard_normal(rows.shape),
                 "graph_batch": batch,
                 "target": rng.standard_normal((len(smiles_list), 1)),
                 "weight": np.ones((len(smiles_list), 1))}
        return Graph(layers), feeds

    @pytest.mark.parametrize("seed", range(6))
    def test_stack_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        smiles_list = unique_smiles(3, np.random.default_rng(seed + 50))
        g, feeds = self._full_stack(smiles_list, rng)

        def evaluate():
            return float(g.forward(feeds))

        evaluate()
        g.backward()
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
        g, feeds = self._full_stack(["CCO", "CC"], rng)
        g.forward(feeds)
        g.backward()
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
        g, feeds = self._full_stack(["CCO", "CCC"], rng)
        conv = g.layers[1]
        asked = []

        def backprop(grad, need_input, original=conv.backprop):
            asked.append(need_input)
            return original(grad, need_input)

        conv.backprop = backprop
        g.forward(feeds)
        g.backward()
        assert asked == [False]

    def test_gradient_wrt_atom_features(self):
        rng = np.random.default_rng(17)
        g, feeds = self._full_stack(["CCO", "CCC"], rng)
        check_layer_gradients(g.layers[1], feeds["h"].copy(), rng, feeds)

    @pytest.mark.parametrize("layer", [
        GraphPool("pool"), RestoreAtomOrder("order"),
        GraphGather("gather")], ids=["pool", "restore", "gather"])
    def test_parameter_free_input_gradients(self, layer):
        # distinct entries, so no pooling maximum ties
        rng = np.random.default_rng(19)
        _, batch = packed(["CCO", "CC(C)C"])
        check_layer_gradients(layer, rng.standard_normal((batch.n_atoms, 3)),
                              rng, {"graph_batch": batch})


# -- parity with the edge-list implementation ---------------------------------
#
# A reference topology (directed edge lists, concatenated sorted candidate
# lists) and operators that run on it with ``np.add.at`` / ``reduceat``.
# The table-based operators must match it bitwise: same summation order,
# same pool winners.


@dataclass
class _EdgeBatch:
    degree_index: tuple
    edge_src: np.ndarray
    edge_dst: np.ndarray
    pool_flat: np.ndarray
    pool_starts: np.ndarray
    pool_segment_of: np.ndarray


def _edge_batch(graphs, max_degree=MAX_DEGREE):
    degrees, edge_src, edge_dst, pool_flat, pool_starts = [], [], [], [], []
    offset = 0
    for g in map(molecule_view, graphs):
        for i in range(g.n_atoms):
            atom = offset + i
            nbrs = g.adjacency[i]
            degrees.append(len(nbrs))
            pool_starts.append(len(pool_flat))
            pool_flat.extend(sorted([atom] + [offset + j for j in nbrs]))
            for j in nbrs:
                edge_src.append(offset + j)
                edge_dst.append(atom)
        offset += g.n_atoms
    degrees = np.asarray(degrees)
    counts = np.diff(np.append(pool_starts, len(pool_flat)))
    return _EdgeBatch(
        degree_index=tuple(np.flatnonzero(degrees == d)
                           for d in range(max_degree + 1)),
        edge_src=np.asarray(edge_src, dtype=np.int64),
        edge_dst=np.asarray(edge_dst, dtype=np.int64),
        pool_flat=np.asarray(pool_flat), pool_starts=np.asarray(pool_starts),
        pool_segment_of=np.repeat(np.arange(offset), counts))


class _EdgeConv(GraphConv):
    """The convolution over the edge lists of the feed ``edge_batch``."""

    def compute(self, h, ctx):
        batch = fed(ctx, "edge_batch", numeric=False)
        w_self, w_nbr, bias = self._params()
        nbr_sum = np.zeros_like(h)
        np.add.at(nbr_sum, batch.edge_dst, h[batch.edge_src])
        z = np.empty((h.shape[0], w_self[0].array.shape[1]))
        for d, idx in enumerate(batch.degree_index):
            if idx.size == 0:
                continue
            z[idx] = (h[idx] @ w_self[d].array
                      + nbr_sum[idx] @ w_nbr[d].array + bias[d].array)
        self.saved = (h, batch, nbr_sum, z, z > 0.0)
        return np.where(z > 0.0, z, 0.0)

    def backprop(self, grad, need_input):
        h, batch, nbr_sum, _, mask = self.saved
        w_self, w_nbr, bias = self._params()
        dz = grad * mask
        dh = np.zeros_like(h)
        dnbr = np.zeros_like(h)
        for d, idx in enumerate(batch.degree_index):
            if idx.size == 0:
                continue
            w_self[d].grad = h[idx].T @ dz[idx]
            w_nbr[d].grad = nbr_sum[idx].T @ dz[idx]
            bias[d].grad = dz[idx].sum(axis=0)
            dh[idx] += dz[idx] @ w_self[d].array.T
            dnbr[idx] = dz[idx] @ w_nbr[d].array.T
        np.add.at(dh, batch.edge_src, dnbr[batch.edge_dst])
        return dh


class _EdgePool(Layer):
    """The pooling over the edge lists of the feed ``edge_batch``."""

    op = "graph_pool"

    def compute(self, h, ctx):
        batch = fed(ctx, "edge_batch", numeric=False)
        candidates = h[batch.pool_flat]
        pooled = np.maximum.reduceat(candidates, batch.pool_starts, axis=0)
        is_max = candidates == pooled[batch.pool_segment_of]
        positions = np.where(is_max, batch.pool_flat[:, None], h.shape[0])
        self.saved = (h.shape, np.minimum.reduceat(positions,
                                                   batch.pool_starts, axis=0))
        return pooled

    def backprop(self, grad, need_input):
        shape, winners = self.saved
        rows = winners.ravel()
        cols = np.tile(np.arange(grad.shape[1]), winners.shape[0])
        contribution = np.zeros(shape)
        np.add.at(contribution, (rows, cols), grad.ravel())
        return contribution


class _InputGrad(Layer):
    """The identity on the atom features, with a parameter of its own: the
    first conv then forms the features' gradient, which this layer keeps
    in ``grad``."""

    op = "input_grad"

    def __init__(self):
        super().__init__("h_grad", (Parameter("h_grad.unused", np.zeros(1)),))
        self.grad = None

    def compute(self, x, ctx):
        return x

    def backprop(self, grad, need_input):
        self.params[0].grad = np.zeros(1)
        self.grad = grad


def pool_values(g) -> list:
    """Each pool's input and output in the latest pass, recorded as it runs."""
    seen = []
    for layer in g.layers:
        if layer.op == "graph_pool":
            def compute(h, ctx, original=layer.compute):
                seen.append((h, original(h, ctx)))
                return seen[-1][1]
            layer.compute = compute
    return seen


def _random_molecule(rng, n_atoms):
    """A random simple graph on ``n_atoms`` carbons, degrees at most 6."""
    pairs = [(i, j) for i in range(n_atoms) for j in range(i + 1, n_atoms)]
    degree = [0] * n_atoms
    bonds = []
    for k in rng.permutation(len(pairs)):
        i, j = pairs[k]
        if degree[i] < MAX_DEGREE and degree[j] < MAX_DEGREE \
                and rng.random() < 0.45:
            bonds.append((i, j, BondOrder.SINGLE))
            degree[i] += 1
            degree[j] += 1
    return _carbons(n_atoms, bonds)


def _carbons(n_atoms, bonds=()):
    """A hand-built graph of ``n_atoms`` bare carbons (no hydrogens, no
    ring flags) joined by ``bonds``."""
    return molecule_table(["C"] * n_atoms, [0] * n_atoms, [0] * n_atoms,
                          [False] * n_atoms, [False] * n_atoms, bonds)


def _parity_batch(seed):
    """Random molecules plus an isolated atom and a degree-6 star, in a
    shuffled order; features on a coarse grid so maxima tie often."""
    rng = np.random.default_rng(seed)
    star = _carbons(7, [(0, j, BondOrder.SINGLE) for j in range(1, 7)])
    mols = [_random_molecule(rng, int(rng.integers(1, 10)))
            for _ in range(int(rng.integers(3, 8)))]
    mols += [_carbons(1), star]
    mols = [mols[k] for k in rng.permutation(len(mols))]
    rows, batch = pack_molecules(mols)
    h = rng.integers(-2, 3, size=(rows.shape[0], 5)).astype(float)
    return mols, batch, h


def _parity_stack(conv_cls, pool_cls, seed, degree_ordered=True):
    """feature gradient probe -> conv -> pool -> conv -> pool -> gather ->
    dense, scalar loss; the parameters depend only on ``seed``. A
    degree-ordered stack returns its rows to original atom order before the
    gather."""
    rng = np.random.default_rng(seed + 1000)
    layers = [Input("h"), _InputGrad()]
    for li, (w_in, w_out) in enumerate([(5, 4), (4, 3)]):
        def weights(tag):
            return [Parameter(f"{tag}{li}.{d}",
                              np.round(rng.standard_normal((w_in, w_out)), 1))
                    for d in range(MAX_DEGREE + 1)]
        w_self, w_nbr = weights("ws"), weights("wn")
        bias = [Parameter(f"b{li}.{d}", np.round(rng.standard_normal(w_out), 1))
                for d in range(MAX_DEGREE + 1)]
        layers.append(conv_cls(w_self, w_nbr, bias, f"conv{li}"))
        layers.append(pool_cls(f"pool{li}"))
    if degree_ordered:
        layers.append(RestoreAtomOrder("atom_order"))
    layers += [GraphGather("gather"),
               MatMul(Parameter("wo", rng.standard_normal((3, 1)))),
               WeightedMse()]
    return Graph(layers)


def _parity_results(mols, batch, h_value, seed, training):
    """The parity stack on ``batch`` (``h_value`` in original atom order)
    and on the edge lists of ``mols``: pooled values, winners, parameter
    gradients, input gradient and loss of each, in original atom order.
    Without ``training`` the degree-ordered stack runs ``Graph.infer``,
    which gives pooled values and loss only (``None`` for the rest)."""
    feeds = {"h": h_value, "graph_batch": batch,
             "target": np.zeros((len(mols), 1)),
             "weight": np.ones((len(mols), 1))}
    # the degree-ordered rows, read back through the permutation
    g = _parity_stack(GraphConv, GraphPool, seed)
    seen = pool_values(g)
    ordered = {**feeds, "h": h_value[batch.atom_ids]}
    order = batch.restore
    pools = [layer for layer in g.layers if layer.op == "graph_pool"]
    if training:
        out = g.forward(ordered)
        g.backward()
        results = [(
            [pooled[order] for _, pooled in seen],
            [batch.atom_ids[pool.saved[1]][order] for pool in pools],
            {p.name: p.grad for p in g.parameters()},
            g.layers[1].grad[order], out)]
    else:
        out = g.infer(ordered)
        results = [([pooled[order] for _, pooled in seen], None, None, None,
                    out)]
    g = _parity_stack(_EdgeConv, _EdgePool, seed, degree_ordered=False)
    seen = pool_values(g)
    out = g.forward({**feeds, "edge_batch": _edge_batch(mols)})
    g.backward()
    results.append((
        [pooled for _, pooled in seen],
        [layer.saved[1] for layer in g.layers if layer.op == "graph_pool"],
        {p.name: p.grad for p in g.parameters()},
        g.layers[1].grad, out))
    return results


def _assert_parity(new, ref):
    new_pooled, new_winners, new_grads, new_dh, new_loss = new
    ref_pooled, ref_winners, ref_grads, ref_dh, ref_loss = ref
    for a, b in zip(new_pooled, ref_pooled):
        assert np.array_equal(a, b)
    assert np.array_equal(new_loss, ref_loss)
    if new_winners is None:  # an inference pass keeps neither
        return
    for a, b in zip(new_winners, ref_winners):
        assert np.array_equal(a, b)
    assert new_grads.keys() == ref_grads.keys()
    for name in new_grads:
        assert np.array_equal(new_grads[name], ref_grads[name]), name
    assert np.array_equal(new_dh, ref_dh)


class TestTableParity:
    def _run(self, seed, training):
        mols, batch, h_value = _parity_batch(seed)
        return batch, _parity_results(mols, batch, h_value, seed, training)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise_equal_to_edge_lists(self, seed, training):
        batch, (new, ref) = self._run(seed, training)
        assert batch.degrees.max() == MAX_DEGREE
        assert (batch.degrees == 0).any()
        _assert_parity(new, ref)

    @pytest.mark.parametrize("seed", range(8))
    def test_batches_contain_contested_maxima(self, seed):
        # the winner comparison is only meaningful if maxima tie
        mols, batch, h_value = _parity_batch(seed)
        g = _parity_stack(GraphConv, GraphPool, seed)
        seen = pool_values(g)
        g.forward({"h": h_value, "graph_batch": batch,
                   "target": np.zeros((len(mols), 1)),
                   "weight": np.ones((len(mols), 1))})
        for h_in, pooled in seen:
            padded = np.vstack([h_in, np.full((1, h_in.shape[1]), -np.inf)])
            hits = (h_in == pooled).astype(int)
            for column in batch.neighbors.T:
                hits += padded[column] == pooled
            assert (hits >= 2).any()

    def test_winners_in_a_forward_and_no_inference(self):
        mols, batch, h_value = _parity_batch(3)
        g = _parity_stack(GraphConv, GraphPool, 3)
        pools = [layer for layer in g.layers if layer.op == "graph_pool"]
        feeds = {"h": h_value, "graph_batch": batch,
                 "target": np.zeros((len(mols), 1)),
                 "weight": np.ones((len(mols), 1))}
        g.forward(feeds)
        assert all(p.saved[1] is not None for p in pools)
        g.infer(feeds)
        assert all(p.saved is None for p in pools)


def _degree_index(batch):
    """The rows of each degree, as the index arrays that the per-degree
    gathers used."""
    return tuple(np.flatnonzero(batch.degrees == d)
                 for d in range(MAX_DEGREE + 1))


class _PerUseGatherConv(GraphConv):
    """``GraphConv`` with its backward gathering ``dz[idx]`` at each use."""

    def backprop(self, grad, need_input):
        h, batch, nbr_sum, _, mask = self.saved
        w_self, w_nbr, bias = self._params()
        dz = grad * mask
        if need_input:
            dh = np.zeros_like(h)
            dnbr = np.zeros((h.shape[0] + 1, h.shape[1]))
        for d, idx in enumerate(_degree_index(batch)):
            if idx.size == 0:
                continue
            w_self[d].grad = h[idx].T @ dz[idx]
            w_nbr[d].grad = nbr_sum[idx].T @ dz[idx]
            bias[d].grad = dz[idx].sum(axis=0)
            if need_input:
                dh[idx] += dz[idx] @ w_self[d].array.T
                dnbr[idx] = dz[idx] @ w_nbr[d].array.T
        if not need_input:
            return None
        for column in batch.neighbors.T:
            dh += dnbr[column]
        return dh


class TestGatherOnce:
    @pytest.mark.parametrize("seed", range(4))
    def test_backward_bitwise_equal_to_per_use_gathers(self, seed):
        mols, batch, _ = _parity_batch(seed)
        rng = np.random.default_rng(seed + 70)
        feeds = {"h": rng.standard_normal((batch.n_atoms, 5)),
                 "graph_batch": batch,
                 "target": rng.standard_normal((len(mols), 1)),
                 "weight": np.ones((len(mols), 1))}
        grads = []
        for conv_cls in (GraphConv, _PerUseGatherConv):
            g = _parity_stack(conv_cls, GraphPool, seed)
            g.forward(feeds)
            g.backward()
            grads.append(({p.name: p.grad for p in g.parameters()},
                          g.layers[1].grad))
        (new, new_dh), (old, old_dh) = grads
        assert new.keys() == old.keys()
        for name in new:
            assert np.array_equal(new[name], old[name]), name
        assert np.array_equal(new_dh, old_dh)
        assert any(new[name].any() for name in new if name.startswith("ws0"))


def in_original_order(batch):
    """The neighbor table and degrees of ``batch`` in original atom ids."""
    ids = np.append(batch.atom_ids, batch.n_atoms)
    return ids[batch.neighbors][batch.restore], batch.degrees[batch.restore]


class TestPackTable:
    def test_rows_list_sorted_neighbors_padded_with_n_atoms(self):
        _, batch = packed(["CC(C)O", "C", "c1ccccc1"])
        assert batch.n_atoms == 11
        table, degrees = in_original_order(batch)
        assert table.shape == (11, 3)
        assert table[1].tolist() == [0, 2, 3]
        assert table[4].tolist() == [11, 11, 11]  # the isolated carbon
        assert table[5].tolist() == [6, 10, 11]   # ring closure, then padding
        assert degrees.tolist() == [1, 3, 1, 1, 0, 2, 2, 2, 2, 2, 2]

    def test_degree_error_names_the_first_offending_atom(self):
        mols = parse_table(["CC", "CC(C)(C)(C)(C)C"])
        with pytest.raises(GraphStructureError,
                           match="atom 1 has degree 6, max supported is 5"):
            pack_graphs(mols, atom_feature_matrix(mols), max_degree=5)

    def test_empty_molecule_rejected(self):
        empty = _carbons(0)
        with pytest.raises(GraphStructureError, match="empty molecule"):
            pack_graphs(join_tables([parse_smiles("C"), empty]),
                        atom_features(parse_smiles("C")))


def _pack_molecules():
    """Molecules for one pack: an isolated atom, a degree-6 star, a bond, a
    branched chain and random graphs (degrees up to 4)."""
    rng = np.random.default_rng(77)
    star = _carbons(7, [(0, j, BondOrder.SINGLE) for j in range(1, 7)])
    mols = [_carbons(1), star, parse_smiles("CC"),
            parse_smiles("CC(C)(C)CC(C)O")]
    while len(mols) < 10:
        mol = _random_molecule(rng, int(rng.integers(2, 9)))
        if np.diff(mol.neighbors()[0]).max() <= 4:
            mols.append(mol)
    return mols


_PACK_MOLECULES = _pack_molecules()
_PACK = PackedGraphs.from_table(
    join_tables(_PACK_MOLECULES),
    np.concatenate([atom_features(m) for m in _PACK_MOLECULES]), MAX_DEGREE)


class TestStoreBatches:
    """A batch selected from a pack, in any molecule order, is the edge-list
    reference read through ``atom_ids``/``restore``."""

    @settings(max_examples=40, deadline=None)
    @given(selection=st.lists(st.integers(0, len(_PACK_MOLECULES) - 1),
                              min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 16), training=st.booleans())
    @example(selection=[1, 0], seed=0, training=True)  # degrees 0, 1, 6 only
    @example(selection=[0], seed=1, training=False)
    def test_bitwise_equal_to_edge_lists(self, selection, seed, training):
        mols = [_PACK_MOLECULES[i] for i in selection]
        rows, batch = _PACK.batch(selection)
        original = np.concatenate([atom_features(m) for m in mols])
        assert np.array_equal(rows, original[batch.atom_ids])
        n = batch.n_atoms
        assert np.array_equal(batch.restore[batch.atom_ids], np.arange(n))
        # rows ascend by degree, each degree's rows by original id
        assert (np.diff(batch.degrees) >= 0).all()
        for d, rows_d in enumerate(batch.slices):
            assert (batch.degrees[rows_d] == d).all()
            assert (np.diff(batch.atom_ids[rows_d]) > 0).all()
        h_value = np.random.default_rng(seed).integers(
            -2, 3, size=(n, 5)).astype(float)
        new, ref = _parity_results(mols, batch, h_value, seed, training)
        _assert_parity(new, ref)

    def test_empty_selection_refused(self):
        with pytest.raises(GraphStructureError, match="empty batch"):
            _PACK.batch(np.array([], dtype=np.int64))

    def test_pack_graphs_is_the_pack_of_its_molecules(self):
        mols = _PACK_MOLECULES[2:5]
        rows, batch = pack_molecules(mols)
        rows_again, again = _PACK.batch([2, 3, 4])
        assert np.array_equal(rows, rows_again)
        for field in ("degrees", "atom_ids", "restore", "neighbors",
                      "closed", "mol_starts", "mol_sizes"):
            assert np.array_equal(getattr(batch, field),
                                  getattr(again, field)), field
        assert batch.slices == again.slices
