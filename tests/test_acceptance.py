"""Acceptance gate: eleven criteria, each printing one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Tolerances and budgets are pinned in the assertions, not
configurable. Gradient checks guard against finite-difference artifacts at
ReLU kinks and pooling ties (instances whose pre-activations sit within a
few step sizes of a switch are redrawn deterministically); the guard keeps
the central-difference oracle valid and is itself bounded by an assertion on
the redraw rate.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import brute_force_ci, brute_force_clusters, \
    central_difference_directional, epoch_cost_probe, holdout_fold_views, \
    relative_error
from dtanet.compounds import atom_feature_matrix, ecfp_matrix, tanimoto
from dtanet.data import inverse_transform, transform_value
from dtanet.domain import check_ad, fit_ad
from dtanet.engine import (
    Adam,
    AddBias,
    BatchNorm,
    Dropout,
    Graph,
    IndexedDense,
    Input,
    MatMul,
    Parameter,
    Relu,
    WeightedMse,
)
from dtanet.graphconv import GraphConv, GraphGather, GraphPool, pack_graphs
from dtanet.metrics import aggregate, concordance_index, evaluate_predictions
from dtanet.model import FeatureStore, Model, ModelConfig
from dtanet.proteins import psc
from dtanet.smiles import parse_table
from dtanet.splits import (
    audit_clusters,
    audit_cold,
    audit_warm,
    cluster_compounds,
    cold_cluster_split,
    cold_entity_split,
    warm_split,
)
from dtanet.synthetic import memory_dataset, random_sequence, unique_smiles, \
    write_fixture
from dtanet.tuning import Continuous, SearchSpace, gp_ei_search, random_search

H = 1e-5
GRAD_TOL = 1e-4
KINK_GUARD = 1e-3


@contextmanager
def criterion(number: int, name: str, budget_seconds: float | None = None):
    started = time.perf_counter()
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        elapsed = time.perf_counter() - started
        print(f"ACCEPTANCE {number:2d} {name}: {verdict} ({elapsed:.1f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, \
            f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"


# -- 1. gradient correctness ---------------------------------------------------


def _fd_all_params(graph, feeds, rng, rng_seed=None):
    def evaluate():
        fwd_rng = (np.random.default_rng(rng_seed)
                   if rng_seed is not None else None)
        return float(graph.forward(feeds, rng=fwd_rng))

    evaluate()
    graph.backward()
    grads = {p.name: p.grad.copy() for p in graph.parameters()}
    graph.zero_grad()
    for param in graph.parameters():
        if not np.any(grads[param.name]):
            continue  # parameter unused in this instance (e.g. empty degree)
        direction = rng.standard_normal(param.array.shape)
        direction /= max(np.linalg.norm(direction), 1e-12)
        analytic = float((grads[param.name] * direction).sum())
        numeric = central_difference_directional(evaluate, param.array,
                                                 direction, H)
        assert relative_error(analytic, numeric) < GRAD_TOL, \
            f"{param.name}: {analytic} vs {numeric}"


def _near_kink(graph, feeds, rng_seed=0) -> bool:
    """True when, in a training forward of ``feeds``, a ReLU input or
    pooling margin sits too close to a switch."""
    inputs = {}
    for layer in graph.layers:
        def compute(x, ctx, layer=layer, original=layer.compute):
            inputs[layer.name] = x
            return original(x, ctx)
        layer.compute = compute
    try:
        graph.forward(feeds, rng=np.random.default_rng(rng_seed))
    finally:
        for layer in graph.layers:
            del layer.compute
    for layer in graph.layers:
        if layer.op == "relu":
            if np.any(np.abs(inputs[layer.name]) < KINK_GUARD):
                return True
        if isinstance(layer, GraphConv):
            if np.any(np.abs(layer.saved[3]) < KINK_GUARD):
                return True
        if isinstance(layer, GraphPool):
            batch = layer.saved[0]
            h = inputs[layer.name]
            padded = np.vstack([h, np.full((1, h.shape[1]), -np.inf)])
            candidates = [h] + [padded[column]
                                for column in batch.neighbors.T]
            pooled = np.maximum.reduce(candidates)
            for vals in candidates:
                gaps = pooled - vals
                near = (gaps > 0.0) & (gaps < KINK_GUARD)
                if np.any(near):
                    return True
    return False


def _smooth_op_instance(op: str, seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    d = int(rng.integers(2, 9))
    feeds = {"x": rng.standard_normal((n, d))}
    layers = [Input("x")]
    if op == "matmul":
        m = int(rng.integers(1, 9))
        layers.append(MatMul(Parameter("w", rng.standard_normal((d, m)))))
        width = m
    elif op == "add_bias":
        layers.append(AddBias(Parameter("b", rng.standard_normal(d))))
        width = d
    elif op == "indexed_dense":
        # the rows of x joined with rows of a table, each row of which
        # several pairs read
        rows = int(rng.integers(2, 5))
        feeds.update(row=np.arange(n), t=rng.standard_normal((rows, 3)),
                     i=rng.integers(0, rows, size=n))
        layers = [IndexedDense([("x", "row"), ("t", "i")],
                               Parameter("w", rng.standard_normal((d + 3, 3))))]
        width = 3
    elif op == "batchnorm":
        layers.append(BatchNorm(
            Parameter("gamma", 1.0 + 0.2 * rng.standard_normal(d)),
            Parameter("beta", 0.2 * rng.standard_normal(d))))
        width = d
    elif op == "dropout":
        layers += [MatMul(Parameter("w", rng.standard_normal((d, d)))),
                   Dropout(0.4)]
        width = d
    elif op == "weighted_mse":
        layers.append(MatMul(Parameter("w", rng.standard_normal((d, 2)))))
        width = 2
    else:
        raise AssertionError(op)
    layers.append(WeightedMse())
    feeds["target"] = rng.standard_normal((n, width))
    feeds["weight"] = (rng.random((n, width)) > 0.2).astype(float)
    if not feeds["weight"].any():
        feeds["weight"][0, 0] = 1.0
    return Graph(layers), feeds


def _relu_instance(seed: int):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    g = Graph([Input("x"), MatMul(Parameter("w", rng.standard_normal((d, d)))),
               Relu(), WeightedMse()])
    feeds = {"x": rng.standard_normal((n, d)),
             "target": rng.standard_normal((n, d)),
             "weight": np.ones((n, d))}
    return g, feeds


def _graph_op_instance(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    smiles = unique_smiles(int(rng.integers(2, 5)),
                           np.random.default_rng(seed + 999))
    mols = parse_table(smiles)
    rows, batch = pack_graphs(mols, atom_feature_matrix(mols), 6)
    width_in = rows.shape[1]
    out_width = int(rng.integers(2, 7))
    if kind == "conv":
        w_self = [Parameter(f"ws{d}",
                            rng.standard_normal((width_in, out_width)) * 0.5)
                  for d in range(7)]
        w_nbr = [Parameter(f"wn{d}",
                           rng.standard_normal((width_in, out_width)) * 0.5)
                 for d in range(7)]
        bias = [Parameter(f"b{d}", rng.standard_normal(out_width) * 0.2)
                for d in range(7)]
        layers = [GraphConv(w_self, w_nbr, bias, "conv")]
    else:
        w = Parameter("w", rng.standard_normal((width_in, out_width)) * 0.5)
        layers = [MatMul(w), GraphPool("pool") if kind == "pool"
                  else GraphGather("gather")]
    wo = Parameter("wo", rng.standard_normal((out_width, 1)) * 0.5)
    g = Graph([Input("h"), *layers, MatMul(wo, "out"), WeightedMse()])
    n_out = batch.n_atoms if kind in ("conv", "pool") else batch.n_mols
    feeds = {"h": rows + 0.1 * rng.standard_normal(rows.shape),
             "graph_batch": batch,
             "target": rng.standard_normal((n_out, 1)),
             "weight": np.ones((n_out, 1))}
    return g, feeds


def _model_stack(variant: str, seed: int, **overrides):
    """A small model of ``variant`` and the feeds of its 8 pairs."""
    dataset = memory_dataset(n_compounds=5, n_proteins=3, n_pairs=8,
                             seed=seed)
    cfg = ModelConfig(**{**dict(
        variant=variant, hidden_layers=(6,), dropout_rates=(0.0,),
        fp_bits=512, conv_widths=(5,), conv_dense=6, seed=seed), **overrides})
    store = FeatureStore(dataset, cfg)
    model = store.build_model()
    feeds = store.feeds(np.arange(8), model=model)
    return model.graph, feeds


# The whole stacks criterion 1 checks: (variant, instances, config
# overrides, dropout seed).
MODEL_STACKS = (
    ("padme-graphconv", 6, {}, 0),
    ("padme-ecfp", 2, {}, 0),
    ("compound-only-ecfp", 2, {}, 0),
    ("compound-only-graphconv", 2, {}, 0),
    ("padme-ecfp", 1, {"use_batchnorm": False}, 0),
    ("padme-graphconv", 1, {"dropout_rates": (0.3,)}, 5),
)


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness (FD, rel < 1e-4, h=1e-5)",
                   budget_seconds=120):
        instances = 0
        redraws = 0
        rng = np.random.default_rng(0)
        for op in ("matmul", "add_bias", "indexed_dense", "batchnorm",
                   "weighted_mse"):
            for seed in range(10):
                g, feeds = _smooth_op_instance(op, 1000 + seed)
                _fd_all_params(g, feeds, rng)
                instances += 1
        for seed in range(10):
            g, feeds = _smooth_op_instance("dropout", 2000 + seed)
            _fd_all_params(g, feeds, rng, rng_seed=seed)
            instances += 1
        for kind, base in (("relu", 3000), ("conv", 4000), ("pool", 5000),
                           ("gather", 6000)):
            done = 0
            seed = base
            while done < 12:
                if kind == "relu":
                    g, feeds = _relu_instance(seed)
                else:
                    g, feeds = _graph_op_instance(kind, seed)
                if _near_kink(g, feeds):
                    redraws += 1
                    seed += 1000
                    continue
                _fd_all_params(g, feeds, rng)
                instances += 1
                done += 1
                seed += 1
        for variant, count, overrides, rng_seed in MODEL_STACKS:
            done = 0
            seed = 7000
            while done < count:
                g, feeds = _model_stack(variant, seed, **overrides)
                if _near_kink(g, feeds, rng_seed):
                    redraws += 1
                    seed += 1000
                    continue
                _fd_all_params(g, feeds, rng, rng_seed=rng_seed)
                instances += 1
                done += 1
                seed += 1
        assert instances >= 100, f"only {instances} instances checked"
        assert redraws <= instances * 0.3, \
            f"kink guard redrew {redraws} of {instances} instances"


# -- 2. overfit oracle ---------------------------------------------------------


def test_criterion_2_overfit_64_pairs():
    with criterion(2, "overfit: train RMSE < 0.05 within 2000 epochs",
                   budget_seconds=180):
        dataset = memory_dataset(n_compounds=32, n_proteins=8, n_pairs=64,
                                 seed=42)
        cfg = ModelConfig(variant="padme-ecfp", hidden_layers=(256, 256),
                          dropout_rates=(0.0,), fp_bits=2048, seed=42)
        store = FeatureStore(dataset, cfg)
        model = store.build_model()
        adam = Adam(model.graph.parameters(), learning_rate=1e-3)
        rng = np.random.default_rng(42)
        indices = np.arange(64)
        final_rmse = np.inf
        epochs_used = 0
        for epoch in range(1, 2001):
            order = rng.permutation(indices)
            for start in range(0, 64, 64):
                feeds = store.feeds(order[start:start + 64], model=model)
                model.graph.forward(feeds, rng=rng)
                model.graph.backward()
                adam.step()
                model.graph.zero_grad()
            epochs_used = epoch
            if epoch % 25 == 0:
                predicted = store.predict(model, indices)
                final_rmse = float(np.sqrt(np.mean(
                    (predicted - dataset.y) ** 2)))
                if final_rmse < 0.05:
                    break
        assert epochs_used <= 2000
        assert final_rmse < 0.05, f"train RMSE {final_rmse} after " \
                                  f"{epochs_used} epochs"


# -- 3. concordance index ------------------------------------------------------


def test_criterion_3_ci_equals_brute_force():
    with criterion(3, "CI == brute force on 500 instances; constant -> 0.5"):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 500:
            n = int(rng.integers(2, 51))
            if rng.random() < 0.5:  # tie-heavy integer grids half the time
                y = rng.integers(0, 5, size=n).astype(float)
                f = rng.integers(0, 5, size=n).astype(float)
            else:
                y = rng.normal(size=n)
                f = rng.normal(size=n)
            if np.all(y == y[0]):
                continue
            assert concordance_index(y, f) == brute_force_ci(y, f)
            checked += 1
        y = np.arange(20, dtype=float)
        assert concordance_index(y, np.full(20, 3.3)) == 0.5


# -- 4. applicability domain -----------------------------------------------------


def test_criterion_4_ad_reproduction():
    with criterion(4, "AD [5.0, 10.796] -> [4.131, 11.665] @1e-3"):
        ad = fit_ad([5.0, 10.796])
        assert abs(ad.lower - 4.131) < 1e-3
        assert abs(ad.upper - 11.665) < 1e-3
        for value in np.linspace(4.558, 10.123, 200):
            assert check_ad(ad, value)


# -- 5. protein descriptor -----------------------------------------------------


def test_criterion_5_psc_contract():
    with criterion(5, "PSC length 8421; block sums 1 +/- 1e-12 x1000"):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            seq = random_sequence(rng, (3, 60))
            d = psc(seq, phosphorylated=bool(rng.integers(0, 2)))
            assert d.shape == (8421,)
            assert abs(d[:20].sum() - 1.0) <= 1e-12
            assert abs(d[20:420].sum() - 1.0) <= 1e-12
            assert abs(d[420:8420].sum() - 1.0) <= 1e-12


# -- 6. value transform ----------------------------------------------------------


def test_criterion_6_transform_contract():
    with criterion(6, "remap 1e6->1e3 transforms to exactly 1.0; round-trip"):
        value = transform_value(1_000_000.0,
                                inactive_remap=(1_000_000.0, 1_000.0))
        assert value == 1.0
        rng = np.random.default_rng(5)
        for _ in range(500):
            raw = float(10.0 ** rng.uniform(-6, 9))
            value = transform_value(raw)
            assert abs(inverse_transform(value) - raw) / raw < 1e-9


# -- 7. split contracts ----------------------------------------------------------


def test_criterion_7_split_contracts():
    with criterion(7, "warm/cold/cluster/holdout split contracts"):
        rng = np.random.default_rng(77)
        drugs = [f"D{rng.integers(0, 40)}" for _ in range(600)]
        targets = [f"T{rng.integers(0, 25)}" for _ in range(600)]
        keep = [i for i in range(600)
                if drugs.count(drugs[i]) >= 2 and targets.count(targets[i]) >= 2]
        drugs = [drugs[i] for i in keep]
        targets = [targets[i] for i in keep]
        warm = warm_split(drugs, targets, k=5, seed=0)
        assert audit_warm(warm, drugs, targets) == []
        for axis, keys in (("drug", drugs), ("target", targets)):
            cold = cold_entity_split(drugs, targets, k=5, seed=0, axis=axis)
            leaks = audit_cold(cold, keys)
            assert all(not leak for leak in leaks.values())
        smiles = unique_smiles(200, np.random.default_rng(200))
        fps = ecfp_matrix(parse_table(smiles), 2, 512)
        clustering = cluster_compounds(fps, 0.7)
        sims = np.zeros((200, 200))
        for i in range(200):
            for j in range(200):
                sims[i, j] = tanimoto(fps[i], fps[j])
        oracle = brute_force_clusters(sims, 0.7)
        ours = {(i, j) for i in range(200) for j in range(200)
                if clustering.labels[i] == clustering.labels[j]}
        theirs = {(i, j) for i in range(200) for j in range(200)
                  if oracle[i] == oracle[j]}
        assert ours == theirs
        compound_of_record = np.repeat(np.arange(200), 2)
        cluster_assignment = cold_cluster_split(compound_of_record, clustering,
                                                k=5, seed=0)
        assert audit_clusters(
            cluster_assignment, clustering.labels[compound_of_record]) == []
        views = holdout_fold_views(1000, k=5, seed=0)
        for train_view, val_view in views.views:
            assert abs(train_view.size - 800) <= 1
            assert abs(val_view.size - 180) <= 1


# -- 8. aggregation --------------------------------------------------------------


def test_criterion_8_weighted_aggregation():
    with criterion(8, "aggregate([1.0,0.5],[2,8]) == 0.6; 61-task report"):
        value, _ = aggregate([1.0, 0.5], [2, 8])
        assert value == 0.6
        rng = np.random.default_rng(61)
        n = 600
        y = rng.normal(size=(n, 61))
        f = y + rng.normal(scale=0.2, size=(n, 61))
        w = (rng.random((n, 61)) > 0.5).astype(float)
        report = evaluate_predictions(y, f, w)
        counts = [t.n_records for t in report.tasks]
        expected = sum(t.rmse * c for t, c in zip(report.tasks, counts)) \
            / sum(counts)
        assert report.rmse == pytest.approx(expected, abs=1e-15)
        assert report.ci is not None


# -- 9. scalability probe ---------------------------------------------------------


def test_criterion_9_epoch_cost_scales_linearly():
    with criterion(9, "per-epoch time ratio <= 2.5 per doubling (1k/2k/4k)"):
        # Shared-machine wall-clock noise is heavy and one-sided, so the
        # ratio is estimated two ways with disjoint noise failure modes:
        # (a) the median of ratios formed pairwise within interleaved rounds
        # (back-to-back sizes share the load environment), and (b) the ratio
        # of per-size floors (minimum over all rounds, the least-contaminated
        # estimate of intrinsic cost). A genuine super-linear cost inflates
        # both; the criterion fails only when both estimators exceed the
        # bound, which keeps full power against real scaling regressions.
        times = {1000: [], 2000: [], 4000: []}
        ratios_12 = []
        ratios_24 = []
        for _ in range(5):
            t1 = epoch_cost_probe(1000, seed=0, timed_epochs=3)
            t2 = epoch_cost_probe(2000, seed=0, timed_epochs=3)
            t4 = epoch_cost_probe(4000, seed=0, timed_epochs=3)
            times[1000].append(t1)
            times[2000].append(t2)
            times[4000].append(t4)
            ratios_12.append(t2 / t1)
            ratios_24.append(t4 / t2)
        floors = {n: min(v) for n, v in times.items()}
        r12 = min(float(np.median(ratios_12)), floors[2000] / floors[1000])
        r24 = min(float(np.median(ratios_24)), floors[4000] / floors[2000])
        assert r12 <= 2.5, f"1k->2k ratio {r12:.2f} (rounds: {ratios_12})"
        assert r24 <= 2.5, f"2k->4k ratio {r24:.2f} (rounds: {ratios_24})"


# -- 10. hyperparameter search -----------------------------------------------------


def test_criterion_10_gp_ei_beats_paired_random():
    with criterion(10, "GP-EI lands within 0.05 and <= paired random",
                   budget_seconds=60):
        space = SearchSpace(dimensions={"x": Continuous(0.0, 1.0)})

        def objective(point):
            return (point["x"] - 0.3) ** 2

        for seed in (0, 1, 2):
            gp_result = gp_ei_search(space, objective, budget=30, n_init=10,
                                     seed=seed)
            random_result = random_search(space, objective, budget=30,
                                          seed=seed)
            assert abs(gp_result.best.point["x"] - 0.3) < 0.05
            assert gp_result.best.value <= random_result.best.value
        a = gp_ei_search(space, objective, budget=30, n_init=10, seed=9)
        b = gp_ei_search(space, objective, budget=30, n_init=10, seed=9)
        assert [t.value for t in a.trials] == [t.value for t in b.trials]


# -- 11. end-to-end smoke -----------------------------------------------------------


def test_criterion_11_end_to_end_smoke(tmp_path):
    with criterion(11, "pipeline smoke: 4 schemes, tiny train, < 5 min",
                   budget_seconds=300):
        from dtanet.pipeline import end_to_end_smoke

        fixture = tmp_path / "fixture"
        write_fixture(fixture, n_compounds=20, n_proteins=10, seed=0)
        stages = end_to_end_smoke(fixture, tmp_path / "work", seed=0)
        assert stages == ["ingest", "featurize", "split", "train",
                          "predict", "evaluate"]
