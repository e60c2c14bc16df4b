"""Training loop: early stopping, determinism, composite score."""

import re
from dataclasses import replace

import numpy as np
import pytest

import dtanet.training as training
from dtanet import engine
from dtanet.engine import Adam, NonFiniteError, RowSelection
from dtanet.model import FeatureStore, ModelConfig, ModelError
from dtanet.synthetic import memory_dataset
from conftest import epoch_cost_probe
from test_engine import textbook_adam
from dtanet.training import (
    TrainConfig,
    TrainingError,
    composite_score,
    train,
    validation_scores,
)


def make_setup(seed=0, n_pairs=40, **cfg_overrides):
    dataset = memory_dataset(n_compounds=12, n_proteins=6, n_pairs=n_pairs,
                             seed=seed)
    base = dict(variant="padme-ecfp", hidden_layers=(32,),
                dropout_rates=(0.0,), fp_bits=512, seed=seed)
    base.update(cfg_overrides)
    store = FeatureStore(dataset, ModelConfig(**base))
    return dataset, store, store.build_model()


class TestCompositeScore:
    def test_perfect_predictor_scores_minus_one(self):
        y = np.linspace(0.0, 3.0, 20)
        task_rmse = [float(np.sqrt(np.mean((y - y) ** 2)))]
        from dtanet.metrics import concordance_index
        task_ci = [concordance_index(y, y)]
        score, fallback = composite_score(task_rmse, task_ci)
        assert score == -1.0
        assert not fallback

    def test_fallback_without_comparable_pairs(self):
        score, fallback = composite_score([0.5], [None])
        assert score == 0.5
        assert fallback

    def test_no_records_at_all(self):
        with pytest.raises(TrainingError, match="no validation task"):
            composite_score([None], [None])

    def test_validation_scores_on_perfect_model(self):
        dataset, store, model = make_setup(seed=2, n_pairs=30)
        idx = np.arange(30)
        train(model, store, idx, np.array([], dtype=np.int64),
              TrainConfig(batch_size=30, max_epochs=300, patience=300,
                          learning_rate=3e-3, seed=0))
        _, _, score, fallback, _ = validation_scores(model, store, idx)
        assert score < -0.9  # near the -1 extreme after memorization
        assert not fallback


class TestLoop:
    def test_constant_target_loss_monotone_first_five_epochs(self):
        dataset, store, model = make_setup(seed=1)
        dataset.y[:] = 2.0  # constant target
        idx = np.arange(dataset.n_pairs)
        result = train(model, store, idx[:32], idx[32:], TrainConfig(
            batch_size=8, max_epochs=5, patience=5, learning_rate=1e-3,
            seed=0))
        losses = [row.train_loss for row in result.history[:5]]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_patience_one_worsening_stops_after_two_evals(self, monkeypatch):
        dataset, store, model = make_setup(seed=3)
        scripted = iter([0.5, 0.7, 0.9, 1.1])

        def fake_scores(*args, **kwargs):
            return (0.5,), (None,), next(scripted), True, None

        monkeypatch.setattr(training, "validation_scores", fake_scores)
        idx = np.arange(dataset.n_pairs)
        result = train(model, store, idx[:30], idx[30:], TrainConfig(
            batch_size=16, max_epochs=50, patience=1, seed=0))
        assert sum(row.composite is not None for row in result.history) == 2

    def test_best_checkpoint_is_minimum_composite(self):
        dataset, store, model = make_setup(seed=4)
        idx = np.arange(dataset.n_pairs)
        result = train(model, store, idx[:32], idx[32:], TrainConfig(
            batch_size=8, max_epochs=12, patience=12, seed=0))
        observed = [row.composite for row in result.history
                    if row.composite is not None]
        assert result.best_score == min(observed)

    def test_seed_determinism_bitwise(self):
        def run():
            dataset, store, model = make_setup(seed=5)
            idx = np.arange(dataset.n_pairs)
            result = train(model, store, idx[:32], idx[32:], TrainConfig(
                batch_size=8, max_epochs=6, patience=6, seed=11))
            return result, model.graph.state_dict()
        (a, a_state), (b, b_state) = run(), run()
        assert [r.train_loss for r in a.history] == \
               [r.train_loss for r in b.history]
        assert [r.composite for r in a.history] == \
               [r.composite for r in b.history]
        assert a_state.keys() == b_state.keys()
        for name in a_state:
            assert np.array_equal(a_state[name], b_state[name])

    def test_empty_train_set_rejected(self):
        dataset, store, model = make_setup(seed=6)
        with pytest.raises(TrainingError, match="empty training set"):
            train(model, store, np.array([], dtype=np.int64),
                  np.arange(4), TrainConfig())

    @pytest.mark.parametrize("train_idx, val_idx, entry", [
        ([0.5, 1.5, 2.7, 3.2], [10, 11], "0.5 (entry 0)"),
        ([True, False, True], [10, 11], "True (entry 0)"),
        ([0, 1, 2, 3], [10.9, 11.1], "10.9 (entry 0)"),
        ([0, 1, 2, 3], [10, 120], "120 (entry 1)"),
        ([0, -1], [10, 11], "-1 (entry 1)")])
    def test_bad_indices_are_refused_naming_the_entry(self, train_idx,
                                                      val_idx, entry):
        dataset = memory_dataset(24, 6, 120)
        store = FeatureStore(dataset, ModelConfig(
            variant="padme-ecfp", hidden_layers=(8,), dropout_rates=(0.0,),
            fp_bits=512))
        model = store.build_model()
        with pytest.raises(ModelError, match=re.escape(f"pair index {entry}")):
            train(model, store, train_idx, val_idx, TrainConfig(max_epochs=1))
        assert model.input_weight.row_selection is None

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"),
                                      float("-inf"), -0.001, 0.0])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        dataset, store, model = make_setup(seed=6)
        with pytest.raises(TrainingError, match="learning_rate must be "
                                                "finite and > 0"):
            train(model, store, np.arange(10), np.arange(10, 15),
                  TrainConfig(learning_rate=rate))

    def test_overlapping_sets_rejected(self):
        dataset, store, model = make_setup(seed=6)
        with pytest.raises(TrainingError, match="overlap"):
            train(model, store, np.arange(10), np.arange(5, 15), TrainConfig())

    def test_restores_best_parameters(self, monkeypatch):
        dataset, store, model = make_setup(seed=7)
        scripted = iter([0.1] + [1.0] * 9)
        evaluated = []  # the state each evaluation saw

        def fake_scores(model, *args, **kwargs):
            evaluated.append(model.graph.state_dict())
            return (0.5,), (None,), next(scripted), True, None

        monkeypatch.setattr(training, "validation_scores", fake_scores)
        idx = np.arange(dataset.n_pairs)
        result = train(model, store, idx[:30], idx[30:], TrainConfig(
            batch_size=16, max_epochs=10, patience=3, seed=0))
        assert result.best_epoch == 1
        current = model.graph.state_dict()
        assert current.keys() == evaluated[0].keys()
        for name in current:
            assert np.array_equal(current[name], evaluated[0][name])


def record_adams(monkeypatch) -> list:
    """The list of every ``Adam`` that ``train`` builds from now on."""
    built = []

    class RecordedAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(training, "Adam", RecordedAdam)
    return built


def reference_fit(model, store, train_idx, val_idx, cfg, scores=None):
    """``train``'s loop written out with Adam over every first-layer row,
    evaluated every epoch; ``scores``, if given, scripts the composite of
    each epoch in place of the validation score.

    Returns the per-epoch (train loss, composite), the best epoch's
    parameters and the optimizer, which holds the last step's moments.
    """
    assert model.input_weight.row_selection is None
    adam = Adam(model.graph.parameters(), learning_rate=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    history, best = [], (np.inf, None)
    for _ in range(cfg.max_epochs):
        order = rng.permutation(train_idx)
        total = 0.0
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            feeds = store.feeds(batch, model=model)
            loss = model.graph.forward(feeds, rng=rng)
            model.graph.backward()
            adam.step()
            total += float(loss) * batch.size
        score = (validation_scores(model, store, val_idx)[2] if scores is None
                 else scores[len(history)])
        history.append((total / order.size, score))
        if score < best[0]:
            best = (score, model.graph.state_dict())
    return history, best[1], adam


def textbook_fit(model, store, train_idx, val_idx, cfg):
    """``train``'s loop written out over every first-layer row, with the
    textbook Adam rule on plain arrays.

    Leaves ``model`` holding the best parameters, as ``train`` does, and
    returns the per-epoch (train loss, composite) and the best epoch's
    parameters.
    """
    assert model.input_weight.row_selection is None
    params = model.graph.parameters()
    m = {p.name: np.zeros(p.array.shape) for p in params}
    v = {p.name: np.zeros(p.array.shape) for p in params}
    t = 0
    rng = np.random.default_rng(cfg.seed)
    history, best = [], (np.inf, None)
    for _ in range(cfg.max_epochs):
        order = rng.permutation(train_idx)
        total = 0.0
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            feeds = store.feeds(batch, model=model)
            loss = model.graph.forward(feeds, rng=rng)
            model.graph.backward()
            t += 1
            for p in params:
                theta, m[p.name], v[p.name] = textbook_adam(
                    p.array, m[p.name], v[p.name], p.grad, t,
                    cfg.learning_rate, 0.9, 0.999, 1e-8)
                p.array[...] = theta
            total += float(loss) * batch.size
        score = validation_scores(model, store, val_idx)[2]
        history.append((total / order.size, score))
        if score < best[0]:
            best = (score, model.graph.state_dict())
    model.graph.load_state(best[1])
    return history, best[1]


def small_store(variant, seed=2):
    dataset = memory_dataset(n_compounds=12, n_proteins=6, n_pairs=60,
                             seed=seed)
    return FeatureStore(dataset, ModelConfig(
        variant=variant, hidden_layers=(16,), dropout_rates=(0.2,),
        conv_widths=(8, 8), conv_dense=16, seed=seed))


class TestActiveRows:
    """A fit trains only the first-layer rows its training pairs can move,
    with the bytes of a fit over every row."""

    @pytest.mark.parametrize("variant", ["padme-ecfp", "padme-graphconv"])
    def test_fit_equals_a_fit_over_every_row(self, variant, monkeypatch):
        built = record_adams(monkeypatch)
        store = small_store(variant)
        idx = np.arange(store.dataset.n_pairs)
        train_idx, val_idx = idx[:48], idx[48:]
        cfg = TrainConfig(batch_size=8, max_epochs=3, patience=3, seed=4)
        model, reference = store.build_model(), store.build_model()
        weight = model.input_weight
        selection = RowSelection(store.input_columns_set(model, train_idx))
        assert selection.n_rows < weight.array.shape[0]
        result = train(model, store, train_idx, val_idx, cfg)
        assert weight.row_selection is None
        # the fit kept the first layer's moments compact
        assert built[0].state.m["dense0.W"].shape == \
            (selection.n_rows, weight.array.shape[1])
        history, state, full = reference_fit(reference, store, train_idx,
                                             val_idx, cfg)
        assert [(row.train_loss, row.composite)
                for row in result.history] == history
        current = model.graph.state_dict()
        assert current.keys() == state.keys()
        for name in state:
            assert np.array_equal(current[name], state[name]), name
        # the last step's moments: the full path's, on the selected rows of
        # the parameters the fit moves; the others' full-path moments are +0
        moved = {p.name for p in store.fit_parameters(model, train_idx)}
        for kind in ("m", "v"):
            moments = getattr(built[0].state, kind)
            assert set(moments) == moved
            for name, moment in getattr(full.state, kind).items():
                if name not in moved:
                    assert moment.tobytes() == bytes(moment.nbytes), name
                    continue
                if name == "dense0.W":
                    moment = np.concatenate([moment[rows] for _, _, rows
                                             in selection.blocks])
                assert np.array_equal(moments[name], moment), (kind, name)

    @pytest.mark.parametrize("variant", ["padme-ecfp", "padme-graphconv",
                                         "compound-only-ecfp"])
    def test_active_columns_are_those_a_training_pair_sets(self, variant):
        store = small_store(variant)
        model = store.build_model()
        pairs = store.dataset.pairs
        # pairs that share neither compound nor protein: each one's columns
        # count, whatever its place in the training set
        train_idx, seen = [], set()
        for i, (compound, protein) in enumerate(pairs):
            if ("c", compound) not in seen and ("p", protein) not in seen:
                train_idx.append(i)
                seen.update({("c", compound), ("p", protein)})
        compounds, proteins = pairs[train_idx].T
        if model.cfg.uses_graphconv:
            expected = [np.ones(16, dtype=bool)]
        else:
            expected = [store.fingerprint_matrix[compounds].any(axis=0)]
        if not model.cfg.compound_only:
            expected.append(store.protein_matrix[proteins].any(axis=0))
        masks = store.input_columns_set(model, train_idx)
        assert len(masks) == len(expected)
        for mask, want in zip(masks, expected):
            assert np.array_equal(mask, want)
        assert sum(mask.size for mask in masks) == \
            model.input_weight.array.shape[0]

    def test_validation_only_column_keeps_its_initial_row(self):
        store = small_store("padme-ecfp", seed=3)
        pairs = store.dataset.pairs
        held_protein = pairs[0, 1]
        idx = np.arange(store.dataset.n_pairs)
        train_idx = idx[pairs[:, 1] != held_protein]
        val_idx = idx[pairs[:, 1] == held_protein]
        seen = store.protein_matrix[np.unique(pairs[train_idx, 1])].any(axis=0)
        only_val = np.flatnonzero((store.protein_matrix[held_protein] != 0)
                                  & ~seen)
        assert only_val.size
        model, reference = store.build_model(), store.build_model()
        rows = model.cfg.compound_width() + only_val
        initial = model.input_weight.array[rows].copy()
        cfg = TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=1)
        train(model, store, train_idx, val_idx, cfg)
        assert np.array_equal(model.input_weight.array[rows], initial)
        _, state, _ = reference_fit(reference, store, train_idx, val_idx, cfg)
        reference.graph.load_state(state)
        full_path = reference.predict_feeds(
            store.feeds(val_idx))
        assert np.array_equal(store.predict(model, val_idx), full_path)


def compound_degrees(store, compounds):
    """The atom degrees the store's packed ``compounds`` have."""
    graphs = store._graphs
    return set().union(*(
        graphs.degrees[graphs.offsets[c]:graphs.offsets[c + 1]].tolist()
        for c in compounds))


def degree_split(store, degree):
    """The pairs whose compound has no atom of ``degree`` (training) and
    those whose compound has one (validation)."""
    has = np.array([degree in compound_degrees(store, [c])
                    for c in range(len(store.dataset.compounds))])
    held = has[store.dataset.pairs[:, 0]]
    idx = np.arange(store.dataset.n_pairs)
    return idx[~held], idx[held]


def degree_parameters(degrees, n_convs=2):
    """The names of every conv layer's parameters of ``degrees``."""
    return {f"conv{li}.{kind}{d}" for li in range(n_convs)
            for kind in ("wself", "wnbr", "b") for d in degrees}


class TestUnreachedDegrees:
    """A graph-conv fit hands Adam no parameter of a degree that no training
    compound has, with the bytes of a fit whose Adam moves every one."""

    @pytest.mark.parametrize("variant", ["padme-graphconv",
                                         "compound-only-graphconv"])
    def test_fit_equals_a_fit_that_moves_every_parameter(self, variant,
                                                         monkeypatch):
        built = record_adams(monkeypatch)
        store = small_store(variant, seed=3)
        # one compound has the only degree-4 atom, and only validation
        # pairs hold it; no compound has degree 0, 5 or 6
        train_idx, val_idx = degree_split(store, 4)
        assert train_idx.size and val_idx.size
        assert compound_degrees(
            store, store.dataset.pairs[train_idx, 0]) == {1, 2, 3}
        unreached = degree_parameters((0, 4, 5, 6))
        cfg = TrainConfig(batch_size=8, max_epochs=3, patience=3, seed=4)
        model, reference = store.build_model(), store.build_model()
        initial = model.graph.state_dict()
        result = train(model, store, train_idx, val_idx, cfg)
        history, state, full = reference_fit(reference, store, train_idx,
                                             val_idx, cfg)
        assert [(row.train_loss, row.composite)
                for row in result.history] == history
        current = model.graph.state_dict()
        assert current.keys() == state.keys()
        for name in state:
            assert current[name].tobytes() == state[name].tobytes(), name
        names = {p.name for p in model.graph.parameters()}
        (adam,) = built
        assert {p.name for p in adam.parameters} == names - unreached
        assert set(adam.state.m) == set(adam.state.v) == names - unreached
        for name in unreached:
            assert current[name].tobytes() == initial[name].tobytes(), name
            # the full path moved them by +0 and kept their moments at +0
            for moments in (full.state.m, full.state.v):
                assert moments[name].tobytes() == \
                    bytes(moments[name].nbytes), name

    def test_a_trained_degree_5_atom_moves_its_parameters(self, monkeypatch):
        built = record_adams(monkeypatch)
        dataset = small_store("padme-graphconv", seed=3).dataset
        dataset = replace(dataset, compounds=(
            "CP(C)(C)(C)C", *dataset.compounds[1:]), molecules=None)
        store = FeatureStore(dataset, small_store("padme-graphconv").cfg)
        train_idx, val_idx = degree_split(store, 4)
        assert 0 in store.dataset.pairs[train_idx, 0]
        model = store.build_model()
        initial = model.graph.state_dict()
        train(model, store, train_idx, val_idx,
              TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=4))
        moved = {p.name for p in built[0].parameters}
        assert degree_parameters((5,)) <= moved
        assert not degree_parameters((0, 4, 6)) & moved
        for li in range(2):
            name = f"conv{li}.wself5"
            assert not np.array_equal(model.graph.live_state()[name],
                                      initial[name]), name


class TestRefit:
    def test_two_fits_equal_a_textbook_loop(self, monkeypatch):
        # The second fit's optimizer repacks parameters the first one owns.
        built = record_adams(monkeypatch)
        store = small_store("padme-graphconv", seed=5)
        idx = np.arange(store.dataset.n_pairs)
        train_idx, val_idx = idx[:48], idx[48:]
        model, reference = store.build_model(), store.build_model()
        for seed in (6, 7):
            cfg = TrainConfig(batch_size=8, max_epochs=3, patience=3,
                              seed=seed)
            result = train(model, store, train_idx, val_idx, cfg)
            history, state = textbook_fit(
                reference, store, train_idx, val_idx, cfg)
            assert [(row.train_loss, row.composite)
                    for row in result.history] == history
            current = model.graph.state_dict()
            assert current.keys() == state.keys()
            for name in state:
                assert np.array_equal(current[name], state[name]), name
        # every parameter the second fit moves, bar the row-selected weight,
        # lives in its optimizer's buffer; the rest keep arrays of their own
        first, second = built
        moved = {id(p) for p in second.parameters}
        assert len(moved) < len(model.graph.parameters())
        for p in model.graph.parameters():
            assert not np.shares_memory(p.array, first.flat_theta), p.name
            assert np.shares_memory(p.array, second.flat_theta) == (
                id(p) in moved and p is not model.input_weight), p.name


def script_scores(monkeypatch, scores, act=None):
    """Make ``train``'s evaluations return ``scores`` in turn; ``act(model,
    evaluation)`` runs at each one, numbered from 0."""
    scripted = iter(enumerate(scores))

    def fake_scores(model, *args, **kwargs):
        evaluation, score = next(scripted)
        if act is not None:
            act(model, evaluation)
        return (0.5,), (None,), score, True, None

    monkeypatch.setattr(training, "validation_scores", fake_scores)


def count_copies(monkeypatch):
    """The Adam step at each state copy a fit takes (each
    ``Graph.state_dict`` call)."""
    steps = []
    built = record_adams(monkeypatch)
    state_dict = engine.Graph.state_dict

    def counted_state_dict(graph):
        steps.append(built[-1].state.step)
        return state_dict(graph)

    monkeypatch.setattr(engine.Graph, "state_dict", counted_state_dict)
    return steps


class TestSnapshot:
    """A fit copies its best epoch only before a later step would overwrite
    it, and restores that copy at the end."""

    @pytest.mark.parametrize("max_epochs, eval_every, scores, copied", [
        (1, 1, [0.5], 0),
        (3, 3, [0.5], 0),
        # each improvement but the last is copied before the next epoch
        (3, 1, [0.9, 0.8, 0.7], 2)])
    def test_best_at_the_last_epoch_is_never_copied(
            self, monkeypatch, max_epochs, eval_every, scores, copied):
        dataset, store, model = make_setup(seed=8)
        script_scores(monkeypatch, scores)
        copies = count_copies(monkeypatch)
        idx = np.arange(dataset.n_pairs)
        result = train(model, store, idx[:30], idx[30:], TrainConfig(
            batch_size=16, max_epochs=max_epochs, patience=3,
            eval_every=eval_every, seed=0))
        assert result.best_epoch == max_epochs
        assert len(copies) == copied

    def test_early_best_is_copied_once(self, monkeypatch):
        dataset, store, model = make_setup(seed=8)
        script_scores(monkeypatch, [0.1, 1.0, 1.0, 1.0])
        copies = count_copies(monkeypatch)
        idx = np.arange(dataset.n_pairs)
        result = train(model, store, idx[:30], idx[30:], TrainConfig(
            batch_size=16, max_epochs=4, patience=3, seed=0))
        assert result.best_epoch == 1
        assert len(result.history) == 4
        assert len(copies) == 1

    def test_copy_before_the_next_epoch_restores_a_reference_fit(
            self, monkeypatch):
        store = small_store("padme-ecfp", seed=6)
        idx = np.arange(store.dataset.n_pairs)
        train_idx, val_idx = idx[:48], idx[48:]
        cfg = TrainConfig(batch_size=8, max_epochs=6, patience=3,
                          eval_every=2, seed=3)
        model, reference = store.build_model(), store.build_model()
        script_scores(monkeypatch, [0.1, 1.0, 1.0])  # epochs 2, 4 and 6
        copies = count_copies(monkeypatch)
        result = train(model, store, train_idx, val_idx, cfg)
        monkeypatch.undo()
        assert result.best_epoch == 2 and len(result.history) == 6
        # one copy, at the step count the best epoch ended on, so before
        # epoch 3's first step
        assert copies == [2 * 6]  # 48 pairs in batches of 8
        _, state, _ = reference_fit(reference, store, train_idx, val_idx,
                                    cfg, scores=[1.0, 0.1] + [1.0] * 4)
        current = model.graph.state_dict()
        assert current.keys() == state.keys()
        for name in state:
            assert np.array_equal(current[name], state[name]), name

    @pytest.mark.parametrize("entry", ["output.b", "bn0.running_var"])
    def test_non_finite_live_best_is_refused_naming_the_entry(
            self, monkeypatch, entry):
        def poison(model, evaluation):
            if evaluation < 2:  # the last epoch's evaluation is the best
                return
            owner, _, stat = entry.rpartition(".")
            for node in model.graph.nodes:
                if node.name == entry:
                    node.array[0] = np.nan
                elif node.name == owner and stat == "running_var":
                    node.running_var[0] = np.nan

        dataset, store, model = make_setup(seed=9)
        script_scores(monkeypatch, [0.3, 0.2, 0.1], poison)
        idx = np.arange(dataset.n_pairs)
        with pytest.raises(NonFiniteError,
                           match=re.escape(f"state entry '{entry}'")):
            train(model, store, idx[:30], idx[30:], TrainConfig(
                batch_size=16, max_epochs=3, patience=3, seed=0))


class TestEpochCostProbe:
    def test_zero_pairs_rejected(self):
        with pytest.raises(TrainingError, match="empty training set"):
            epoch_cost_probe(0)

    def test_repeat_runs_within_noise(self):
        a = epoch_cost_probe(400, seed=0)
        b = epoch_cost_probe(400, seed=0)
        assert a > 0 and b > 0
        assert max(a, b) / min(a, b) < 3.0  # same workload, loose sanity bound
