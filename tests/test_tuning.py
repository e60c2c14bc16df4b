"""Search strategies, the GP surrogate and the expected-improvement rule."""

import numpy as np
import pytest

from dtanet.splits import hyperopt_holdout
from dtanet.synthetic import memory_dataset
from dtanet.tuning import (
    Categorical,
    Continuous,
    GaussianProcess,
    Integer,
    SearchSpace,
    TuneError,
    best_of,
    default_search_space,
    expected_improvement,
    gp_ei_search,
    load_space,
    point_overrides,
    random_search,
)

QUADRATIC_SPACE = SearchSpace(dimensions={"x": Continuous(0.0, 1.0)})


def quadratic(point):
    return (point["x"] - 0.3) ** 2


class TestSpace:
    def test_bounds_validated(self):
        with pytest.raises(TuneError):
            Continuous(1.0, 1.0)
        with pytest.raises(TuneError):
            Continuous(0.0, 1.0, log=True)
        with pytest.raises(TuneError):
            Integer(3, 3)
        with pytest.raises(TuneError):
            Categorical(())

    def test_log_sampling_within_bounds(self):
        dim = Continuous(1e-4, 1e-1, log=True)
        rng = np.random.default_rng(0)
        values = [dim.sample(rng) for _ in range(200)]
        assert all(1e-4 <= v <= 1e-1 for v in values)
        # log-uniform: roughly a third of samples per decade
        below = sum(v < 1e-3 for v in values)
        assert 30 < below < 110

    def test_encode_unit_cube(self):
        space = SearchSpace(dimensions={
            "a": Continuous(0.0, 10.0),
            "b": Integer(0, 4),
            "c": Categorical(("x", "y", "z")),
        })
        row = space.encode({"a": 5.0, "b": 2, "c": "y"})
        assert row.tolist() == [0.5, 0.5, 0.0, 1.0, 0.0]


class TestRandomSearch:
    def test_budget_one(self):
        result = random_search(QUADRATIC_SPACE, quadratic, 1, seed=0)
        assert len(result.trials) == 1
        assert result.best is result.trials[0]

    def test_budget_fifty_near_optimum(self):
        result = random_search(QUADRATIC_SPACE, quadratic, 50, seed=0)
        assert abs(result.best.point["x"] - 0.3) < 0.05

    def test_same_seed_identical_log(self):
        a = random_search(QUADRATIC_SPACE, quadratic, 20, seed=4)
        b = random_search(QUADRATIC_SPACE, quadratic, 20, seed=4)
        assert [t.point for t in a.trials] == [t.point for t in b.trials]
        assert [t.value for t in a.trials] == [t.value for t in b.trials]

    def test_objective_failure_recorded_not_fatal(self):
        calls = {"n": 0}

        def flaky(point):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("boom")
            return quadratic(point)

        result = random_search(QUADRATIC_SPACE, flaky, 9, seed=1)
        failed = [t for t in result.trials if t.status == "failed"]
        assert len(failed) == 3
        assert result.best.status == "complete"


class TestExpectedImprovement:
    def test_zero_variance_no_improvement(self):
        assert expected_improvement(np.array([1.0]), np.array([0.0]),
                                    best=0.5)[0] == 0.0

    def test_zero_variance_below_best(self):
        assert expected_improvement(np.array([0.2]), np.array([0.0]),
                                    best=0.5)[0] == pytest.approx(0.3)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(0)
        ei = expected_improvement(rng.normal(size=500),
                                  np.abs(rng.normal(size=500)), best=0.0)
        assert np.all(ei >= 0.0)

    def test_larger_variance_more_attractive_at_same_mean(self):
        ei = expected_improvement(np.array([1.0, 1.0]),
                                  np.array([0.1, 1.0]), best=0.5)
        assert ei[1] > ei[0]


class TestGaussianProcess:
    def test_posterior_mean_interpolates_noiseless_data(self):
        rng = np.random.default_rng(0)
        x = rng.random((8, 2))
        y = np.sin(3.0 * x[:, 0]) + x[:, 1]
        gp = GaussianProcess(noise_levels=(1e-10,))
        gp.fit(x, y)
        mean, std = gp.predict(x)
        assert np.max(np.abs(mean - y)) < 1e-6
        assert np.all(std >= 0.0)

    def test_far_points_revert_to_prior_uncertainty(self):
        x = np.array([[0.0], [0.1]])
        gp = GaussianProcess(lengthscales=(0.1,), noise_levels=(1e-10,))
        gp.fit(x, np.array([1.0, 2.0]))
        _, std_near = gp.predict(np.array([[0.05]]))
        _, std_far = gp.predict(np.array([[50.0]]))
        assert std_far[0] > std_near[0]

    def test_needs_two_points(self):
        gp = GaussianProcess()
        with pytest.raises(TuneError):
            gp.fit(np.array([[0.0]]), np.array([1.0]))


class TestGpEiSearch:
    @pytest.mark.parametrize("seed", range(3))
    def test_quadratic_beats_paired_random(self, seed):
        random_result = random_search(QUADRATIC_SPACE, quadratic, 30,
                                      seed=seed)
        gp_result = gp_ei_search(QUADRATIC_SPACE, quadratic, 30, n_init=10,
                                 seed=seed)
        assert abs(gp_result.best.point["x"] - 0.3) < 0.05
        assert gp_result.best.value <= random_result.best.value

    def test_deterministic_under_seed(self):
        a = gp_ei_search(QUADRATIC_SPACE, quadratic, 25, n_init=8, seed=3)
        b = gp_ei_search(QUADRATIC_SPACE, quadratic, 25, n_init=8, seed=3)
        assert [t.value for t in a.trials] == [t.value for t in b.trials]

    def test_best_so_far_non_increasing(self):
        result = gp_ei_search(QUADRATIC_SPACE, quadratic, 25, n_init=8,
                              seed=5)
        best_so_far = np.inf
        series = []
        for t in result.trials:
            if t.status == "complete":
                best_so_far = min(best_so_far, t.value)
            series.append(best_so_far)
        assert series == sorted(series, reverse=True)

    def test_replay_from_trial_log(self):
        result = gp_ei_search(QUADRATIC_SPACE, quadratic, 20, n_init=6, seed=7)
        assert best_of(result.trials) is result.best

    def test_budget_must_exceed_n_init(self):
        with pytest.raises(TuneError, match="exceed"):
            gp_ei_search(QUADRATIC_SPACE, quadratic, 5, n_init=5, seed=0)

    def test_negative_n_init_refused(self):
        with pytest.raises(TuneError, match="n_init must be at least 0"):
            gp_ei_search(QUADRATIC_SPACE, quadratic, 5, n_init=-2, seed=0)

    def test_mixed_space_with_categories(self):
        space = SearchSpace(dimensions={
            "x": Continuous(0.0, 1.0),
            "k": Categorical((1, 2, 4)),
            "n": Integer(1, 3),
        })

        def objective(point):
            return (point["x"] - 0.5) ** 2 + 0.1 * point["k"] + 0.05 * point["n"]

        result = gp_ei_search(space, objective, 25, n_init=8, seed=0)
        assert result.best.point["k"] == 1
        assert result.best.point["n"] == 1


class TestSpaceFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "space.cfg"
        path.write_text(
            "# comment\n"
            "learning_rate continuous 1e-4 1e-2 log\n"
            "n_layers integer 1 3\n"
            "layer_width categorical 64 128 256\n", encoding="utf-8")
        space = load_space(path)
        assert isinstance(space.dimensions["learning_rate"], Continuous)
        assert space.dimensions["learning_rate"].log
        assert space.dimensions["n_layers"] == Integer(1, 3)
        assert space.dimensions["layer_width"].choices == (64, 128, 256)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "space.cfg"
        path.write_text("x gaussian 0 1\n", encoding="utf-8")
        with pytest.raises(TuneError, match="unknown dimension kind"):
            load_space(path)

    @pytest.mark.parametrize("line, message", [
        ("dropout continuous 0.1", "continuous needs numeric bounds"),
        ("dropout continuous a b", "continuous needs numeric bounds"),
        ("n_layers integer 1 2.5", "integer needs numeric bounds"),
        ("dropout continuous 0.5 0.1", "continuous bounds need lo < hi"),
        ("dropout continuous 0 0.5 lgo",
         "unexpected 'lgo' after the continuous bounds"),
        ("dropout continuous 0 0.5 log log",
         "unexpected 'log log' after the continuous bounds"),
        ("n_layers integer 1 3 7", "unexpected '7' after the integer bounds"),
        ("n_layers integer 1 3 log", "unexpected 'log' after the integer bounds"),
        ("learning_rate continuous 1e-4 1e-2 log\n"
         "learning_rate continuous 1e-4 1e-2",
         r"duplicate dimension 'learning_rate' \(first on line 2\)"),
    ])
    def test_bad_bounds_name_the_line(self, tmp_path, line, message):
        path = tmp_path / "space.cfg"
        path.write_text(f"# bounds\n{line}\n", encoding="utf-8")
        last = 1 + len(line.splitlines())  # the line at fault
        with pytest.raises(TuneError,
                           match=f"space.cfg: line {last}: {message}"):
            load_space(path)

    def test_unknown_dimension_names_the_line(self, tmp_path):
        path = tmp_path / "space.cfg"
        path.write_text("dropout continuous 0 0.5\n"
                        "momentum continuous 0.8 0.99\n", encoding="utf-8")
        with pytest.raises(TuneError,
                           match=r"space.cfg: line 2: unknown dimension "
                                 r"'momentum'"):
            load_space(path)

    @pytest.mark.parametrize("line, name", [
        ("n_layers integer 1 3", "n_layers"),
        ("layer_width categorical 64 128", "layer_width"),
    ])
    def test_layer_dimensions_come_together(self, tmp_path, line, name):
        path = tmp_path / "space.cfg"
        path.write_text(f"dropout continuous 0 0.5\n{line}\n",
                        encoding="utf-8")
        with pytest.raises(TuneError,
                           match=f"space.cfg: line 2: '{name}' needs"):
            load_space(path)

    def test_default_space_samples(self):
        space = default_search_space()
        point = space.sample(np.random.default_rng(0))
        assert set(point) == {"learning_rate", "batch_size", "n_layers",
                              "layer_width", "dropout"}


class TestPointOverrides:
    def test_maps_each_dimension_to_its_config_key(self):
        point = {"learning_rate": 0.0012345678901234, "batch_size": 64,
                 "n_layers": 3, "layer_width": 128, "dropout": 0.25}
        assert point_overrides(point) == {
            "train.learning_rate": "0.0012345678901234",
            "train.batch_size": "64",
            "model.hidden_layers": "128,128,128",
            "model.dropout": "0.25",
        }

    def test_unmapped_point_fails(self):
        with pytest.raises(TuneError, match="unknown dimension"):
            point_overrides({"momentum": 0.9})
        with pytest.raises(TuneError, match="'n_layers' needs"):
            point_overrides({"n_layers": 2})


class TestCompositeObjective:
    """The tuning objective: ``pipeline.run_tune`` fitting each trial."""

    @staticmethod
    def _tune(tmp_path, dataset, name, space_text, epochs):
        from dtanet.pipeline import run_tune
        from dtanet.runconfig import parse_run_config

        cfg = parse_run_config(None, overrides={
            "model.fp_bits": "512", "train.batch_size": "16",
            "train.max_epochs": str(epochs), "train.patience": str(epochs),
            "tune.strategy": "random"})
        space = tmp_path / f"{name}.space"
        space.write_text(space_text, encoding="utf-8")
        run_tune(cfg, dataset, tmp_path / name, budget=2, space_path=space)
        return (tmp_path / name / "trials.csv").read_text(encoding="utf-8")

    def test_deterministic_and_failure_paths(self, tmp_path):
        dataset = memory_dataset(n_compounds=10, n_proteins=5, n_pairs=30,
                                 seed=1)
        space = "n_layers integer 1 2\nlayer_width categorical 16\n"
        first = self._tune(tmp_path, dataset, "a", space, epochs=2)
        second = self._tune(tmp_path, dataset, "b", space, epochs=2)
        assert first == second
        values = [line.split(",")[2] for line in first.splitlines()[1:]]
        assert values and all(np.isfinite(float(v)) for v in values)

    def test_invalid_point_becomes_failed_trial(self, tmp_path):
        dataset = memory_dataset(n_compounds=10, n_proteins=5, n_pairs=30,
                                 seed=2)
        with pytest.raises(TuneError, match="no completed trial"):
            self._tune(tmp_path, dataset, "bad",
                       "n_layers integer 8 9\nlayer_width categorical 16\n",
                       epochs=1)
        rows = (tmp_path / "bad" / "trials.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.split(",")[1] == "failed" for row in rows)

    def test_holdout_is_ninety_ten(self):
        train_idx, val_idx = hyperopt_holdout(30, seed=0)
        assert len(val_idx) == 3
        assert len(train_idx) == 27
