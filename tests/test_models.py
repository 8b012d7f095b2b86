import functools
import inspect
import itertools
import json

import numpy as np
import pytest

from molscreen import dataio
from molscreen.models import (
    KINDS,
    MODEL_KINDS,
    EmptyTrainingSet,
    ModelError,
    NonFiniteFeature,
    NonFiniteTarget,
    TrainConfig,
    WidthMismatch,
    fit_gb,
    fit_model,
    fit_rf,
    fit_svr,
    fit_tree,
    load_model,
    model_from_dict,
    model_to_dict,
)
from molscreen.models.tree import check_training_data, grow_trees


def exhaustive_stump(X, y):
    """Brute-force depth-1 oracle: try every feature and midpoint."""
    n, p = X.shape
    best = None
    for feature in range(p):
        values = sorted(set(X[:, feature]))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            left = y[X[:, feature] <= threshold]
            right = y[X[:, feature] > threshold]
            sse = (
                float(((left - left.mean()) ** 2).sum())
                + float(((right - right.mean()) ** 2).sum())
            )
            key = (sse, feature, threshold)
            if best is None or key < best:
                best = key
    return best


class TestTree:
    def test_stump_example(self):
        tree = fit_tree(np.array([[0.0], [1.0], [2.0], [3.0]]),
                        np.array([0.0, 0.0, 1.0, 1.0]), max_depth=1)
        assert tree.root.feature == 0
        assert tree.root.threshold == 1.5
        assert tree.root.left.value == 0.0
        assert tree.root.right.value == 1.0

    def test_constant_target_single_leaf(self):
        tree = fit_tree(np.array([[0.0], [1.0], [2.0]]), np.array([4.0] * 3),
                        max_depth=5)
        assert tree.root.is_leaf and tree.root.value == 4.0

    def test_depth_zero(self):
        tree = fit_tree(np.array([[0.0], [1.0]]), np.array([1.0, 3.0]), max_depth=0)
        assert tree.root.is_leaf and tree.root.value == 2.0

    def test_matches_exhaustive_stump_on_100_random_problems(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            p = int(rng.integers(1, 4))
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            tree = fit_tree(X, y, max_depth=1)
            sse, feature, threshold = exhaustive_stump(X, y)
            assert tree.root.feature == feature
            assert tree.root.threshold == pytest.approx(threshold, abs=1e-12)

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            fit_tree(np.zeros((0, 2)), np.zeros(0), max_depth=1)


class TestGB:
    def test_single_stump_exact_fit(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit_gb(X, y, n_estimators=1, max_depth=1, learning_rate=1.0)
        assert np.abs(model.predict(X) - y).mean() == 0.0

    def test_zero_estimators_predicts_mean(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([2.0, 6.0])
        model = fit_gb(X, y, n_estimators=0)
        assert model.predict(np.array([[9.0]]))[0] == 4.0

    def test_training_mse_non_increasing_on_20_datasets(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(10, 40))
            p = int(rng.integers(1, 6))
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            model = fit_gb(X, y, n_estimators=35, max_depth=4, learning_rate=0.1)
            losses = model.staged_train_mse(X, y)
            assert len(losses) == 36
            for before, after in zip(losses, losses[1:]):
                assert after <= before + 1e-12

    def test_non_finite_target(self):
        with pytest.raises(NonFiniteTarget):
            fit_gb(np.zeros((2, 1)), np.array([1.0, float("nan")]))

    @pytest.mark.parametrize("params, field", [
        ({"n_estimators": -2}, "n_estimators must be >= 0"),
        ({"learning_rate": float("inf")}, "learning_rate must be finite and > 0"),
        ({"learning_rate": float("nan")}, "learning_rate must be finite and > 0"),
        ({"learning_rate": 0.0}, "learning_rate must be finite and > 0"),
        ({"learning_rate": -1.0}, "learning_rate must be finite and > 0"),
        ({"n_estimators": 0, "max_depth": -1}, "max_depth must be >= 0"),
    ])
    def test_broken_hyperparameter_rejected(self, params, field):
        with pytest.raises(ModelError, match=field):
            fit_gb(np.arange(4.0)[:, None], np.arange(4.0), **params)


class TestRF:
    @pytest.mark.parametrize("n_estimators", [0, -3])
    def test_forest_without_trees_rejected(self, n_estimators):
        with pytest.raises(ModelError, match="n_estimators must be >= 1"):
            fit_rf(np.arange(4.0)[:, None], np.arange(4.0), n_estimators=n_estimators)

    def test_degenerate_forest_equals_tree(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        forest = fit_rf(X, y, n_estimators=1, bootstrap=False, max_features=4,
                        max_depth=6)
        tree = fit_tree(X, y, max_depth=6)
        assert np.array_equal(forest.predict(X), tree.predict(X))

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        a = fit_rf(X, y, seed=123)
        b = fit_rf(X, y, seed=123)
        assert json.dumps(model_to_dict(a)) == json.dumps(model_to_dict(b))
        c = fit_rf(X, y, seed=124)
        assert json.dumps(model_to_dict(a)) != json.dumps(model_to_dict(c))

    def test_constant_target(self):
        X = np.random.default_rng(1).normal(size=(10, 3))
        y = np.full(10, 7.5)
        model = fit_rf(X, y, n_estimators=5)
        assert np.allclose(model.predict(X), 7.5)

    def test_mean_of_trees_matches_bruteforce_average(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        model = fit_rf(X, y, n_estimators=7)
        stacked = np.stack([t.predict(X) for t in model.trees])
        assert np.allclose(model.predict(X), stacked.mean(axis=0))

    def test_table_defaults(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        model = fit_model(X, y, TrainConfig(kind="rf", seed=0))
        assert len(model.trees) == 55
        gb = fit_model(X, y, TrainConfig(kind="gb", seed=0))
        assert len(gb.trees) == 35


class TestSVR:
    def test_constant_within_epsilon_tube(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(25, 3))
        y = 5.0 + rng.uniform(-0.5, 0.5, size=25)  # inside the 0.75 tube
        model = fit_svr(X, y)
        assert model.support_vectors.shape[0] == 0
        assert model.converged
        assert np.allclose(model.predict(X), model.bias)
        assert np.abs(model.predict(X) - y).max() <= 0.75 + 1e-3

    def test_linear_kernel_on_linear_data(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(-1, 1, size=(80, 3))
        y = 2.0 * X[:, 0] - 1.0 * X[:, 1] + 0.5 * X[:, 2] + 0.25
        model = fit_svr(X[:60], y[:60], epsilon=0.01, kernel="linear")
        assert model.converged
        assert np.abs(model.predict(X[60:]) - y[60:]).mean() < 0.05

    def test_interior_duplicate_predicted_within_tube(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(-1, 1, size=(40, 2))
        y = np.sin(2 * X[:, 0]) + X[:, 1]
        model = fit_svr(X, y, C=500.0, epsilon=0.3, gamma=1.0)
        assert model.converged
        pred = model.predict(X)
        # every interior (non-bound) training point sits within eps + tol
        interior = np.abs(pred - y) <= 0.3 + 1e-2
        assert interior.mean() > 0.9

    def test_dual_coefficients_within_box(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(-1, 1, size=(30, 2))
        y = X[:, 0] ** 2
        model = fit_svr(X, y, C=10.0, epsilon=0.05)
        assert np.all(model.coefficients <= 10.0 + 1e-9)
        assert np.all(model.coefficients >= -10.0 - 1e-9)

    def test_width_mismatch(self):
        rng = np.random.default_rng(18)
        model = fit_svr(rng.normal(size=(10, 3)), rng.normal(size=10))
        with pytest.raises(WidthMismatch):
            model.predict(np.zeros((2, 4)))


class TestSerialization:
    @pytest.mark.parametrize("kind", ["gb", "rf", "svr"])
    def test_round_trip(self, kind, tmp_path):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        model = fit_model(X, y, TrainConfig(kind=kind, seed=5, n_estimators=4))
        path = tmp_path / f"{kind}.json"
        path.write_text(dataio.dump_json(model_to_dict(model)))
        loaded = load_model(path)
        assert np.array_equal(model.predict(X), loaded.predict(X))
        assert json.dumps(model_to_dict(model), sort_keys=True) == json.dumps(
            model_to_dict(loaded), sort_keys=True
        )

    def test_repeat_fit_equality_serialized(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        for kind in ("gb", "rf", "svr"):
            config = TrainConfig(kind=kind, seed=77, n_estimators=3)
            a = json.dumps(model_to_dict(fit_model(X, y, config)), sort_keys=True)
            b = json.dumps(model_to_dict(fit_model(X, y, config)), sort_keys=True)
            assert a == b

    def test_version_check(self):
        with pytest.raises(Exception):
            model_from_dict({"format_version": 99, "kind": "gb"})

    @pytest.mark.parametrize("kind, edit, message", [
        ("gb", lambda d: d.pop("trees"), "missing field 'trees'"),
        ("gb", lambda d: d.update(trees="x"), "field 'trees': expected a JSON object"),
        ("gb", lambda d: d["trees"][0]["root"].pop("threshold"),
         "field 'trees': field 'root': missing field 'threshold'"),
        ("rf", lambda d: d.update(tree_seeds=["x"]), "field 'tree_seeds': "),
        ("rf", lambda d: d["trees"][1].update(n_features=None), "field 'n_features': "),
        ("svr", lambda d: d.update(coefficients=3.0), "field 'coefficients': "),
        ("svr", lambda d: d.update(support_vectors=[[1.0]]), "field 'support_vectors': "),
        ("gb", lambda d: d.update(n_features=float("inf")),
         "field 'n_features': cannot convert float infinity to integer"),
    ], ids=["missing", "not-a-list", "nested", "seed", "tree-field", "scalar", "shape",
            "infinite-int"])
    def test_malformed_field_named(self, kind, edit, message):
        X = np.arange(12.0).reshape(6, 2)
        model = fit_model(X, X[:, 0], TrainConfig(kind=kind, seed=1, n_estimators=2))
        data = json.loads(json.dumps(model_to_dict(model)))
        edit(data)
        with pytest.raises(ModelError, match=message):
            model_from_dict(data)


class TestPredictContracts:
    def test_gb_width_mismatch(self):
        model = fit_gb(np.zeros((3, 2)), np.arange(3.0), n_estimators=1)
        with pytest.raises(WidthMismatch):
            model.predict(np.zeros((2, 3)))

    def test_prediction_permutation_equivariance(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        model = fit_gb(X, y)
        perm = rng.permutation(12)
        assert np.array_equal(model.predict(X)[perm], model.predict(X[perm]))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_model_rejects_alike(self, kind):
        rng = np.random.default_rng(26)
        model = fit_model(rng.normal(size=(10, 2)), rng.normal(size=10),
                          TrainConfig(kind=kind, seed=0, n_estimators=2))
        for X, message in [
            (np.zeros(2), "expected 2 features, got (2,)"),
            (np.zeros((4, 3)), "expected 2 features, got (4, 3)"),
        ]:
            with pytest.raises(WidthMismatch) as caught:
                model.predict(X)
            assert str(caught.value) == message
        X = np.zeros((4, 2))
        X[2, 0] = -np.inf
        with pytest.raises(NonFiniteFeature,
                           match="non-finite value at row 2, column 0"):
            model.predict(X)


def _fit_kind(kind):
    return lambda X, y: fit_model(X, y, TrainConfig(kind=kind, seed=0))


FITTERS = {
    "fit_tree": functools.partial(fit_tree, max_depth=2),
    "fit_gb": fit_gb,
    "fit_rf": fit_rf,
    "fit_svr": fit_svr,
    **{f"fit_model-{kind}": _fit_kind(kind) for kind in MODEL_KINDS},
}


def _bad_training_data():
    """(X, y, exception class, message) per fault; X is 10 x 2 where it has rows."""
    X = np.arange(20.0).reshape(10, 2)
    y = np.arange(10.0)
    bad_X = X.copy()
    bad_X[3, 1] = np.nan
    bad_y = y.copy()
    bad_y[4] = np.inf
    return {
        "X-1d": (X[:, 0], y, ModelError, "X must be 2-dimensional"),
        "y-2d": (X, y[:, None], ModelError, "y must be 1-dimensional"),
        "y-longer": (X, np.arange(12.0), ModelError, "X and y row counts differ"),
        "y-shorter": (X, np.arange(8.0), ModelError, "X and y row counts differ"),
        "no-rows": (np.zeros((0, 2)), np.zeros(0), EmptyTrainingSet, "no training rows"),
        "y-non-finite": (X, bad_y, NonFiniteTarget, "target contains non-finite values"),
        "X-non-finite": (bad_X, y, NonFiniteFeature,
                         "features contain a non-finite value at row 3, column 1"),
    }


BAD_TRAINING_DATA = _bad_training_data()


class TestTrainingDataContract:
    @pytest.mark.parametrize("fault", BAD_TRAINING_DATA)
    @pytest.mark.parametrize("fitter", FITTERS)
    def test_every_fitter_rejects_alike(self, fitter, fault):
        X, y, error, message = BAD_TRAINING_DATA[fault]
        with pytest.raises(ModelError) as caught:
            FITTERS[fitter](X, y)
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_checks_run_in_order(self):
        nan_y = np.full(3, np.nan)
        cases = [
            (np.zeros(3), np.zeros((3, 1)), "X must be 2-dimensional"),
            (np.zeros((2, 2)), np.zeros((3, 1)), "y must be 1-dimensional"),
            (np.zeros((0, 2)), np.zeros(3), "X and y row counts differ"),
            (np.full((3, 2), np.nan), nan_y, "target contains non-finite values"),
        ]
        for X, y, message in cases:
            with pytest.raises(ModelError, match=message):
                check_training_data(X, y)

    def test_returns_float64_arrays(self):
        X, y = check_training_data([[1, 2], [3, 4]], [5, 6])
        assert X.dtype == y.dtype == np.float64


# Each fitter's parameters as (name, default), the data first; a default
# of inspect.Parameter.empty marks a required parameter.
REQUIRED = inspect.Parameter.empty
FITTER_PARAMETERS = {
    fit_tree: [("X", REQUIRED), ("y", REQUIRED), ("max_depth", REQUIRED),
               ("features_per_node", None), ("seed", 0), ("order", None), ("fitted", None)],
    grow_trees: [("values", REQUIRED), ("y", REQUIRED), ("max_depth", REQUIRED),
                 ("features_per_node", REQUIRED), ("seeds", REQUIRED)],
    fit_gb: [("X", REQUIRED), ("y", REQUIRED), ("n_estimators", 35), ("max_depth", 4),
             ("learning_rate", 0.1), ("seed", 0)],
    fit_rf: [("X", REQUIRED), ("y", REQUIRED), ("n_estimators", 55), ("max_depth", 10),
             ("bootstrap", True), ("max_features", None), ("seed", 0)],
    fit_svr: [("X", REQUIRED), ("y", REQUIRED), ("C", 500.0), ("epsilon", 0.75),
              ("kernel", "rbf"), ("gamma", None), ("seed", 0)],
}


class TestFitterSignatures:
    """A learner takes only the hyperparameters some caller sets; the
    minimum leaf size and SVR's stopping rule are fixed."""

    @pytest.mark.parametrize("fitter", FITTER_PARAMETERS, ids=lambda f: f.__name__)
    def test_parameters_are_unchanged(self, fitter):
        parameters = inspect.signature(fitter).parameters.values()
        assert [(p.name, p.default) for p in parameters] == FITTER_PARAMETERS[fitter]

    def test_settable_count(self):
        settable = [name for table in FITTER_PARAMETERS.values() for name, _ in table[2:]]
        assert len(settable) == 22


class TestKindTable:
    def test_model_kinds_keep_their_order(self):
        assert MODEL_KINDS == ("gb", "rf", "svr")

    def test_every_field_a_kind_reads_is_a_parameter_of_its_fitter(self):
        config_fields = set(TrainConfig.__dataclass_fields__) - {"kind", "seed"}
        read = set()
        for kind in KINDS.values():
            parameters = inspect.signature(kind.fit).parameters
            assert set(kind.fields) <= set(parameters)
            assert "seed" in parameters
            read |= set(kind.fields)
        assert read == config_fields

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_unset_fields_take_the_fitters_defaults(self, kind):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        via_config = fit_model(X, y, TrainConfig(kind=kind, seed=4))
        direct = KINDS[kind].fit(X, y, seed=4)
        assert json.dumps(model_to_dict(via_config)) == json.dumps(model_to_dict(direct))

    @pytest.mark.parametrize("kind, reads", [
        ("gb", {"n_estimators", "max_depth", "learning_rate"}),
        ("rf", {"n_estimators", "max_depth"}),
        ("svr", {"C", "epsilon", "kernel", "gamma"}),
    ])
    def test_each_field_the_kind_reads_reaches_its_fitter(self, kind, reads):
        overrides = {"n_estimators": 2, "max_depth": 1, "learning_rate": 0.5,
                     "C": 7.0, "epsilon": 0.2, "kernel": "linear", "gamma": 0.3}
        rng = np.random.default_rng(25)
        model = fit_model(rng.normal(size=(12, 2)), rng.normal(size=12),
                          TrainConfig(kind=kind, seed=0, **overrides))
        assert {name: model.config[name] for name in reads} == {
            name: overrides[name] for name in reads
        }

    def test_fields_the_kind_does_not_read_are_ignored(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        plain = fit_model(X, y, TrainConfig(kind="gb", seed=1, n_estimators=3))
        extra = fit_model(X, y, TrainConfig(kind="gb", seed=1, n_estimators=3,
                                            C=5.0, kernel="linear"))
        assert json.dumps(model_to_dict(plain)) == json.dumps(model_to_dict(extra))
        assert plain.config["n_estimators"] == 3

    @pytest.mark.parametrize("kind", ["xgb", None, ["gb"]])
    def test_model_from_dict_rejects_unknown_kinds(self, kind):
        with pytest.raises(ModelError) as caught:
            model_from_dict({"format_version": 1, "kind": kind})
        assert str(caught.value) == f"unknown model kind {kind!r}"

