"""The presorted tree learner and the lockstep forest against the
per-node-sorting learner they replaced, and feature validation in every
model."""

import json
import math
import warnings

import numpy as np
import pytest

from molscreen import cli, evaluation
from molscreen.models import (
    GBModel,
    ModelError,
    NonFiniteFeature,
    RFModel,
    TrainConfig,
    WidthMismatch,
    fit_gb,
    fit_model,
    fit_rf,
    fit_tree,
    forest,
)
from molscreen.models.tree import (
    EmptyTrainingSet,
    Node,
    NonFiniteTarget,
    RegressionTree,
    check_training_data,
    sort_columns,
)
from molscreen.rng import SplitMix64, derive_seed

from conftest import DATA_DIR


def oracle_fit_tree(X, y, max_depth, features_per_node=None, seed=0, order=None,
                    fitted=None):
    """``fit_tree`` as it stood before presorting: every node copies its
    rows out of ``X`` and sorts every candidate column. ``order`` is
    accepted and ignored, and ``fitted`` is filled by routing ``X`` through
    the finished tree, as ``fit_gb`` did before, so the model wrappers can
    call it unchanged."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ModelError("X must be 2-dimensional")
    if X.shape[0] != y.shape[0]:
        raise ModelError("X and y row counts differ")
    if X.shape[0] == 0:
        raise EmptyTrainingSet("no training rows")
    if not np.all(np.isfinite(y)):
        raise NonFiniteTarget("target contains non-finite values")
    if max_depth < 0:
        raise ModelError("max_depth must be >= 0")

    rng = SplitMix64(seed)
    n_features = X.shape[1]

    def build(idx, depth):
        target = y[idx]
        if depth >= max_depth or idx.size < 2 or np.all(target == target[0]):
            return Node(value=float(target.mean()))
        if features_per_node is not None and features_per_node < n_features:
            feats = sorted(rng.sample(list(range(n_features)), features_per_node))
        else:
            feats = list(range(n_features))
        found = oracle_best_split(X[np.ix_(idx, feats)], target)
        if found is None:
            return Node(value=float(target.mean()))
        local_feature, threshold = found
        feature = feats[local_feature]
        go_left = X[idx, feature] <= threshold
        left_idx, right_idx = idx[go_left], idx[~go_left]
        if left_idx.size == 0 or right_idx.size == 0:
            return Node(value=float(target.mean()))
        return Node(
            feature=feature,
            threshold=threshold,
            left=build(left_idx, depth + 1),
            right=build(right_idx, depth + 1),
        )

    root = build(np.arange(X.shape[0]), 0)
    tree = RegressionTree(root=root, max_depth=max_depth, n_features=n_features)
    if fitted is not None:
        fitted[:] = tree.predict(X)
    return tree


def oracle_best_split(X, y):
    n, p = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]

    s1 = np.cumsum(ys, axis=0)
    s2 = np.cumsum(ys * ys, axis=0)
    total1 = s1[-1, :]
    total2 = s2[-1, :]

    k = np.arange(1, n, dtype=np.float64)[:, None]
    left_sse = s2[:-1, :] - (s1[:-1, :] ** 2) / k
    right_sse = (total2 - s2[:-1, :]) - ((total1 - s1[:-1, :]) ** 2) / (n - k)
    cost = left_sse + right_sse

    valid = xs[:-1, :] < xs[1:, :]
    cost = np.where(valid, cost, np.inf)

    lowest = float(np.min(cost))
    if not math.isfinite(lowest):
        return None

    tolerance = 1e-9 * (1.0 + abs(lowest))
    features, positions = np.nonzero(cost.T <= lowest + tolerance)
    best = None
    for feature, position in zip(features, positions):
        threshold = float((xs[position, feature] + xs[position + 1, feature]) / 2.0)
        left = y[X[:, feature] <= threshold]
        right = y[X[:, feature] > threshold]
        sse = float(((left - left.mean()) ** 2).sum()) + float(
            ((right - right.mean()) ** 2).sum()
        )
        key = (sse, int(feature), threshold)
        if best is None or key < best:
            best = key
    return best[1], best[2]


def bench_like(seed, n=2000, p=24):
    """A 2,000 x 24 problem shaped like the benchmark's training matrices:
    half the columns small integers 0..7 (many ties), the rest uniform
    reals, a target mixing linear, threshold and interaction terms."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, p))
    half = p // 2
    X[:, :half] = np.floor(X[:, :half] * 8.0)
    y = (
        X @ np.linspace(-1.0, 1.0, p) * 0.5
        + 2.0 * (X[:, 0] > 3)
        + np.sin(3.0 * X[:, half])
        + X[:, 1] * X[:, half + 1]
        + 0.5 * (rng.uniform(size=n) - 0.5)
    )
    return X, y


def small_problems():
    rng = np.random.default_rng(2024)
    cases = {}
    ints = rng.integers(0, 4, size=(40, 5)).astype(float)
    cases["integer_ties"] = (ints, rng.normal(size=40))
    cases["integer_ties_tied_targets"] = (ints, rng.integers(0, 3, size=40).astype(float))
    const = rng.normal(size=(30, 4))
    const[:, 0] = 1.0
    const[:, 2] = -3.5
    cases["constant_columns"] = (const, rng.normal(size=30))
    cases["all_columns_constant"] = (np.full((12, 3), 2.0), rng.normal(size=12))
    cases["tied_targets"] = (rng.normal(size=(30, 3)), np.repeat([0.0, 1.0, 5.0], 10))
    base = rng.normal(size=(25, 1))
    cases["identical_partitions"] = (np.hstack([base, 2.0 * base, base + 1.0, -base]),
                                    rng.normal(size=25))
    dup = rng.integers(0, 3, size=(8, 3)).astype(float)
    cases["duplicated_rows"] = (np.repeat(dup, 4, axis=0), rng.normal(size=32))
    cases["large_target_offset"] = (ints[:30], 1e8 + rng.integers(0, 3, size=30))
    cases["n1"] = (np.array([[0.5, 2.0]]), np.array([3.0]))
    cases["n2"] = (np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 3.0]))
    cases["n2_equal_rows"] = (np.ones((2, 2)), np.array([1.0, 3.0]))
    cases["evaluate_sized"] = (rng.normal(size=(20, 10)), rng.normal(size=20))
    for i in range(8):
        n = int(rng.integers(3, 60))
        p = int(rng.integers(1, 7))
        X = rng.integers(0, int(rng.integers(2, 6)), size=(n, p)).astype(float)
        y = rng.integers(0, 3, size=n).astype(float)
        cases[f"random_ties_{i}"] = (X, y)
    return cases


SMALL = small_problems()
LARGE = {"bench_like_a": bench_like(1), "bench_like_b": bench_like(2)}


def dumps(model) -> str:
    return json.dumps(model.to_dict())


def oracle_fit_gb(X, y, n_estimators=35, max_depth=4, learning_rate=0.1, seed=0):
    """``fit_gb``'s boosting loop as it stood before the forest grew in
    lockstep, around ``oracle_fit_tree``."""
    X, y = check_training_data(X, y)

    init = float(y.mean())
    pred = np.full(X.shape[0], init, dtype=np.float64)
    # Every tree sees the same X; only the residual target changes.
    order = sort_columns(X)
    # Each fit writes its training rows' predictions here.
    fitted = np.empty(X.shape[0], dtype=np.float64)
    trees = []
    for _ in range(n_estimators):
        residual = y - pred
        tree = oracle_fit_tree(
            X,
            residual,
            max_depth=max_depth,
            order=order,
            fitted=fitted,
        )
        pred += learning_rate * fitted
        trees.append(tree)

    config = {
        "kind": "gb",
        "n_estimators": n_estimators,
        "max_depth": max_depth,
        "learning_rate": learning_rate,
        "min_samples_leaf": 1,
        "seed": seed,
    }
    return GBModel(
        init_value=init,
        learning_rate=learning_rate,
        trees=tuple(trees),
        n_features=X.shape[1],
        config=config,
    )


def oracle_fit_rf(X, y, n_estimators=55, max_depth=10, bootstrap=True,
                  max_features=None, seed=0):
    """``fit_rf``'s tree-by-tree loop as it stood before the forest grew in
    lockstep, around ``oracle_fit_tree``."""
    X, y = check_training_data(X, y)

    n, p = X.shape
    per_node = max_features if max_features is not None else max(1, math.ceil(p / 3))
    per_node = min(per_node, p)

    tree_seeds = tuple(derive_seed(seed, t) for t in range(n_estimators))
    trees = []
    for tree_seed in tree_seeds:
        if bootstrap:
            boot_rng = SplitMix64(derive_seed(tree_seed, 0))
            idx = np.array([boot_rng.below(n) for _ in range(n)], dtype=np.intp)
        else:
            idx = np.arange(n, dtype=np.intp)
        trees.append(
            oracle_fit_tree(
                X[idx],
                y[idx],
                max_depth=max_depth,
                features_per_node=per_node if per_node < p else None,
                seed=derive_seed(tree_seed, 1),
            )
        )

    config = {
        "kind": "rf",
        "n_estimators": n_estimators,
        "max_depth": max_depth,
        "min_samples_leaf": 1,
        "bootstrap": bootstrap,
        "max_features": per_node,
        "seed": seed,
    }
    return RFModel(
        trees=tuple(trees),
        tree_seeds=tree_seeds,
        n_features=p,
        config=config,
    )


ORACLES = {fit_gb: oracle_fit_gb, fit_rf: oracle_fit_rf}


@pytest.fixture
def oracle():
    """Fit with the learners' loops as they were, around the old tree
    learner."""

    def fit(function, X, y, **kwargs):
        return ORACLES[function](X, y, **kwargs)

    return fit


TREE_SETTINGS = [
    {"max_depth": 8},
    {"max_depth": 6},
    {"max_depth": 6, "features_per_node": 1, "seed": 5},
    {"max_depth": 6, "features_per_node": 2, "seed": 9},
]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tree_matches_oracle_on_small_problems(name):
    X, y = SMALL[name]
    for settings in TREE_SETTINGS:
        assert dumps(fit_tree(X, y, **settings)) == dumps(oracle_fit_tree(X, y, **settings))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gb_and_rf_match_oracle_on_small_problems(name, oracle):
    X, y = SMALL[name]
    for kwargs in ({}, {"max_depth": 3}):
        assert dumps(fit_gb(X, y, **kwargs)) == dumps(oracle(fit_gb, X, y, **kwargs))
    for kwargs in ({"n_estimators": 9, "seed": 3},
                   {"n_estimators": 5, "max_features": 1},
                   {"n_estimators": 3, "bootstrap": False}):
        assert dumps(fit_rf(X, y, **kwargs)) == dumps(oracle(fit_rf, X, y, **kwargs))


@pytest.mark.parametrize("name", sorted(LARGE))
def test_models_match_oracle_on_benchmark_shaped_problems(name, oracle):
    X, y = LARGE[name]
    assert dumps(fit_tree(X, y, max_depth=10)) == dumps(oracle_fit_tree(X, y, max_depth=10))
    assert dumps(fit_gb(X, y)) == dumps(oracle(fit_gb, X, y))
    kwargs = {"n_estimators": 4, "seed": 7}
    assert dumps(fit_rf(X, y, **kwargs)) == dumps(oracle(fit_rf, X, y, **kwargs))


def test_shared_order_is_the_trees_own_sort():
    X, y = SMALL["integer_ties"]
    order = sort_columns(X)
    assert order.shape == (X.shape[1], X.shape[0])
    for f in range(X.shape[1]):
        assert np.array_equal(order[f], np.argsort(X[:, f], kind="stable"))
    assert dumps(fit_tree(X, y, max_depth=5, order=order)) == dumps(fit_tree(X, y, max_depth=5))


@pytest.mark.parametrize("name", sorted(SMALL) + sorted(LARGE))
def test_fitted_is_the_trees_prediction_on_its_training_rows(name):
    X, y = {**SMALL, **LARGE}[name]
    for settings in TREE_SETTINGS + [{"max_depth": 0}, {"max_depth": 1}]:
        fitted = np.full(len(y), np.nan)
        tree = fit_tree(X, y, fitted=fitted, **settings)
        assert fitted.tobytes() == tree.predict(X).tobytes()
        assert dumps(tree) == dumps(fit_tree(X, y, **settings))


def test_fitted_of_the_wrong_shape_is_rejected():
    X, y = SMALL["integer_ties"]
    with pytest.raises(ModelError, match="fitted"):
        fit_tree(X, y, max_depth=2, fitted=np.empty(len(y) - 1))


def test_order_of_the_wrong_shape_is_rejected():
    X, y = SMALL["integer_ties"]
    with pytest.raises(ModelError):
        fit_tree(X, y, max_depth=2, order=sort_columns(X[:-1]))


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("kind", ["gb", "rf", "svr"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_fit_model_rejects(self, kind, bad):
        X = np.random.default_rng(3).normal(size=(20, 3))
        X[7, 2] = bad
        with pytest.raises(ModelError, match="row 7, column 2"):
            fit_model(X, np.arange(20.0), TrainConfig(kind=kind, seed=0))

    def test_fit_tree_rejects(self):
        X = np.zeros((4, 2))
        X[0, 1] = np.nan
        with pytest.raises(NonFiniteFeature):
            fit_tree(X, np.arange(4.0), max_depth=2)

    @pytest.mark.parametrize("kind", ["gb", "rf", "svr"])
    def test_predict_rejects(self, kind):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        model = fit_model(X, X[:, 0] * 3.0, TrainConfig(kind=kind, seed=0))
        probe = X[:5].copy()
        probe[4, 0] = np.inf
        with pytest.raises(NonFiniteFeature, match="row 4, column 0"):
            model.predict(probe)
        assert model.predict(X[:5]).shape == (5,)


def msc_training_splits():
    """The training matrix, targets and model seed of every repeat of
    ``evaluate --splitter msc --repeats 200`` on the bundled set, as
    ``evaluate`` hands them to ``fit_model``."""

    class Constant:
        def predict(self, X):
            return np.zeros(len(X))

    fits = []

    def record(X, y, config):
        fits.append((X.copy(), y.copy(), config.seed))
        return Constant()

    original = evaluation.fit_model
    evaluation.fit_model = record
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main([
                "evaluate", "--dataset", str(DATA_DIR / "additives24.csv"),
                "--registry", str(DATA_DIR / "scaffold_groups.csv"),
                "--splitter", "msc", "--model", "gb", "--repeats", "200",
                "--seed", "0", "--out-json", "/dev/null", "--out-text", "/dev/null",
            ])
    finally:
        evaluation.fit_model = original
    assert code == 0 and len(fits) == 200
    return fits


@pytest.fixture(scope="module")
def msc_splits():
    return msc_training_splits()


@pytest.mark.parametrize("function", [fit_gb, fit_rf], ids=["gb", "rf"])
def test_models_match_oracle_on_every_msc_training_split(function, msc_splits):
    for X, y, seed in msc_splits:
        assert dumps(function(X, y, seed=seed)) == dumps(ORACLES[function](X, y, seed=seed))


# fit_rf grows a chunk's trees in lockstep up to this many rows per tree
# in the chunk, and one by one through fit_tree above it.
LEARNERS = {"lockstep": 10**9, "per_node": 0}


@pytest.mark.parametrize("learner", LEARNERS)
def test_forest_matches_oracle_on_a_train_2k_shaped_problem(learner, monkeypatch):
    monkeypatch.setattr(forest, "_LOCKSTEP_ROWS_PER_TREE", LEARNERS[learner])
    X, y = bench_like(3)
    kwargs = {"n_estimators": 11, "seed": 4}
    assert dumps(fit_rf(X, y, **kwargs)) == dumps(oracle_fit_rf(X, y, **kwargs))


@pytest.mark.parametrize("learner", LEARNERS)
@pytest.mark.parametrize("chunk_bytes", [1, 20000])
def test_forest_grown_in_chunks_matches_oracle(chunk_bytes, learner, monkeypatch):
    # A chunk holds at most this many bytes (at least one tree), 8,640 a
    # tree here: 1 grows one tree per chunk, 20,000 two trees per chunk.
    monkeypatch.setattr(forest, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(forest, "_LOCKSTEP_ROWS_PER_TREE", LEARNERS[learner])
    X, y = SMALL["integer_ties"]
    for kwargs in ({"n_estimators": 7, "seed": 2}, {"n_estimators": 3, "bootstrap": False}):
        assert dumps(fit_rf(X, y, **kwargs)) == dumps(oracle_fit_rf(X, y, **kwargs))


@pytest.mark.parametrize("learner", LEARNERS)
def test_forest_rejects_a_negative_depth(learner, monkeypatch):
    monkeypatch.setattr(forest, "_LOCKSTEP_ROWS_PER_TREE", LEARNERS[learner])
    X, y = SMALL["integer_ties"]
    for fit in (fit_rf, oracle_fit_rf):
        with pytest.raises(ModelError, match="max_depth must be >= 0"):
            fit(X, y, n_estimators=3, max_depth=-1)


@pytest.mark.parametrize("learner", LEARNERS)
@pytest.mark.parametrize("max_features", [0, -2])
def test_forest_rejects_fewer_than_one_feature_per_node(max_features, learner, monkeypatch):
    monkeypatch.setattr(forest, "_LOCKSTEP_ROWS_PER_TREE", LEARNERS[learner])
    X, y = SMALL["integer_ties"]
    with pytest.raises(ModelError, match=f"max_features must be >= 1, got {max_features}"):
        fit_rf(X, y, n_estimators=3, max_features=max_features)


@pytest.mark.parametrize("features_per_node", [0, -2])
def test_tree_rejects_fewer_than_one_feature_per_node(features_per_node):
    X, y = SMALL["integer_ties"]
    message = f"features_per_node must be >= 1, got {features_per_node}"
    with pytest.raises(ModelError, match=message):
        fit_tree(X, y, max_depth=3, features_per_node=features_per_node)


@pytest.mark.parametrize("name", ["n1", "n2", "n2_equal_rows", "tied_targets",
                                  "all_columns_constant", "evaluate_sized", "bench_like_a"])
def test_fits_raise_no_warnings(name):
    X, y = {**SMALL, **LARGE}[name]
    constant = np.full_like(y, 2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for target in (y, constant):
            fit_tree(X, target, max_depth=10)
            fit_tree(X, target, max_depth=4, features_per_node=1)
            fit_gb(X, target, n_estimators=3)
            fit_rf(X, target, n_estimators=3, seed=1)
            fit_rf(X, target, n_estimators=3, max_features=X.shape[1])


def test_evaluate_writes_nothing_to_stderr(tmp_path, capfd):
    for kind in ("gb", "rf"):
        code = cli.main([
            "evaluate", "--dataset", str(DATA_DIR / "additives24.csv"),
            "--registry", str(DATA_DIR / "scaffold_groups.csv"),
            "--splitter", "msc", "--model", kind, "--repeats", "5", "--seed", "2",
            "--out-json", str(tmp_path / "e.json"), "--out-text", str(tmp_path / "e.txt"),
        ])
        assert code == 0
    assert capfd.readouterr().err == ""


class TestTreePrediction:
    def tree(self):
        return fit_tree(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0.0, 0.0, 1.0, 1.0]),
                        max_depth=1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_rows(self, bad):
        with pytest.raises(NonFiniteFeature, match="row 0, column 0"):
            self.tree().predict(np.array([[bad], [0.0]]))

    @pytest.mark.parametrize("shape", [(2,), (2, 2), (1, 0)])
    def test_rejects_the_wrong_width(self, shape):
        with pytest.raises(WidthMismatch):
            self.tree().predict(np.zeros(shape))

    def test_routes_finite_rows(self):
        assert self.tree().predict([[0.0], [2.5]]).tolist() == [0.0, 1.0]
