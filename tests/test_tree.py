"""The tree learner (one engine, ``tree._Growth``, behind ``fit_tree``,
``fit_gb`` and ``fit_rf``) against the per-node-sorting recursive learner
it replaced, one-pass prediction against the recursive per-node predictor
it replaced, and feature validation in every model."""

import json
import math
import re
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

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
    boosting,
    fit_gb,
    fit_gb_many,
    fit_model,
    fit_rf,
    fit_rf_many,
    fit_tree,
    forest,
    load_model,
    tree,
)
from molscreen.models.tree import (
    EmptyTrainingSet,
    NonFiniteTarget,
    TreeTable,
    check_prediction_data,
    check_training_data,
)
from molscreen.rng import SplitMix64, derive_seed

from conftest import DATA_DIR

DEMO = Path(__file__).resolve().parents[1] / "demo"


@dataclass(frozen=True)
class Node:
    """A tree node as a linked object, as trees were stored before they
    became flat node arrays."""

    feature: int | None = None
    threshold: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    value: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


def flat_tree(roots: list[Node], max_depth: int, n_features: int) -> TreeTable:
    """The ``TreeTable`` of ``Node`` graphs, one tree per root, each tree
    numbered breadth first after the trees before it."""
    feature, threshold, left, value, firsts = [], [], [], [], []
    for root in roots:
        firsts.append(len(left))
        nodes = [root]
        for node in nodes:  # grows as it goes
            split = not node.is_leaf
            feature.append(node.feature if split else 0)
            threshold.append(node.threshold if split else 0.0)
            left.append(firsts[-1] + len(nodes) if split else -1)
            value.append(0.0 if split else node.value)
            if split:
                nodes += (node.left, node.right)
    return TreeTable(
        feature=np.array(feature, dtype=np.intp), threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.intp), value=np.array(value, dtype=float),
        roots=np.array(firsts, dtype=np.intp), max_depth=max_depth, n_features=n_features,
    )


def node_graph(tree: TreeTable, i: int = 0) -> Node:
    """Node ``i`` of a table and everything below it as ``Node``s."""
    child = int(tree.left[i])
    if child < 0:
        return Node(value=float(tree.value[i]))
    return Node(feature=int(tree.feature[i]), threshold=float(tree.threshold[i]),
                left=node_graph(tree, child), right=node_graph(tree, child + 1))


def route(node: Node, X, idx, out) -> None:
    """The recursive predictor trees had before one-pass routing: each
    node sends its rows ``idx`` on by ``x <= threshold``."""
    if node.is_leaf:
        out[idx] = node.value
        return
    go_left = X[idx, node.feature] <= node.threshold
    route(node.left, X, idx[go_left], out)
    route(node.right, X, idx[~go_left], out)


def node_predict(root: Node, X) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)
    route(root, X, np.arange(X.shape[0]), out)
    return out


def oracle_predict(model, X) -> np.ndarray:
    """``model.predict(X)`` for a tree, a booster or a forest, each tree
    routed node by node and the trees summed one by one in order."""
    X = check_prediction_data(X, model.n_features)
    if isinstance(model, TreeTable):
        return node_predict(node_graph(model), X)
    if isinstance(model, GBModel):
        out = np.full(X.shape[0], model.init_value, dtype=np.float64)
        for root in model.trees.roots.tolist():
            out += model.learning_rate * node_predict(node_graph(model.trees, root), X)
        return out
    total = np.zeros(X.shape[0], dtype=np.float64)
    for root in model.trees.roots.tolist():
        total += node_predict(node_graph(model.trees, root), X)
    return total / len(model.trees)


def threshold_rows(model, base: np.ndarray) -> np.ndarray:
    """One row per split node of every tree of ``model`` whose value of
    the node's feature is exactly the node's threshold. Each starts as a
    row of ``base``; on the way down from the root, each feature not set
    yet is set to take the path: the threshold toward a left child, the
    next float above it toward a right one."""
    rows = []
    for tree in (getattr(model, "trees", model),):  # one table holds all trees
        left = tree.left.tolist()
        parent = {}
        for i, child in enumerate(left):
            if child >= 0:
                parent[child] = parent[child + 1] = i
        for target in np.flatnonzero(tree.left >= 0).tolist():
            chain = [target]
            while chain[-1] in parent:
                chain.append(parent[chain[-1]])
            chain.reverse()
            row, done = base[len(rows) % len(base)].copy(), set()
            for node, child in zip(chain, chain[1:] + [None]):
                f, threshold = int(tree.feature[node]), tree.threshold[node]
                if f not in done:
                    done.add(f)
                    right = child is not None and child != left[node]
                    row[f] = np.nextafter(threshold, np.inf) if right else threshold
            rows.append(row)
    return np.array(rows).reshape(-1, model.n_features)


def assert_predicts_like_oracle(model, X) -> None:
    """``model.predict`` is bitwise ``oracle_predict`` on the rows of
    ``X``, on rows exactly on its thresholds and on no rows."""
    X = np.asarray(X, dtype=np.float64)
    for rows in (X, threshold_rows(model, X), X[:0]):
        assert model.predict(rows).tobytes() == oracle_predict(model, rows).tobytes()


def oracle_fit_tree(X, y, max_depth, features_per_node=None, seed=0, fitted=None):
    """``fit_tree`` as it stood before presorting: a recursion in which
    every node copies its rows out of ``X`` and sorts every candidate
    column. ``fitted`` is filled by routing ``X`` through the finished
    tree, as ``fit_gb`` did before."""
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
    if fitted is not None:
        fitted[:] = node_predict(root, X)
    return flat_tree([root], max_depth, n_features)


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
    # Cuts and their mirrors: a 0/1 key beside its complement, and a count
    # beside a column decreasing in it, order the rows in opposite
    # directions.
    key = rng.integers(0, 2, size=18).astype(float)
    count = rng.integers(0, 6, size=18).astype(float)
    other = rng.integers(0, 3, size=18).astype(float)
    cases["mirrored_keys"] = (np.column_stack([key, 1.0 - key, count, 12.0 - 2.0 * count, other]),
                              rng.integers(0, 4, size=18).astype(float))
    # Targets symmetric about 1: cutting off the 0s and cutting off the 2s
    # are two partitions of equal exact SSE, and the reversed second column
    # induces the mirror of each.
    sym = rng.permutation(np.repeat([0.0, 1.0, 2.0], 4))
    cases["mirrored_equal_partitions"] = (np.column_stack([sym, 2.0 - sym]), sym)
    return cases


SMALL = small_problems()
LARGE = {"bench_like_a": bench_like(1), "bench_like_b": bench_like(2)}


def dumps(model) -> str:
    return json.dumps(model.to_list() if isinstance(model, TreeTable) else model.to_dict())


def oracle_fit_gb(X, y, n_estimators=35, max_depth=4, learning_rate=0.1, seed=0):
    """``fit_gb``'s boosting loop as it stood before the forest grew in
    lockstep, around ``oracle_fit_tree``."""
    X, y = check_training_data(X, y)

    init = float(y.mean())
    pred = np.full(X.shape[0], init, dtype=np.float64)
    # Each fit writes its training rows' predictions here.
    fitted = np.empty(X.shape[0], dtype=np.float64)
    trees = []
    for _ in range(n_estimators):
        residual = y - pred
        tree = oracle_fit_tree(X, residual, max_depth=max_depth, fitted=fitted)
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
        trees=flat_tree([node_graph(tree) for tree in trees], max_depth, X.shape[1]),
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
        trees=flat_tree([node_graph(tree) for tree in trees], max_depth, p),
        tree_seeds=tree_seeds,
        n_features=p,
        config=config,
    )


ORACLES = {fit_gb: oracle_fit_gb, fit_rf: oracle_fit_rf}
_ORACLE_BOOSTERS: dict = {}


def oracle_booster(X, y, seed) -> str:
    """``dumps(oracle_fit_gb(X, y, seed=seed))``, computed once per problem
    in a session: the evaluate splits recur across tests."""
    key = (X.shape, X.tobytes(), y.tobytes(), seed)
    if key not in _ORACLE_BOOSTERS:
        _ORACLE_BOOSTERS[key] = dumps(oracle_fit_gb(X, y, seed=seed))
    return _ORACLE_BOOSTERS[key]


@pytest.fixture
def oracle():
    """Fit with the learners' loops as they were, around the old tree
    learner."""

    def fit(function, X, y, **kwargs):
        return ORACLES[function](X, y, **kwargs)

    return fit


def fit_drawn_tree(X, y, max_depth, features_per_node, seed):
    """A tree grown alone, as a forest grows each of its trees: every node
    searches a draw of ``features_per_node`` features (all of them when
    that is at least their number) from ``SplitMix64(seed)``, in
    depth-first order."""
    X, y = check_training_data(X, y)
    n, p = X.shape
    draws = np.array([min(features_per_node, p)])
    nodes = tree.grow_depth_first(X.T[None], y[None], max_depth, [seed], np.array([p]), draws, [n])
    return tree._tables([nodes], 1, max_depth, [p])[0]


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
        fit = fit_drawn_tree if "features_per_node" in settings else fit_tree
        tree = fit(X, y, **settings)
        assert dumps(tree) == dumps(oracle_fit_tree(X, y, **settings))
        assert_predicts_like_oracle(tree, X)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gb_and_rf_match_oracle_on_small_problems(name, oracle):
    X, y = SMALL[name]
    for kwargs in ({}, {"max_depth": 3}, {"n_estimators": 0}):
        model = fit_gb(X, y, **kwargs)
        assert dumps(model) == dumps(oracle(fit_gb, X, y, **kwargs))
        assert_predicts_like_oracle(model, X)
    for kwargs in ({"n_estimators": 9, "seed": 3},
                   {"n_estimators": 5, "max_features": 1},
                   {"n_estimators": 3, "bootstrap": False}):
        model = fit_rf(X, y, **kwargs)
        assert dumps(model) == dumps(oracle(fit_rf, X, y, **kwargs))
        assert_predicts_like_oracle(model, X)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_lockstep_gb_and_rf_match_oracle_on_small_problems(name, oracle):
    # Three problems of one row count grow together: the boosters in one
    # lockstep growth, the forests in one _grow_forests.
    X, y = SMALL[name]
    problems = [(X, y), (X[::-1], y[::-1]), (X, 3.0 - y)]
    seeds = [0, 1, 2]
    for kwargs in ({}, {"max_depth": 3}):
        models = fit_gb_many(problems, seeds, **kwargs)
        for model, (X, y), seed in zip(models, problems, seeds):
            assert dumps(model) == dumps(oracle(fit_gb, X, y, seed=seed, **kwargs))
    models = fit_rf_many(problems, seeds, n_estimators=9)
    for model, (X, y), seed in zip(models, problems, seeds):
        assert dumps(model) == dumps(oracle(fit_rf, X, y, n_estimators=9, seed=seed))
        assert_predicts_like_oracle(model, X)


def test_distinct_tied_partitions_are_rescored_on_both_paths(oracle, monkeypatch):
    # Case (b)'s tied nodes reach _rescore with two distinct partitions
    # from a node searched alone (_Growth._split_one) and from nodes
    # searched together (_Growth._settle), counting a mirror as the same
    # partition.
    X, y = SMALL["mirrored_equal_partitions"]
    partitions = []
    rescore, settle = tree._rescore, tree._Growth._settle
    settling = []

    def counted(goes_left, *args):
        partitions.append((bool(settling), len({(g if g[0] else ~g).tobytes() for g in goes_left})))
        return rescore(goes_left, *args)

    def settled(*args):
        settling.append(True)
        try:
            return settle(*args)
        finally:
            settling.pop()

    monkeypatch.setattr(tree, "_rescore", counted)
    monkeypatch.setattr(tree._Growth, "_settle", settled)
    assert dumps(fit_tree(X, y, max_depth=8)) == dumps(oracle_fit_tree(X, y, max_depth=8))
    assert (False, 2) in partitions
    partitions.clear()
    # Enough boosters grow together that their roots are searched as a
    # group.
    seeds = list(range(tree._FEW))
    for model, seed in zip(fit_gb_many([(X, y)] * len(seeds), seeds), seeds):
        assert dumps(model) == dumps(oracle(fit_gb, X, y, seed=seed))
    # _settle keeps the first cut of a node with one partition itself.
    from_settle = [count for in_settle, count in partitions if in_settle]
    assert from_settle and min(from_settle) >= 2


@pytest.mark.parametrize("name", sorted(LARGE))
def test_models_match_oracle_on_benchmark_shaped_problems(name, oracle):
    X, y = LARGE[name]
    kwargs = {"n_estimators": 4, "seed": 7}
    drawn = {"max_depth": 10, "features_per_node": 8, "seed": 3}
    # max_depth=1 is the benchmark's split_search call.
    models = [fit_tree(X, y, max_depth=10), fit_tree(X, y, max_depth=1),
              fit_drawn_tree(X, y, **drawn), fit_gb(X, y), fit_rf(X, y, **kwargs)]
    oracles = [oracle_fit_tree(X, y, max_depth=10), oracle_fit_tree(X, y, max_depth=1),
               oracle_fit_tree(X, y, **drawn), oracle(fit_gb, X, y), oracle(fit_rf, X, y, **kwargs)]
    for model, expected in zip(models, oracles):
        assert dumps(model) == dumps(expected)
        assert_predicts_like_oracle(model, X)


def test_shared_order_is_the_trees_own_sort():
    # A growth that replants (a booster's) keeps every column's stable
    # sort, and the rows in index order, for each round to start from.
    X, y = SMALL["integer_ties"]
    growth = tree._Growth(X.T[None], 5, replant=True)
    lists = growth.sorted_lists[:-1].reshape(X.shape[1] + 1, X.shape[0])
    for f in range(X.shape[1]):
        assert np.array_equal(lists[f], np.argsort(X[:, f], kind="stable"))
    assert np.array_equal(lists[-1], np.arange(len(y)))
    growth.grow(y[None])
    second = growth.grow(3.0 - y[None])
    fresh = tree._Growth(X.T[None], 5).grow(3.0 - y[None])
    assert all(np.array_equal(a, b) for a, b in zip(second, fresh))


@pytest.mark.parametrize("feats", [None, np.arange(0, 24, 3)])
def test_a_large_node_is_searched_and_partitioned_in_the_growths_buffers(feats):
    # Once a growth exists, searching and splitting a 2,000-row node of 24
    # features allocates less than one 24 x 2,000 float64 array: the
    # search and the partition write into buffers the growth owns.
    X, y = LARGE["bench_like_a"]
    growth = tree._Growth(X.T[None], 4)
    growth.plant(y[None])
    tracemalloc.start()
    try:
        (split,) = growth._split_one(0, feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split[0] == 0
    assert peak < X.size * 8


@pytest.mark.parametrize("feats", [None, np.array([0, 2, 3])])
def test_the_buffered_search_and_partition_raise_on_bad_indices(feats):
    # The one-node search and the partition take with mode="clip", which
    # clamps an index instead of raising, so that a take into a buffer
    # copies nothing. A node whose rows run past its tree's lists, and a
    # partition told a left size its rows do not have, still raise.
    X, y = SMALL["integer_ties"]
    growth = tree._Growth(X.T[None], 4)
    growth.plant(y[None])
    growth.start[0] = 1
    with pytest.raises(IndexError, match=r"node 0 holds rows \[1, 41\) of 40"):
        growth._split_one(0, feats)
    growth.goes_left[:] = np.arange(growth.n) < 10
    with pytest.raises(ValueError):
        growth._partition(growth.by_tree[0], 11)


@pytest.mark.parametrize("name", sorted(SMALL) + sorted(LARGE))
def test_fitted_is_the_trees_prediction_on_its_training_rows(name):
    # A growth's fitted values, which boosting adds up round by round, are
    # bit for bit the grown tree's prediction on its training rows.
    X, y = {**SMALL, **LARGE}[name]
    for max_depth in (8, 6, 0, 1):
        fitted = np.full((1, len(y)), np.nan)
        nodes = tree._Growth(X.T[None], max_depth).grow(y[None], fitted)
        (grown,) = tree._tables([nodes], 1, max_depth, [X.shape[1]])
        assert dumps(grown) == dumps(fit_tree(X, y, max_depth))
        assert fitted[0].tobytes() == grown.predict(X).tobytes()
        assert_predicts_like_oracle(grown, X)


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


def evaluate_training_splits(*options):
    """The training matrix, targets and model seed of every repeat of
    ``evaluate --model gb`` on the bundled set with ``options``, as
    ``evaluate`` hands them to ``fit_models``."""

    class Constant:
        def predict(self, X):
            return np.zeros(len(X))

    fits = []

    def record(problems, config, seeds):
        fits.extend((X.copy(), y.copy(), seed) for (X, y), seed in zip(problems, seeds))
        return [Constant() for _ in seeds]

    original = evaluation.fit_models
    evaluation.fit_models = record
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main([
                "evaluate", "--dataset", str(DATA_DIR / "additives24.csv"),
                "--registry", str(DATA_DIR / "scaffold_groups.csv"), "--model", "gb",
                "--seed", "0", "--out-json", "/dev/null", "--out-text", "/dev/null", *options,
            ])
    finally:
        evaluation.fit_models = original
    assert code == 0
    return fits


def msc_training_splits():
    """The training matrix, targets and model seed of every repeat of
    ``evaluate --splitter msc --repeats 200`` on the bundled set."""
    fits = evaluate_training_splits("--splitter", "msc", "--repeats", "200")
    assert len(fits) == 200
    return fits


@pytest.fixture(scope="module")
def msc_splits():
    return msc_training_splits()


@pytest.mark.parametrize("function", [fit_gb, fit_rf], ids=["gb", "rf"])
def test_models_match_oracle_on_every_msc_training_split(function, msc_splits):
    for X, y, seed in msc_splits:
        model = function(X, y, seed=seed)
        if function is fit_gb:
            assert dumps(model) == oracle_booster(X, y, seed)
        else:
            assert dumps(model) == dumps(oracle_fit_rf(X, y, seed=seed))
        assert_predicts_like_oracle(model, X)


EVALUATE_OPTIONS = {
    "msc": ("--splitter", "msc", "--repeats", "200"),
    "random": ("--splitter", "random", "--repeats", "200"),
    "logo": ("--splitter", "logo"),
    "msc-keys": ("--splitter", "msc", "--repeats", "200", "--blocks", "K,D"),
}


@pytest.mark.parametrize("options", EVALUATE_OPTIONS)
def test_lockstep_boosters_match_fit_gb_on_every_evaluate_split(options, monkeypatch):
    fits = evaluate_training_splits(*EVALUATE_OPTIONS[options])
    problems, seeds = [(X, y) for X, y, _ in fits], [seed for _, _, seed in fits]
    expected = [oracle_booster(X, y, seed) for X, y, seed in fits]
    # All of the repeats grow together, then in chunks of three boosters,
    # then each alone: leave-one-group-out splits differ in row count.
    assert [dumps(model) for model in fit_gb_many(problems, seeds)] == expected
    rows, width = max(X.shape[0] for X, _ in problems), max(X.shape[1] for X, _ in problems)
    monkeypatch.setattr(boosting, "_CHUNK_BYTES", 3 * rows * (24 * width + 176))
    models = fit_gb_many(problems, seeds)
    assert [dumps(model) for model in models] == expected
    assert [dumps(fit_gb(X, y, seed=seed)) for X, y, seed in fits[::10]] == expected[::10]
    for model, (X, _) in zip(models, problems):
        assert_predicts_like_oracle(model, X)


def evaluate_test_sets(kind, splitter, monkeypatch):
    """Every model ``evaluate --repeats 200`` fits on the bundled set with
    ``kind`` and ``splitter``, and the test rows it scores the model on."""
    scored = []
    score = evaluation._score

    def record(model, X_test, y_test):
        scored.append((model, X_test.copy()))
        return score(model, X_test, y_test)

    monkeypatch.setattr(evaluation, "_score", record)
    code = cli.main([
        "evaluate", "--dataset", str(DATA_DIR / "additives24.csv"),
        "--registry", str(DATA_DIR / "scaffold_groups.csv"), "--model", kind,
        "--splitter", splitter, "--repeats", "200", "--seed", "0",
        "--out-json", "/dev/null", "--out-text", "/dev/null",
    ])
    assert code == 0 and len(scored) == 200
    return scored


@pytest.mark.parametrize("splitter", ["msc", "random"])
@pytest.mark.parametrize("kind", ["gb", "rf"])
def test_every_evaluate_repeat_predicts_like_the_oracle(kind, splitter, monkeypatch):
    for model, X_test in evaluate_test_sets(kind, splitter, monkeypatch):
        assert_predicts_like_oracle(model, X_test)


def test_demo_model_predicts_like_the_oracle(tmp_path, monkeypatch):
    # The demo model's own training rows, recorded from the README's train
    # command.
    fits = []

    def record(X, y, config):
        fits.append(X.copy())
        return fit_model(X, y, config)

    monkeypatch.setattr(cli, "fit_model", record)
    assert cli.main([
        "train", "--dataset", str(DATA_DIR / "additives24.csv"), "--model", "gb",
        "--seed", "7", "--out", str(tmp_path / "model.json"),
        "--pipeline-out", str(tmp_path / "pipeline.json"),
    ]) == 0
    model = load_model(DEMO / "model.json")
    assert len(model.trees) == 35
    assert_predicts_like_oracle(model, fits[0])


# fit_rf grows all of a forest's trees in one growth ("lockstep"), or, at a
# _CHUNK_BYTES of one byte, each tree in a growth of its own, so that each
# step searches one node ("per_node").
LEARNERS = {"lockstep": tree._CHUNK_BYTES, "per_node": 1}


@pytest.mark.parametrize("learner", LEARNERS)
def test_forest_matches_oracle_on_a_train_2k_shaped_problem(learner, monkeypatch):
    monkeypatch.setattr(forest, "_CHUNK_BYTES", LEARNERS[learner])
    X, y = bench_like(3)
    kwargs = {"n_estimators": 11, "seed": 4}
    model = fit_rf(X, y, **kwargs)
    assert dumps(model) == dumps(oracle_fit_rf(X, y, **kwargs))
    assert_predicts_like_oracle(model, X)


@pytest.fixture
def growths(monkeypatch):
    """The number of trees of each growth fit_rf grows, in order."""
    taken = []
    grow = forest.grow_depth_first
    monkeypatch.setattr(forest, "grow_depth_first",
                        lambda values, *args: taken.append(len(values)) or grow(values, *args))
    return taken


FOREST_SETTINGS = [{"seed": 2}, {"bootstrap": False}, {"max_features": 2, "seed": 1}]


def assert_forests_grow(X, y, n_estimators, sizes, growths):
    """fit_rf of ``X, y`` with each of FOREST_SETTINGS grows growths of
    ``sizes`` trees and matches the oracle."""
    for settings in FOREST_SETTINGS:
        growths.clear()
        model = fit_rf(X, y, n_estimators=n_estimators, **settings)
        assert growths == sizes
        assert dumps(model) == dumps(oracle_fit_rf(X, y, n_estimators=n_estimators, **settings))
        assert_predicts_like_oracle(model, X)


@pytest.mark.parametrize("extra", [0, 1])
def test_forests_of_150_and_151_rows_match_oracle(extra, growths):
    # Forests of three trees of 150 and 151 training rows grow in one
    # growth.
    X, y = bench_like(5, n=3 * 50 + extra, p=6)
    assert_forests_grow(X, y, 3, [3], growths)


@pytest.mark.parametrize("over, route", [(0, "lockstep"), (1, "chunks")])
def test_forest_route_at_the_state_limit_matches_oracle(over, route, growths, monkeypatch):
    # Seven trees of 40 rows and 5 columns hold 7 x 40 x (16 x 5 + 136)
    # bytes of lockstep state: they grow in one growth while that is at
    # most _CHUNK_BYTES, and in two chunks, of four trees and three, when
    # it is one byte over.
    monkeypatch.setattr(forest, "_CHUNK_BYTES", 7 * 40 * (16 * 5 + 136) - over)
    X, y = SMALL["integer_ties"]
    assert_forests_grow(X, y, 7, [7] if route == "lockstep" else [4, 3], growths)


def test_forests_in_chunks_match_oracle(growths, monkeypatch):
    # Three forests of three trees grown together, two trees to a chunk:
    # a chunk holds trees of two forests.
    monkeypatch.setattr(forest, "_CHUNK_BYTES", 2 * 40 * (16 * 5 + 136))
    X, y = SMALL["integer_ties"]
    problems = [(X, y), (X[::-1], 3.0 - y), (X[:, :3], y)]
    models = fit_rf_many(problems, [5, 6, 7], n_estimators=3)
    assert growths == [2, 2, 2, 2, 1]
    for model, (X, y), seed in zip(models, problems, [5, 6, 7]):
        assert dumps(model) == dumps(oracle_fit_rf(X, y, n_estimators=3, seed=seed))


@pytest.mark.parametrize("learner", LEARNERS)
def test_forest_rejects_a_negative_depth(learner, monkeypatch):
    monkeypatch.setattr(forest, "_CHUNK_BYTES", LEARNERS[learner])
    X, y = SMALL["integer_ties"]
    for fit in (fit_rf, oracle_fit_rf):
        with pytest.raises(ModelError, match="max_depth must be >= 0"):
            fit(X, y, n_estimators=3, max_depth=-1)


@pytest.mark.parametrize("learner", LEARNERS)
@pytest.mark.parametrize("max_features", [0, -2])
def test_forest_rejects_fewer_than_one_feature_per_node(max_features, learner, monkeypatch):
    monkeypatch.setattr(forest, "_CHUNK_BYTES", LEARNERS[learner])
    X, y = SMALL["integer_ties"]
    with pytest.raises(ModelError, match=f"max_features must be >= 1, got {max_features}"):
        fit_rf(X, y, n_estimators=3, max_features=max_features)


@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3.0), True, "3"])
@pytest.mark.parametrize("fit, name", [
    (fit_tree, "max_depth"),
    (fit_gb, "n_estimators"), (fit_gb, "max_depth"),
    (fit_rf, "n_estimators"), (fit_rf, "max_depth"), (fit_rf, "max_features"),
    (fit_gb_many, "n_estimators"), (fit_gb_many, "max_depth"),
    (fit_rf_many, "n_estimators"), (fit_rf_many, "max_depth"),
])
def test_integer_hyperparameters_must_be_integers(fit, name, value):
    # A float, even a whole one, a bool or any other type is refused
    # before fitting, as a ModelError naming the hyperparameter.
    X, y = SMALL["integer_ties"]
    settings = {"max_depth": 3, name: value} if fit is fit_tree else {name: value}
    with pytest.raises(ModelError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        if fit in (fit_gb_many, fit_rf_many):
            fit([(X, y), (X[:-1], y[:-1])], [0, 1], **settings)
        else:
            fit(X, y, **settings)


@pytest.mark.parametrize("name", ["n1", "n2", "n2_equal_rows", "tied_targets",
                                  "all_columns_constant", "evaluate_sized", "bench_like_a"])
def test_fits_raise_no_warnings(name):
    X, y = {**SMALL, **LARGE}[name]
    constant = np.full_like(y, 2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for target in (y, constant):
            fit_tree(X, target, max_depth=10)
            fit_drawn_tree(X, target, max_depth=4, features_per_node=1, seed=0)
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

    def test_a_row_on_the_threshold_goes_left(self):
        assert self.tree().predict([[1.5], [np.nextafter(1.5, 2.0)]]).tolist() == [0.0, 1.0]

    def test_no_rows(self):
        X, train = np.zeros((0, 1)), np.array([[0.0], [1.0]])
        assert self.tree().predict(X).shape == (0,)
        for model in (fit_gb(train, [0.0, 1.0], n_estimators=2),
                      fit_rf(train, [0.0, 1.0], n_estimators=2)):
            assert model.predict(X).shape == (0,)

    @pytest.mark.parametrize("n_estimators", [0, 2, 35])
    def test_a_table_of_other_than_one_tree_is_refused(self, n_estimators):
        X = np.array([[0.0], [1.0], [2.0]])
        trees = fit_gb(X, [0.0, 1.0, 3.0], n_estimators=n_estimators).trees
        with pytest.raises(ModelError, match=f"one tree, this one holds {n_estimators}$"):
            trees.predict(X)

    def test_a_leaf_alone(self):
        tree = fit_tree(np.array([[0.0], [1.0]]), np.array([2.0, 2.0]), max_depth=3)
        assert tree.left.tolist() == [-1]
        assert tree.predict([[5.0], [-5.0]]).tolist() == [2.0, 2.0]
