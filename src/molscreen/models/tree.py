"""Greedy CART regression tree.

Split search is exact: every midpoint between consecutive distinct sorted
values of every candidate feature is scored by the weighted sum of squared
errors of the two children, with ties broken toward the smallest feature
index and then the smallest threshold. Each column is sorted once per fit,
not per node. Randomness enters only through optional per-node feature
subsampling (used by the forest), driven by a seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..rng import SplitMix64


class ModelError(ValueError):
    pass


class EmptyTrainingSet(ModelError):
    pass


class NonFiniteTarget(ModelError):
    pass


class NonFiniteFeature(ModelError):
    pass


class WidthMismatch(ModelError):
    pass


@dataclass(frozen=True)
class Node:
    feature: int | None = None
    threshold: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    value: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"leaf": self.value}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Node":
        if "leaf" in data:
            return cls(value=float(data["leaf"]))
        return cls(
            feature=int(data["feature"]),
            threshold=float(data["threshold"]),
            left=cls.from_dict(data["left"]),
            right=cls.from_dict(data["right"]),
        )


@dataclass(frozen=True)
class RegressionTree:
    root: Node
    max_depth: int
    min_samples_leaf: int
    n_features: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise WidthMismatch(
                f"expected {self.n_features} features, got {X.shape}"
            )
        out = np.empty(X.shape[0], dtype=np.float64)
        self._fill(self.root, X, np.arange(X.shape[0]), out)
        return out

    def _fill(self, node: Node, X, idx, out) -> None:
        if node.is_leaf:
            out[idx] = node.value
            return
        go_left = X[idx, node.feature] <= node.threshold
        self._fill(node.left, X, idx[go_left], out)
        self._fill(node.right, X, idx[~go_left], out)

    def to_dict(self) -> dict:
        return {
            "root": self.root.to_dict(),
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "n_features": self.n_features,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegressionTree":
        return cls(
            root=Node.from_dict(data["root"]),
            max_depth=int(data["max_depth"]),
            min_samples_leaf=int(data["min_samples_leaf"]),
            n_features=int(data["n_features"]),
        )


def sort_columns(X: np.ndarray) -> np.ndarray:
    """Row order of every column of ``X``: a p x n array whose row ``f`` is
    the stable ascending ``argsort`` of column ``f``. This is what
    ``fit_tree``'s ``order=`` takes."""
    return np.argsort(X.T, axis=1, kind="stable")


def check_features(X: np.ndarray) -> None:
    """Raise ``NonFiniteFeature`` naming the first NaN or infinite cell."""
    bad = ~np.isfinite(X)
    if bad.any():
        row, column = np.argwhere(bad)[0]
        raise NonFiniteFeature(
            f"features contain a non-finite value at row {row}, column {column}"
        )


def check_training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``X`` and ``y`` as float64 arrays, after the checks every fitter
    makes, in this order: ``X`` is 2-D, ``y`` is 1-D, their row counts
    agree, there is a row, ``y`` is finite, ``X`` is finite."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ModelError("X must be 2-dimensional")
    if y.ndim != 1:
        raise ModelError("y must be 1-dimensional")
    if X.shape[0] != y.shape[0]:
        raise ModelError("X and y row counts differ")
    if X.shape[0] == 0:
        raise EmptyTrainingSet("no training rows")
    if not np.all(np.isfinite(y)):
        raise NonFiniteTarget("target contains non-finite values")
    check_features(X)
    return X, y


def check_prediction_data(X, n_features: int) -> np.ndarray:
    """``X`` as a row-major float64 array, after checking that it has
    ``n_features`` columns and only finite values. Row-major because the
    SVR kernel's matrix products round differently on other layouts of
    the same values."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise WidthMismatch(f"expected {n_features} features, got {X.shape}")
    check_features(X)
    return X


def fit_tree(
    X,
    y,
    max_depth: int,
    min_samples_leaf: int = 1,
    features_per_node: int | None = None,
    seed: int = 0,
    *,
    order: np.ndarray | None = None,
    fitted: np.ndarray | None = None,
) -> RegressionTree:
    """Fit a CART regression tree.

    ``features_per_node`` limits the split search at every node to a seeded
    random draw of that many features (the regression-forest convention);
    ``None`` searches every feature.

    Columns are sorted once per fit, never per node (SLIQ-style presorted
    attribute lists): each node holds, for every feature, its rows in that
    feature's ascending order, and each child receives the parent's lists
    filtered by a stable partition. ``order`` is ``sort_columns(X)``,
    passed in by a caller that fits many trees on the same ``X``.

    ``fitted``, a float64 array of ``len(y)``, receives each training row's
    leaf value: bit for bit ``tree.predict(X)``, since the fit routes rows
    by the same ``x <= threshold`` tests, without routing them again.
    """
    X, y = check_training_data(X, y)
    if max_depth < 0:
        raise ModelError("max_depth must be >= 0")

    n, n_features = X.shape
    if order is None:
        order = sort_columns(X)
    elif order.shape != (n_features, n):
        raise ModelError(f"order must have shape {(n_features, n)}, got {order.shape}")
    if fitted is not None and fitted.shape != (n,):
        raise ModelError(f"fitted must have shape {(n,)}, got {fitted.shape}")
    rng = SplitMix64(seed)
    # Column f of X is values[f * n : (f + 1) * n].
    values = np.ascontiguousarray(X.T).ravel()
    starts = np.arange(n_features, dtype=np.intp) * n
    in_left = np.zeros(n, dtype=bool)

    def leaf(idx: np.ndarray, target: np.ndarray) -> Node:
        value = _mean(target)
        if fitted is not None:
            fitted[idx] = value
        return Node(value=value)

    def build(idx: np.ndarray, rows: np.ndarray | None, depth: int) -> Node:
        # idx: the node's rows, increasing; rows: p x idx.size, row f holds
        # them in ascending order of feature f (None at max_depth).
        target = y[idx]
        if (
            depth >= max_depth
            or idx.size < 2 * min_samples_leaf
            or idx.size < 2
            or (target == target[0]).all()
        ):
            return leaf(idx, target)
        if features_per_node is not None and features_per_node < n_features:
            feats = sorted(rng.sample(list(range(n_features)), features_per_node))
            found = _best_split(
                values, starts[feats], rows[feats], idx, y, target, min_samples_leaf
            )
        else:
            feats = range(n_features)
            found = _best_split(values, starts, rows, idx, y, target, min_samples_leaf)
        if found is None:
            return leaf(idx, target)
        local_feature, threshold, go_left = found
        left_idx = idx[go_left]
        n_left = left_idx.size
        if n_left == 0 or n_left == idx.size:
            return leaf(idx, target)
        if depth + 1 >= max_depth:  # both children are leaves
            left_rows = right_rows = None
        else:
            # Boolean indexing keeps C order, so each feature's list stays
            # sorted.
            in_left[left_idx] = True
            sel = in_left[rows]
            in_left[left_idx] = False
            left_rows = rows[sel].reshape(n_features, n_left)
            right_rows = rows[~sel].reshape(n_features, -1)
        return Node(
            feature=feats[local_feature],
            threshold=threshold,
            left=build(left_idx, left_rows, depth + 1),
            right=build(idx[~go_left], right_rows, depth + 1),
        )

    root = build(np.arange(n), order, 0)
    # build refers to itself; dropping the name breaks that cycle, so its
    # arrays are freed now rather than at the next garbage collection.
    del build, leaf
    return RegressionTree(
        root=root,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        n_features=n_features,
    )


def _mean(a: np.ndarray) -> float:
    """``float(a.mean())`` bit for bit (the same pairwise sum, one IEEE
    division) without ``ndarray.mean``'s Python-level wrapper."""
    return float(a.sum()) / a.size


def _best_split(values, starts, rows, idx, y, target, min_samples_leaf: int):
    """Best (local feature, threshold, left mask over ``idx``) by weighted
    children SSE, or None.

    ``rows`` holds, per candidate feature, the node's rows in ascending
    order of that feature, whose values start at ``starts`` in ``values``;
    ``target`` is ``y[idx]``. Prefix sums give left/right SSE for every
    cut position of every candidate at once; invalid cuts (equal adjacent
    values, leaf-size violations) are masked out and ties resolve to the
    smallest feature index then the smallest threshold.
    """
    m = idx.size
    xs = values[rows + starts[:, None]]
    ys = y[rows]

    s1 = ys.cumsum(axis=1)
    s2 = (ys * ys).cumsum(axis=1)
    total1 = s1[:, -1:]
    total2 = s2[:, -1:]

    k = np.arange(1, m, dtype=np.float64)  # left sizes 1..m-1
    left_sse = s2[:, :-1] - (s1[:, :-1] ** 2) / k
    right_sse = (total2 - s2[:, :-1]) - ((total1 - s1[:, :-1]) ** 2) / (m - k)
    cost = left_sse + right_sse

    valid = xs[:, :-1] < xs[:, 1:]
    if min_samples_leaf > 1:
        valid &= (k >= min_samples_leaf) & ((m - k) >= min_samples_leaf)
    cost = np.where(valid, cost, np.inf)

    lowest = float(cost.min())
    if not math.isfinite(lowest):
        return None

    # Different features can induce the *same* partition (e.g. both split
    # off one extreme row); their prefix-sum costs then differ only by
    # rounding. Re-evaluate every near-minimal cut with the direct formula
    # over the node's rows in index order, which is bitwise identical for
    # identical partitions, so the smallest-feature-then-smallest-threshold
    # tie-break is exact. Each distinct partition is scored once.
    tolerance = 1e-9 * (1.0 + abs(lowest))
    features, positions = np.nonzero(cost <= lowest + tolerance)
    if features.size == 1:  # no rival cut to rank against
        feature, position = int(features[0]), positions[0]
        threshold = float((xs[feature, position] + xs[feature, position + 1]) / 2.0)
        return feature, threshold, values[starts[feature] + idx] <= threshold
    scored: dict[bytes, float] = {}
    best = None
    for feature, position in zip(features, positions):
        threshold = float((xs[feature, position] + xs[feature, position + 1]) / 2.0)
        go_left = values[starts[feature] + idx] <= threshold
        key = go_left.tobytes()
        sse = scored.get(key)
        if sse is None:
            left = target[go_left]
            right = target[~go_left]
            sse = float(((left - _mean(left)) ** 2).sum()) + float(
                ((right - _mean(right)) ** 2).sum()
            )
            scored[key] = sse
        if best is None or (sse, feature, threshold) < best[:3]:
            best = (sse, int(feature), threshold, go_left)
    return best[1:]
