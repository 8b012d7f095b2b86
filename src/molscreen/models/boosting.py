"""Gradient boosting for squared-error regression.

Stagewise fitting on residuals with a shrinkage factor: the prediction is
the training-target mean plus ``learning_rate`` times the sum of tree
outputs. No stochastic subsampling, so fits are exact functions of the
data and hyperparameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataio import finite_float, integer, json_object
from .tree import (
    ModelError,
    RegressionTree,
    check_prediction_data,
    check_training_data,
    fit_tree,
    read_field,
    read_trees,
    sort_columns,
)


@dataclass(frozen=True)
class GBModel:
    init_value: float
    learning_rate: float
    trees: tuple[RegressionTree, ...]
    n_features: int
    config: dict

    def predict(self, X) -> np.ndarray:
        X = check_prediction_data(X, self.n_features)
        out = np.full(X.shape[0], self.init_value, dtype=np.float64)
        for tree in self.trees:
            out += self.learning_rate * tree._predict(X)
        return out

    def staged_train_mse(self, X, y) -> list[float]:
        """Training MSE after each boosting stage (stage 0 = mean only)."""
        X = check_prediction_data(X, self.n_features)
        y = np.asarray(y, dtype=np.float64)
        pred = np.full(X.shape[0], self.init_value, dtype=np.float64)
        losses = [float(np.mean((y - pred) ** 2))]
        for tree in self.trees:
            pred += self.learning_rate * tree._predict(X)
            losses.append(float(np.mean((y - pred) ** 2)))
        return losses

    def to_dict(self) -> dict:
        return {
            "kind": "gb",
            "init_value": self.init_value,
            "learning_rate": self.learning_rate,
            "n_features": self.n_features,
            "trees": [t.to_dict() for t in self.trees],
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GBModel":
        n_features = read_field(data, "n_features", integer)
        return cls(
            init_value=read_field(data, "init_value", finite_float),
            learning_rate=read_field(data, "learning_rate", finite_float),
            trees=read_trees(data, n_features),
            n_features=n_features,
            config=read_field(data, "config", json_object),
        )


def fit_gb(
    X,
    y,
    n_estimators: int = 35,
    max_depth: int = 4,
    learning_rate: float = 0.1,
    seed: int = 0,
) -> GBModel:
    X, y = check_training_data(X, y)
    if n_estimators < 0:
        raise ModelError(f"n_estimators must be >= 0, got {n_estimators!r}")
    if max_depth < 0:
        raise ModelError("max_depth must be >= 0")
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ModelError(f"learning_rate must be finite and > 0, got {learning_rate!r}")

    init = float(y.mean())
    pred = np.full(X.shape[0], init, dtype=np.float64)
    # Every tree sees the same X; only the residual target changes.
    order = sort_columns(X)
    # Each fit writes its training rows' predictions here.
    fitted = np.empty(X.shape[0], dtype=np.float64)
    trees = []
    for _ in range(n_estimators):
        residual = y - pred
        tree = fit_tree(X, residual, max_depth=max_depth, order=order, fitted=fitted)
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
