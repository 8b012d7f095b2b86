"""Gradient boosting for squared-error regression.

Stagewise fitting on residuals with a shrinkage factor: the prediction is
the training-target mean plus ``learning_rate`` times the sum of tree
outputs. No stochastic subsampling, so fits are exact functions of the
data and hyperparameters.

Every booster grows through one ``tree._Growth``, one tree level per
step. ``fit_gb`` grows one booster; ``fit_gb_many`` fits many boosters on
unrelated data, such as the repeats of an evaluation, and grows them in
lockstep: round ``r`` grows tree ``r`` of every one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataio import finite_float, integer, json_object
from .batch import fit_many
from .tree import (
    _CHUNK_BYTES,
    ModelError,
    TreeTable,
    _Growth,
    _tables,
    check_integer,
    check_prediction_data,
    check_training_data,
    read_field,
    read_trees,
)


@dataclass(frozen=True)
class GBModel:
    init_value: float
    learning_rate: float
    trees: TreeTable
    n_features: int
    config: dict

    def predict(self, X) -> np.ndarray:
        X = check_prediction_data(X, self.n_features)
        out = np.full(X.shape[0], self.init_value, dtype=np.float64)
        for step in self._steps(X):  # tree by tree, in order
            out += step
        return out

    def staged_train_mse(self, X, y) -> list[float]:
        """Training MSE after each boosting stage (stage 0 = mean only)."""
        X = check_prediction_data(X, self.n_features)
        y = np.asarray(y, dtype=np.float64)
        pred = np.full(X.shape[0], self.init_value, dtype=np.float64)
        losses = [float(np.mean((y - pred) ** 2))]
        for step in self._steps(X):
            pred += step
            losses.append(float(np.mean((y - pred) ** 2)))
        return losses

    def _steps(self, X: np.ndarray) -> np.ndarray:
        """``learning_rate`` times each tree's prediction for each row of a
        checked ``X``: trees x rows."""
        return self.learning_rate * self.trees.leaf_values(X)

    def to_dict(self) -> dict:
        return {
            "kind": "gb",
            "init_value": self.init_value,
            "learning_rate": self.learning_rate,
            "n_features": self.n_features,
            "trees": self.trees.to_list(),
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


# A lockstep group holds, per booster and training row, p padded feature
# values, two copies of p + 1 row lists (the sorted one kept for every
# round), room for two nodes in eight node arrays and four target-sized
# arrays: about 24 p + 176 bytes. Boosters grow in equal chunks of at most
# _CHUNK_BYTES.


def _check_hyperparameters(n_estimators, max_depth, learning_rate) -> None:
    check_integer("n_estimators", n_estimators, 0)
    check_integer("max_depth", max_depth, 0)
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ModelError(f"learning_rate must be finite and > 0, got {learning_rate!r}")


def _model(init, learning_rate, trees, n_features, n_estimators, max_depth, seed) -> GBModel:
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
        trees=trees,
        n_features=n_features,
        config=config,
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
    _check_hyperparameters(n_estimators, max_depth, learning_rate)
    return _fit_lockstep([(X, y)], [seed], n_estimators, max_depth, learning_rate)[0]


def fit_gb_many(
    problems,
    seeds,
    n_estimators: int = 35,
    max_depth: int = 4,
    learning_rate: float = 0.1,
) -> list[GBModel]:
    """``fit_gb(X, y, n_estimators, max_depth, learning_rate, seed)`` for
    each ``(X, y)`` of ``problems`` and its seed, in order: each model is
    ``to_dict()``-equal to that one, and a failure raises the error
    ``fit_gb`` raises on the first problem it fails on.

    The boosters grow in lockstep (:func:`_fit_lockstep`), in order of
    row count, in chunks of bounded memory.
    """
    return fit_many(
        problems,
        seeds,
        check=lambda: _check_hyperparameters(n_estimators, max_depth, learning_rate),
        cost=lambda n, p: n * (24 * p + 176),
        budget=_CHUNK_BYTES,
        together=lambda data, seeds: _fit_lockstep(
            data, seeds, n_estimators, max_depth, learning_rate
        ),
    )


def _fit_lockstep(data, seeds, n_estimators, max_depth, learning_rate) -> list[GBModel]:
    """The boosters of each ``(X, y)`` in ``data``, with round ``r``
    growing tree ``r`` of every booster in one ``_Growth``, level by level.

    A narrower ``X`` is padded with zero columns after its own: a constant
    column has no valid cut, so the trees never split on one. A shorter
    one is padded with rows that belong to no node. Each booster keeps its
    own mean, residuals and predictions, each computed as it would be
    alone, element for element.
    """
    n_rows = [X.shape[0] for X, _ in data]
    widths = [X.shape[1] for X, _ in data]
    values = np.zeros((len(data), max(widths), max(n_rows)))
    y = np.zeros((len(data), max(n_rows)))
    for b, (X, target) in enumerate(data):
        values[b, : widths[b], : n_rows[b]] = X.T
        y[b, : n_rows[b]] = target
    init = [float(target.mean()) for _, target in data]
    pred = np.repeat(np.array(init)[:, None], max(n_rows), axis=1)
    growth = _Growth(values, max_depth, replant=True, n_rows=n_rows)
    fitted = np.zeros_like(y)
    rounds = []
    for _ in range(n_estimators):
        rounds.append(growth.grow(y - pred, fitted))
        pred += learning_rate * fitted
    tables = _tables(rounds, n_estimators, max_depth, widths)
    return [
        _model(mean, learning_rate, trees, width, n_estimators, max_depth, seed)
        for mean, trees, width, seed in zip(init, tables, widths, seeds)
    ]
