"""Gradient boosting for squared-error regression.

Stagewise fitting on residuals with a shrinkage factor: the prediction is
the training-target mean plus ``learning_rate`` times the sum of tree
outputs. No stochastic subsampling, so fits are exact functions of the
data and hyperparameters.

``fit_gb`` grows one booster node by node. ``fit_gb_many`` fits many
boosters on unrelated data, such as the repeats of an evaluation, and
grows the boosters that share a training-row count in lockstep: round
``r`` grows tree ``r`` of every one of them, one tree level per step.
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
    check_prediction_data,
    check_training_data,
    fit_tree,
    join_tables,
    read_field,
    read_trees,
    sort_columns,
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


# Boosters with one training-row count grow in lockstep when there are at
# least this many of them, else one by one through fit_gb: a lockstep step
# costs several times a fit_tree node, which pays off only when a step
# holds enough nodes. Measured on msc training splits of additives24.csv
# (18 rows, 12-17 columns, 35 depth-4 trees), median lockstep time over
# fit_gb time: 2.1 for one booster, 1.26 at 2, 0.91 at 3, 0.76 at 4, 0.51
# at 16 and 0.35 at 200.
_LOCKSTEP_BOOSTERS = 3

# Lockstep growth also costs more per row than fit_gb (padded cells, a
# scatter partition), so only boosters of at most this many training rows
# grow in lockstep. Lockstep time over fit_gb time for 16 boosters of 16
# columns: 0.39-0.61 at 18-60 rows, 0.68-0.89 at 200, 1.05 at 320, and
# 1.75 at 2,000 rows of 24 integer columns.
_LOCKSTEP_ROWS = 200

# A lockstep group holds, per booster and training row, p padded feature
# values, two copies of p + 1 row lists (the sorted one kept for every
# round), room for two nodes in eight node arrays and four target-sized
# arrays: about 24 p + 176 bytes. A group grows in equal chunks of at most
# _CHUNK_BYTES; a chunk of fewer than _LOCKSTEP_BOOSTERS goes through fit_gb.


def _check_hyperparameters(n_estimators, max_depth, learning_rate) -> None:
    if n_estimators < 0:
        raise ModelError(f"n_estimators must be >= 0, got {n_estimators!r}")
    if max_depth < 0:
        raise ModelError("max_depth must be >= 0")
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
    trees = join_tables(trees, max_depth, X.shape[1])
    return _model(init, learning_rate, trees, X.shape[1], n_estimators, max_depth, seed)


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

    Problems with equal row counts, at most ``_LOCKSTEP_ROWS``, form a
    group, grown in chunks of bounded memory; a chunk of at least
    ``_LOCKSTEP_BOOSTERS`` grows in lockstep (:func:`_fit_lockstep`), a
    smaller one through ``fit_gb``.
    """
    return fit_many(
        problems,
        seeds,
        fit=lambda X, y, seed: fit_gb(X, y, n_estimators, max_depth, learning_rate, seed),
        check=lambda: _check_hyperparameters(n_estimators, max_depth, learning_rate),
        joins=lambda n, p: n <= _LOCKSTEP_ROWS,
        cost=lambda n, p: n * (24 * p + 176),
        budget=_CHUNK_BYTES,
        together=lambda data, seeds: _fit_lockstep(
            data, seeds, n_estimators, max_depth, learning_rate
        ),
        smallest=_LOCKSTEP_BOOSTERS,
    )


def _fit_lockstep(data, seeds, n_estimators, max_depth, learning_rate) -> list[GBModel]:
    """``fit_gb`` of each ``(X, y)`` in ``data``, all with the same row
    count, with round ``r`` growing tree ``r`` of every booster in one
    ``_Growth``.

    A narrower ``X`` is padded with zero columns after its own: a constant
    column has no valid cut, so the trees never split on one. Each booster
    keeps its own mean, residuals and predictions, each computed as
    ``fit_gb`` computes them, element for element.
    """
    n = data[0][0].shape[0]
    widths = [X.shape[1] for X, _ in data]
    values = np.zeros((len(data), max(widths), n))
    for b, (X, _) in enumerate(data):
        values[b, : widths[b]] = X.T
    y = np.array([target for _, target in data])
    init = [float(target.mean()) for _, target in data]
    pred = np.repeat(np.array(init)[:, None], n, axis=1)
    growth = _Growth(values, max_depth, replant=True)
    fitted = np.empty_like(y)
    rounds = []
    for _ in range(n_estimators):
        rounds.append(growth.grow(y - pred, fitted))
        pred += learning_rate * fitted
    tables = _tables(rounds, n_estimators, max_depth, widths)
    return [
        _model(mean, learning_rate, trees, width, n_estimators, max_depth, seed)
        for mean, trees, width, seed in zip(init, tables, widths, seeds)
    ]
