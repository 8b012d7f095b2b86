"""Random forest regression.

Each tree trains on a seeded bootstrap resample (n draws with replacement)
with per-node feature subsampling of ceil(p / 3) features, the regression
convention, and grows as deep as ``max_depth`` allows: a node is a leaf
when it holds one row, has a constant target or has no valid cut. Per-tree
seeds are pre-derived from the master seed, so fitting trees in any order
(or in parallel) yields the identical model.

``fit_rf`` fits one forest; ``fit_rf_many`` fits many on unrelated data,
such as the repeats of an evaluation, and grows the trees of several
forests with one training-row count in one lockstep growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataio import integer, json_object
from ..rng import SplitMix64, below_many, derive_seed
from .batch import fit_many
from .tree import (
    _CHUNK_BYTES,
    ModelError,
    TreeTable,
    _tables,
    check_prediction_data,
    check_training_data,
    fit_tree,
    grow_depth_first,
    join_tables,
    read_field,
    read_trees,
)


# Trees grown in lockstep hold, per tree and training row, p feature
# values, p + 1 row lists and room for two nodes in eight node arrays:
# about 16 p + 136 bytes. fit_rf grows a forest in equal chunks of trees
# of at most _CHUNK_BYTES (at least one tree per chunk).
#
# Lockstep growth shares each step's per-call overhead among the chunk's
# trees, but costs more per row than fit_tree (padded cells, a scatter
# partition). So a chunk's trees grow in lockstep only while they have at
# most this many training rows per tree in the chunk, and one by one
# through fit_tree above it. Measured on bench-like 24-column problems,
# lockstep time over fit_tree time: 0.90 at 300 rows x 11 trees, 1.03 at
# 600 x 11, 1.06 at 1,000 x 11, 0.88 at 2,000 x 22, 0.68 at 2,000 x 55.
_LOCKSTEP_ROWS_PER_TREE = 50

# fit_rf_many grows the forests of one training-row count together, in
# chunks of at most this many bytes of lockstep state (at least two
# forests; a chunk of one goes through fit_rf). Each forest in a growth
# adds its state and widens the steps: on msc training splits of
# additives24.csv (18 rows, 55 trees), time per forest was 11.1 ms grown
# alone, 8.8 ms two to a growth, 8.0 at three, 7.6 at four and 7.4 at
# twelve (fastest of five), and a growth's tracemalloc peak 1.0 MB alone,
# 1.4 MB at two, 1.8 at three, 2.3 at four and 6.0 at twelve. evaluate
# fits its rf repeats three at a time (models.KINDS): four at a time
# raised a 200-repeat rf evaluate's peak RSS by 1.0 MB.
_FORESTS_BYTES = 1 << 21


@dataclass(frozen=True)
class RFModel:
    trees: TreeTable
    tree_seeds: tuple[int, ...]
    n_features: int
    config: dict

    def predict(self, X) -> np.ndarray:
        X = check_prediction_data(X, self.n_features)
        total = np.zeros(X.shape[0], dtype=np.float64)
        for values in self.trees.leaf_values(X):  # tree by tree, in order
            total += values
        return total / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "kind": "rf",
            "n_features": self.n_features,
            "tree_seeds": list(self.tree_seeds),
            "trees": self.trees.to_list(),
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RFModel":
        n_features = read_field(data, "n_features", integer)
        trees = read_trees(data, n_features)
        if not trees:
            raise ModelError("field 'trees': a forest needs at least one tree")
        return cls(
            trees=trees,
            tree_seeds=read_field(data, "tree_seeds", lambda seeds: _tree_seeds(seeds, len(trees))),
            n_features=n_features,
            config=read_field(data, "config", json_object),
        )


def _tree_seeds(values, n_trees: int) -> tuple[int, ...]:
    """One 64-bit unsigned seed per tree, as ``fit_rf`` derives them."""
    seeds = tuple(map(integer, values))
    for seed in seeds:
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed {seed} is outside [0, 2**64)")
    if len(seeds) != n_trees:
        raise ValueError(f"{len(seeds)} seeds for {n_trees} trees")
    return seeds


def _check_hyperparameters(n_estimators, max_depth, max_features=None) -> None:
    if n_estimators < 1:
        raise ModelError(f"n_estimators must be >= 1, got {n_estimators!r}")
    if max_depth < 0:
        raise ModelError("max_depth must be >= 0")
    if max_features is not None and max_features < 1:
        raise ModelError(f"max_features must be >= 1, got {max_features!r}")


def _per_node(p: int, max_features: int | None = None) -> int:
    """The features a node draws: ``max_features``, or ceil(p / 3) if None,
    at most p."""
    return min(max_features if max_features is not None else max(1, math.ceil(p / 3)), p)


def _bootstrap(tree_seeds, n: int) -> np.ndarray:
    """Each tree's n bootstrap rows, one row of the result per tree, all
    drawn in one pass."""
    return below_many([SplitMix64(derive_seed(seed, 0)) for seed in tree_seeds], n, n)


def _model(trees, tree_seeds, p, n_estimators, max_depth, bootstrap, per_node, seed) -> RFModel:
    config = {
        "kind": "rf",
        "n_estimators": n_estimators,
        "max_depth": max_depth,
        "min_samples_leaf": 1,
        "bootstrap": bootstrap,
        "max_features": per_node,
        "seed": seed,
    }
    return RFModel(trees=trees, tree_seeds=tree_seeds, n_features=p, config=config)


def fit_rf(
    X,
    y,
    n_estimators: int = 55,
    max_depth: int = 10,
    bootstrap: bool = True,
    max_features: int | None = None,
    seed: int = 0,
) -> RFModel:
    """``max_features`` of None means the ceil(p / 3) regression default.
    ``bootstrap=False, max_features=p`` grows ``fit_tree``'s tree on every
    row, which is how the forest is checked against a single tree."""
    X, y = check_training_data(X, y)
    _check_hyperparameters(n_estimators, max_depth, max_features)

    n, p = X.shape
    per_node = _per_node(p, max_features)
    features_per_node = per_node if per_node < p else None

    tree_seeds = tuple(derive_seed(seed, t) for t in range(n_estimators))
    chunks = max(1, -(-n_estimators * n * (16 * p + 136) // _CHUNK_BYTES))
    per_chunk = max(1, -(-n_estimators // chunks))
    trees = []
    for first in range(0, n_estimators, per_chunk):
        chunk_seeds = tree_seeds[first : first + per_chunk]
        if bootstrap:
            rows = _bootstrap(chunk_seeds, n)
        else:
            rows = np.broadcast_to(np.arange(n), (len(chunk_seeds), n))
        seeds = [derive_seed(tree_seed, 1) for tree_seed in chunk_seeds]
        if n > _LOCKSTEP_ROWS_PER_TREE * len(chunk_seeds):
            trees += [
                fit_tree(X[r], y[r], max_depth, features_per_node, seed)
                for r, seed in zip(rows, seeds)
            ]
            continue
        # Tree t trains on X[rows[t]]: values[t] holds its columns as rows.
        nodes = grow_depth_first(
            np.ascontiguousarray(X[rows].transpose(0, 2, 1)),
            y[rows],
            max_depth,
            seeds,
            p,
            features_per_node,
        )
        trees += _tables([nodes], len(seeds), max_depth, [p])
    trees = join_tables(trees, max_depth, p)
    return _model(trees, tree_seeds, p, n_estimators, max_depth, bootstrap, per_node, seed)


def fit_rf_many(problems, seeds, n_estimators: int = 55, max_depth: int = 10) -> list[RFModel]:
    """``fit_rf(X, y, n_estimators, max_depth, seed=seed)`` for each
    ``(X, y)`` of ``problems`` and its seed, in order: each model is
    ``to_dict()``-equal to that one, and a failure raises the error
    ``fit_rf`` raises on the first problem it fails on.

    A forest that ``fit_rf`` would grow in lockstep in one piece joins the
    others of its training-row count; together they grow in chunks of at
    most ``_FORESTS_BYTES`` of lockstep state, each chunk in one
    :func:`_grow_forests`. Any other forest, and a chunk of one, goes
    through ``fit_rf``.
    """
    def per_forest(n: int, p: int) -> int:
        return n_estimators * n * (16 * p + 136)

    return fit_many(
        problems,
        seeds,
        fit=lambda X, y, seed: fit_rf(X, y, n_estimators, max_depth, seed=seed),
        check=lambda: _check_hyperparameters(n_estimators, max_depth),
        joins=lambda n, p: (
            n <= _LOCKSTEP_ROWS_PER_TREE * n_estimators and per_forest(n, p) <= _CHUNK_BYTES
        ),
        cost=per_forest,
        budget=_FORESTS_BYTES,
        together=lambda data, seeds: _grow_forests(data, seeds, n_estimators, max_depth),
        smallest=2,
    )


def _grow_forests(data, seeds, n_estimators, max_depth) -> list[RFModel]:
    """``fit_rf`` of each ``(X, y)`` in ``data``, all with the same row
    count, with the bootstrap rows of every tree of every forest drawn in
    one pass and all the trees grown in one ``grow_depth_first``.

    A narrower ``X`` is padded with zero columns after its own, as
    ``boosting._fit_lockstep`` pads: a constant column has no valid cut.
    A forest that searches every feature at each node draws all of them
    instead, which searches the same features in the same order; draws
    grow with the width, so a forest drawing fewer than the most is
    narrower than the padded width.
    """
    n = data[0][0].shape[0]
    widths = [X.shape[1] for X, _ in data]
    values = np.zeros((len(data) * n_estimators, max(widths), n))
    targets = np.empty((len(data) * n_estimators, n))
    tree_seeds = [tuple(derive_seed(seed, t) for t in range(n_estimators)) for seed in seeds]
    every_tree = [tree_seed for forest_seeds in tree_seeds for tree_seed in forest_seeds]
    rows = _bootstrap(every_tree, n)
    for f, (X, y) in enumerate(data):
        block = slice(f * n_estimators, (f + 1) * n_estimators)
        values[block, : widths[f]] = X[rows[block]].transpose(0, 2, 1)
        targets[block] = y[rows[block]]
    node_seeds = [derive_seed(tree_seed, 1) for tree_seed in every_tree]
    draws = [_per_node(width) for width in widths]
    nodes = grow_depth_first(
        values, targets, max_depth, node_seeds,
        np.repeat(widths, n_estimators), np.repeat(draws, n_estimators),
    )
    tables = _tables([nodes], n_estimators, max_depth, widths)
    return [
        _model(trees, forest_seeds, p, n_estimators, max_depth, True, per_node, seed)
        for trees, forest_seeds, p, per_node, seed in zip(tables, tree_seeds, widths, draws, seeds)
    ]
