"""Random forest regression.

Each tree trains on a seeded bootstrap resample (n draws with replacement)
with per-node feature subsampling of ceil(p / 3) features, the regression
convention, and grows as deep as ``max_depth`` allows: a node is a leaf
when it holds one row, has a constant target or has no valid cut. Per-tree
seeds are pre-derived from the master seed, so fitting trees in any order
(or in parallel) yields the identical model.

Every forest grows through :func:`_grow_forests`: its trees grow in
lockstep, depth first, in one ``tree._Growth``, or in chunks of its trees
when they would hold more than ``_CHUNK_BYTES``. ``fit_rf`` fits one
forest; ``fit_rf_many`` fits many on unrelated data, such as the repeats
of an evaluation, and grows the trees of several forests together.
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
    _join_nodes,
    _tables,
    check_integer,
    check_prediction_data,
    check_training_data,
    grow_depth_first,
    read_field,
    read_trees,
)


# Trees grown in lockstep hold, per tree and training row, p feature
# values, p + 1 row lists and room for two nodes in eight node arrays:
# about 16 p + 136 bytes (_state_bytes). A growth holds at most
# _CHUNK_BYTES of them, so a larger forest grows in chunks of its trees.

# fit_rf_many grows forests together, in chunks of at most this many bytes
# of lockstep state (at least one forest). Each forest in a growth adds
# its state and widens the steps: on msc training splits of
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
    check_integer("n_estimators", n_estimators, 1)
    check_integer("max_depth", max_depth, 0)
    if max_features is not None:
        check_integer("max_features", max_features, 1)


def _per_node(p: int, max_features: int | None = None) -> int:
    """The features a node draws: ``max_features``, or ceil(p / 3) if None,
    at most p."""
    return min(max_features if max_features is not None else max(1, math.ceil(p / 3)), p)


def _rows(tree_seeds, n: int, bootstrap: bool) -> np.ndarray:
    """Each tree's n training rows, one row of the result per tree: its
    bootstrap draws, all drawn in one pass, or every row in order."""
    if not bootstrap:
        return np.broadcast_to(np.arange(n), (len(tree_seeds), n))
    return below_many([SplitMix64(derive_seed(seed, 0)) for seed in tree_seeds], n, n)


def _state_bytes(n: int, p: int, n_estimators: int) -> int:
    """The lockstep state of a forest of n rows and p columns."""
    return n_estimators * n * (16 * p + 136)


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
    return _grow_forests([(X, y)], [seed], n_estimators, max_depth, bootstrap, max_features)[0]


def fit_rf_many(problems, seeds, n_estimators: int = 55, max_depth: int = 10) -> list[RFModel]:
    """``fit_rf(X, y, n_estimators, max_depth, seed=seed)`` for each
    ``(X, y)`` of ``problems`` and its seed, in order: each model is
    ``to_dict()``-equal to that one, and a failure raises the error
    ``fit_rf`` raises on the first problem it fails on.

    The forests grow together, in order of row count, in chunks of at
    most ``_FORESTS_BYTES`` of lockstep state (at least one forest), each
    chunk in one :func:`_grow_forests`.
    """
    return fit_many(
        problems,
        seeds,
        check=lambda: _check_hyperparameters(n_estimators, max_depth),
        cost=lambda n, p: _state_bytes(n, p, n_estimators),
        budget=_FORESTS_BYTES,
        together=lambda data, seeds: _grow_forests(data, seeds, n_estimators, max_depth),
    )


def _grow_forests(
    data, seeds, n_estimators, max_depth, bootstrap=True, max_features=None
) -> list[RFModel]:
    """``fit_rf`` of each ``(X, y)`` in ``data``, with the trees grown by
    ``grow_depth_first``: all in one growth, or in chunks of consecutive
    trees of at most ``_CHUNK_BYTES`` of lockstep state (at least one
    tree). Trees grow independently of the others in their growth, so
    chunks change no tree.

    A narrower ``X`` is padded with zero columns after its own, as
    ``boosting._fit_lockstep`` pads: a constant column has no valid cut.
    A shorter one is padded with rows that belong to no node. A forest
    that searches every feature at each node draws all of them instead,
    which searches the same features in the same order; draws grow with
    the width, so a forest drawing fewer than the most is narrower than
    the padded width.
    """
    n_rows = [X.shape[0] for X, _ in data]
    widths = [X.shape[1] for X, _ in data]
    draws = [_per_node(width, max_features) for width in widths]
    tree_seeds = [tuple(derive_seed(seed, t) for t in range(n_estimators)) for seed in seeds]
    rows = [_rows(forest_seeds, n, bootstrap) for forest_seeds, n in zip(tree_seeds, n_rows)]
    node_seeds = [derive_seed(seed, 1) for forest_seeds in tree_seeds for seed in forest_seeds]
    n, n_trees = max(n_rows), len(node_seeds)
    tree_rows, tree_widths, tree_draws = (
        np.repeat(a, n_estimators) for a in (n_rows, widths, draws)
    )
    chunks = max(1, -(-_state_bytes(n, max(widths), n_trees) // _CHUNK_BYTES))
    per_chunk = -(-n_trees // chunks)
    parts = []
    for first in range(0, n_trees, per_chunk):
        last = min(first + per_chunk, n_trees)
        values = np.zeros((last - first, max(widths), n))
        targets = np.zeros((last - first, n))
        for f in range(first // n_estimators, -(-last // n_estimators)):
            # Forest f's trees in this chunk.
            lo, hi = max(first, f * n_estimators), min(last, (f + 1) * n_estimators)
            (X, y), drawn = data[f], rows[f][lo - f * n_estimators : hi - f * n_estimators]
            values[lo - first : hi - first, : widths[f], : n_rows[f]] = X[drawn].transpose(0, 2, 1)
            targets[lo - first : hi - first, : n_rows[f]] = y[drawn]
        parts.append(grow_depth_first(
            values, targets, max_depth, node_seeds[first:last],
            tree_widths[first:last], tree_draws[first:last], tree_rows[first:last],
        ))
    tables = _tables([_join_nodes(parts)], n_estimators, max_depth, widths)
    return [
        _model(trees, forest_seeds, p, n_estimators, max_depth, bootstrap, per_node, seed)
        for trees, forest_seeds, p, per_node, seed in zip(tables, tree_seeds, widths, draws, seeds)
    ]
