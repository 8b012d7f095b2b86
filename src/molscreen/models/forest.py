"""Random forest regression.

Each tree trains on a seeded bootstrap resample (n draws with replacement)
with per-node feature subsampling of ceil(p / 3) features, the regression
convention, and grows as deep as ``max_depth`` allows: a node is a leaf
when it holds one row, has a constant target or has no valid cut. Per-tree
seeds are pre-derived from the master seed, so fitting trees in any order
(or in parallel) yields the identical model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..rng import SplitMix64, derive_seed
from .tree import (
    ModelError,
    RegressionTree,
    check_prediction_data,
    check_training_data,
    fit_tree,
    grow_trees,
    read_field,
    read_trees,
)


# Trees grown in lockstep hold, per tree and training row, p feature
# values, p + 1 row lists and room for two nodes in eight node arrays:
# about 16 p + 136 bytes. A forest grows in equal chunks of trees of at
# most _CHUNK_BYTES (at least one tree per chunk).
_CHUNK_BYTES = 1 << 26

# Lockstep growth shares each step's per-call overhead among the chunk's
# trees, but costs more per row than fit_tree (padded cells, a scatter
# partition). So a chunk's trees grow in lockstep only while they have at
# most this many training rows per tree in the chunk, and one by one
# through fit_tree above it. Measured on bench-like 24-column problems,
# lockstep time over fit_tree time: 0.90 at 300 rows x 11 trees, 1.03 at
# 600 x 11, 1.06 at 1,000 x 11, 0.88 at 2,000 x 22, 0.68 at 2,000 x 55.
_LOCKSTEP_ROWS_PER_TREE = 50


@dataclass(frozen=True)
class RFModel:
    trees: tuple[RegressionTree, ...]
    tree_seeds: tuple[int, ...]
    n_features: int
    config: dict

    def predict(self, X) -> np.ndarray:
        X = check_prediction_data(X, self.n_features)
        total = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.trees:
            total += tree._predict(X)
        return total / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "kind": "rf",
            "n_features": self.n_features,
            "tree_seeds": list(self.tree_seeds),
            "trees": [t.to_dict() for t in self.trees],
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RFModel":
        n_features = read_field(data, "n_features", int)
        trees = read_trees(data, n_features)
        if not trees:
            raise ModelError("field 'trees': a forest needs at least one tree")
        return cls(
            trees=trees,
            tree_seeds=read_field(data, "tree_seeds", lambda seeds: tuple(map(int, seeds))),
            n_features=n_features,
            config=read_field(data, "config", dict),
        )


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
    if n_estimators < 1:
        raise ModelError(f"n_estimators must be >= 1, got {n_estimators!r}")
    if max_depth < 0:
        raise ModelError("max_depth must be >= 0")
    if max_features is not None and max_features < 1:
        raise ModelError(f"max_features must be >= 1, got {max_features!r}")

    n, p = X.shape
    per_node = max_features if max_features is not None else max(1, math.ceil(p / 3))
    per_node = min(per_node, p)
    features_per_node = per_node if per_node < p else None

    tree_seeds = tuple(derive_seed(seed, t) for t in range(n_estimators))
    chunks = max(1, -(-n_estimators * n * (16 * p + 136) // _CHUNK_BYTES))
    per_chunk = max(1, -(-n_estimators // chunks))
    trees = []
    for first in range(0, n_estimators, per_chunk):
        chunk_seeds = tree_seeds[first : first + per_chunk]
        if bootstrap:
            rows = np.array(
                [SplitMix64(derive_seed(tree_seed, 0)).below_many(n, n) for tree_seed in chunk_seeds]
            )
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
        roots = grow_trees(
            np.ascontiguousarray(X[rows].transpose(0, 2, 1)),
            y[rows],
            max_depth,
            features_per_node,
            seeds,
        )
        trees += [RegressionTree(root=root, max_depth=max_depth, n_features=p) for root in roots]

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
