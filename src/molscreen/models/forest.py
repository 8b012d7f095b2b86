"""Random forest regression.

Each tree trains on a seeded bootstrap resample (n draws with replacement)
with per-node feature subsampling of ceil(p / 3) features, the regression
convention. Per-tree seeds are pre-derived from the master seed, so fitting
trees in any order (or in parallel) yields the identical model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..rng import SplitMix64, derive_seed
from .tree import RegressionTree, check_prediction_data, check_training_data, fit_tree


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
            total += tree.predict(X)
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
        return cls(
            trees=tuple(RegressionTree.from_dict(t) for t in data["trees"]),
            tree_seeds=tuple(int(s) for s in data["tree_seeds"]),
            n_features=int(data["n_features"]),
            config=dict(data["config"]),
        )


def fit_rf(
    X,
    y,
    n_estimators: int = 55,
    max_depth: int = 10,
    min_samples_leaf: int = 1,
    bootstrap: bool = True,
    max_features: int | None = None,
    seed: int = 0,
) -> RFModel:
    """``max_features`` of None means the ceil(p / 3) regression default."""
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
            fit_tree(
                X[idx],
                y[idx],
                max_depth=max_depth,
                min_samples_leaf=min_samples_leaf,
                features_per_node=per_node if per_node < p else None,
                seed=derive_seed(tree_seed, 1),
            )
        )

    config = {
        "kind": "rf",
        "n_estimators": n_estimators,
        "max_depth": max_depth,
        "min_samples_leaf": min_samples_leaf,
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
