"""Regression learners: gradient boosting, random forest, SVR."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .boosting import GBModel, fit_gb
from .forest import RFModel, fit_rf
from .svr import SVRModel, default_gamma, fit_svr
from .tree import (
    EmptyTrainingSet,
    ModelError,
    Node,
    NonFiniteFeature,
    NonFiniteTarget,
    RegressionTree,
    WidthMismatch,
    fit_tree,
)

MODEL_KINDS = ("gb", "rf", "svr")
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Model kind, seed and hyperparameter overrides.

    Unset hyperparameters resolve to the pipeline defaults: GB trains 35
    trees of depth 4 at learning rate 0.1, RF trains 55 bootstrap trees of
    depth 10, SVR runs at C=500 and epsilon=0.75 with an RBF kernel.
    """

    kind: str
    seed: int
    n_estimators: int | None = None
    max_depth: int | None = None
    learning_rate: float | None = None
    min_samples_leaf: int | None = None
    bootstrap: bool | None = None
    max_features: int | None = None
    C: float | None = None
    epsilon: float | None = None
    kernel: str | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")

    def with_seed(self, seed: int) -> "TrainConfig":
        return TrainConfig(**{**self.__dict__, "seed": seed})


def fit_model(X, y, config: TrainConfig):
    if config.kind == "gb":
        return fit_gb(
            X,
            y,
            n_estimators=config.n_estimators if config.n_estimators is not None else 35,
            max_depth=config.max_depth if config.max_depth is not None else 4,
            learning_rate=(
                config.learning_rate if config.learning_rate is not None else 0.1
            ),
            min_samples_leaf=(
                config.min_samples_leaf if config.min_samples_leaf is not None else 1
            ),
            seed=config.seed,
        )
    if config.kind == "rf":
        return fit_rf(
            X,
            y,
            n_estimators=config.n_estimators if config.n_estimators is not None else 55,
            max_depth=config.max_depth if config.max_depth is not None else 10,
            min_samples_leaf=(
                config.min_samples_leaf if config.min_samples_leaf is not None else 1
            ),
            bootstrap=config.bootstrap if config.bootstrap is not None else True,
            max_features=config.max_features,
            seed=config.seed,
        )
    return fit_svr(
        X,
        y,
        C=config.C if config.C is not None else 500.0,
        epsilon=config.epsilon if config.epsilon is not None else 0.75,
        kernel=config.kernel if config.kernel is not None else "rbf",
        gamma=config.gamma,
        seed=config.seed,
    )


def model_to_dict(model) -> dict:
    data = model.to_dict()
    data["format_version"] = FORMAT_VERSION
    return data


def model_from_dict(data: dict):
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelError(f"unsupported model format version {version!r}")
    kind = data.get("kind")
    if kind == "gb":
        return GBModel.from_dict(data)
    if kind == "rf":
        return RFModel.from_dict(data)
    if kind == "svr":
        return SVRModel.from_dict(data)
    raise ModelError(f"unknown model kind {kind!r}")


def save_model(model, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_model(path: str | Path):
    with Path(path).open(encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))


__all__ = [
    "FORMAT_VERSION",
    "MODEL_KINDS",
    "EmptyTrainingSet",
    "GBModel",
    "ModelError",
    "Node",
    "NonFiniteFeature",
    "NonFiniteTarget",
    "RFModel",
    "RegressionTree",
    "SVRModel",
    "TrainConfig",
    "WidthMismatch",
    "default_gamma",
    "fit_gb",
    "fit_model",
    "fit_rf",
    "fit_svr",
    "fit_tree",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "save_model",
]
