"""Regression learners: gradient boosting, random forest, SVR."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from ..dataio import FORMAT_VERSION, read_json_object
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


class ModelKind(NamedTuple):
    fit: Callable
    model: type
    fields: tuple[str, ...]  # the TrainConfig hyperparameters ``fit`` reads


KINDS = {
    "gb": ModelKind(fit_gb, GBModel, ("n_estimators", "max_depth", "learning_rate")),
    "rf": ModelKind(fit_rf, RFModel, ("n_estimators", "max_depth")),
    "svr": ModelKind(fit_svr, SVRModel, ("C", "epsilon", "kernel", "gamma")),
}
MODEL_KINDS = tuple(KINDS)


@dataclass(frozen=True)
class TrainConfig:
    """Model kind, seed and hyperparameter overrides.

    A hyperparameter left None takes the default in the signature of its
    kind's fitter; one the kind does not read is ignored.
    """

    kind: str
    seed: int
    n_estimators: int | None = None
    max_depth: int | None = None
    learning_rate: float | None = None
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
    """Fit ``config.kind`` with the seed and each field it reads that is set."""
    kind = KINDS[config.kind]
    params = {name: getattr(config, name) for name in kind.fields}
    params = {name: value for name, value in params.items() if value is not None}
    return kind.fit(X, y, seed=config.seed, **params)


def model_to_dict(model) -> dict:
    data = model.to_dict()
    data["format_version"] = FORMAT_VERSION
    return data


def model_from_dict(data: dict):
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelError(f"unsupported model format version {version!r}")
    kind = data.get("kind")
    # A tuple test, not a dict lookup: an unhashable kind is just unknown.
    if kind not in MODEL_KINDS:
        raise ModelError(f"unknown model kind {kind!r}")
    return KINDS[kind].model.from_dict(data)


def load_model(path: str | Path):
    """The model in a JSON file; a malformed one raises ModelError naming it."""
    return read_json_object(path, model_from_dict, ModelError)


__all__ = [
    "FORMAT_VERSION",
    "KINDS",
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
]
