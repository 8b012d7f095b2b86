"""Regression learners: gradient boosting, random forest, SVR."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from ..dataio import FORMAT_VERSION, check_format_version, read_json_object
from .boosting import GBModel, fit_gb, fit_gb_many
from .forest import RFModel, fit_rf, fit_rf_many
from .svr import SVRModel, default_gamma, fit_svr, fit_svr_many
from .tree import (
    EmptyTrainingSet,
    ModelError,
    NonFiniteFeature,
    NonFiniteTarget,
    WidthMismatch,
    fit_tree,
)


class ModelKind(NamedTuple):
    fit_many: Callable  # the batch fitter: many problems and their seeds, in order
    model: type
    fields: tuple[str, ...]  # the TrainConfig hyperparameters ``fit_many`` reads
    # The problems an evaluation fits in one ``fit_many`` call and holds
    # the models of until it scores them.
    batch: int


# Lockstep boosters and SVR solves gain up to 200 problems at a time, and
# their models are small. A forest holds about 42 kB of trees on an
# evaluate split of additives24.csv, and each forest in a growth adds
# about 0.4 MB of peak memory while fit_rf_many gains little past three:
# rf repeats fit three at a time.
KINDS = {
    "gb": ModelKind(fit_gb_many, GBModel, ("n_estimators", "max_depth", "learning_rate"), 200),
    "rf": ModelKind(fit_rf_many, RFModel, ("n_estimators", "max_depth"), 3),
    "svr": ModelKind(fit_svr_many, SVRModel, ("C", "epsilon", "kernel", "gamma"), 200),
}
MODEL_KINDS = tuple(KINDS)


@dataclass(frozen=True)
class TrainConfig:
    """Model kind, seed and hyperparameter overrides.

    A hyperparameter left None takes the default in the signature of its
    kind's batch fitter; one the kind does not read is ignored.
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


def _settings(config: TrainConfig) -> dict:
    """Each field ``config.kind`` reads that is set."""
    params = {name: getattr(config, name) for name in KINDS[config.kind].fields}
    return {name: value for name, value in params.items() if value is not None}


def fit_model(X, y, config: TrainConfig):
    """Fit ``config.kind`` with the seed and each field it reads that is
    set: :func:`fit_models` of one problem."""
    return fit_models([(X, y)], config, [config.seed])[0]


def fit_models(problems, config: TrainConfig, seeds) -> list:
    """The model of each ``(X, y)`` of ``problems`` and its seed, in order,
    each the one ``fit_gb``, ``fit_rf`` or ``fit_svr`` fits alone; a
    failure raises the first failing problem's error. The kind's batch
    fitter fits the problems together: boosters and forests whatever
    their row counts, SVR problems of one row count."""
    return KINDS[config.kind].fit_many(problems, seeds, **_settings(config))


def model_to_dict(model) -> dict:
    data = model.to_dict()
    data["format_version"] = FORMAT_VERSION
    return data


def model_from_dict(data: dict):
    check_format_version(data, "model", ModelError)
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
    "NonFiniteFeature",
    "NonFiniteTarget",
    "RFModel",
    "SVRModel",
    "TrainConfig",
    "WidthMismatch",
    "default_gamma",
    "fit_gb",
    "fit_gb_many",
    "fit_model",
    "fit_models",
    "fit_rf",
    "fit_rf_many",
    "fit_svr",
    "fit_svr_many",
    "fit_tree",
    "load_model",
    "model_from_dict",
    "model_to_dict",
]
