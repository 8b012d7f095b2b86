"""Dataset splitters, metrics and the repeated evaluation harness.

Three split strategies: scaffold-stratified (one test molecule from every
group of three or fewer, two from larger groups), plain random, and
leave-one-group-out. The harness repeats split/fit/score cycles with
per-repeat seeds derived from a master seed via a splitmix-style hash: a
thread pool never beat the serial loop on these small fits, so
``--threads`` is accepted and has no effect. Repeats are fitted in
batches instead, one ``models.fit_models`` call per batch of the kind's
``batch`` size, which fits the batch's repeats together (gb boosters and
forests grown in lockstep whatever their training-row counts, SVR
problems of one row count solved side by side), with the same models and
scores as one repeat at a time.

A repeat whose Spearman correlation is undefined (a one-molecule test set,
or constant predictions or targets) is degenerate: it is recorded with
Spearman ``None`` and its MAE, the Spearman mean and std are taken over the
other repeats, and the report counts the degenerate ones. The report also
counts the fits that stopped before convergence (SVR at its update cap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import selection
from .features import FeatureMatrix
from .models import KINDS, TrainConfig, fit_model, fit_models
from .rng import SplitMix64, derive_seed
from .selection import ConstantVector, LengthMismatch, SelectionError


class EvaluationError(ValueError):
    pass


class EmptyGroup(EvaluationError):
    pass


class DegenerateSplit(EvaluationError):
    pass


class SingleGroup(EvaluationError):
    pass


class EmptyInput(EvaluationError):
    pass


class TooFewPoints(EvaluationError):
    pass


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[int, ...]
    test: tuple[int, ...]
    method: str
    seed: int


@dataclass(frozen=True)
class SplitterSpec:
    kind: str  # "msc" | "random" | "logo"
    test_fraction: float = 0.1

    def __post_init__(self):
        if self.kind not in ("msc", "random", "logo"):
            raise EvaluationError(f"unknown splitter {self.kind!r}")
        # Every splitter's report records test_fraction; NaN fails this too.
        if not 0.0 < self.test_fraction <= 1.0:
            raise EvaluationError(f"test_fraction must be in (0, 1], got {self.test_fraction!r}")


def msc_split(groups: dict[int, list[int]], seed: int) -> DatasetSplit:
    """Scaffold-stratified split.

    Groups are visited in ascending id; a group of three or fewer molecules
    contributes exactly one test molecule, a larger group exactly two, each
    drawn uniformly without replacement.
    """
    rng = SplitMix64(seed)
    test: list[int] = []
    all_indices: list[int] = []
    for gid in sorted(groups):
        members = sorted(groups[gid])
        if not members:
            raise EmptyGroup(f"group {gid} is empty")
        all_indices.extend(members)
        draw = 1 if len(members) <= 3 else 2
        test.extend(rng.sample(members, draw))
    test_set = set(test)
    train = [i for i in sorted(all_indices) if i not in test_set]
    if not train:
        raise DegenerateSplit("every molecule landed in the test set")
    return DatasetSplit(
        train=tuple(train), test=tuple(sorted(test)), method="msc", seed=seed
    )


def random_split(n: int, test_fraction: float = 0.1, seed: int = 0) -> DatasetSplit:
    """Uniform split with ceil(n * fraction) test rows."""
    if n < 2:
        raise EvaluationError("need at least 2 rows to split")
    if not (0.0 < test_fraction <= 1.0):
        raise EvaluationError("test_fraction must be in (0, 1]")
    k = math.ceil(n * test_fraction)
    rng = SplitMix64(seed)
    test = sorted(rng.sample(list(range(n)), k))
    test_set = set(test)
    train = [i for i in range(n) if i not in test_set]
    if not train:
        raise DegenerateSplit("test fraction leaves no training rows")
    return DatasetSplit(
        train=tuple(train), test=tuple(test), method="random", seed=seed
    )


def logo_splits(groups: dict[int, list[int]]) -> list[DatasetSplit]:
    """One deterministic split per group: that group is the test set, and
    the split's ``seed`` is the group id."""
    if len(groups) < 2:
        raise SingleGroup("leave-one-group-out needs at least 2 groups")
    universe = sorted(i for members in groups.values() for i in members)
    splits = []
    for gid in sorted(groups):
        members = sorted(groups[gid])
        if not members:
            raise EmptyGroup(f"group {gid} is empty")
        member_set = set(members)
        train = tuple(i for i in universe if i not in member_set)
        splits.append(
            DatasetSplit(train=train, test=tuple(members), method="logo", seed=gid)
        )
    return splits


def mae(pred, truth) -> float:
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1:
        raise LengthMismatch(f"shape mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise EmptyInput("mae of empty vectors")
    return float(np.mean(np.abs(p - t)))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # average of 1-based ranks
        i = j + 1
    return ranks


def spearman(pred, truth) -> float:
    """Pearson correlation of average-tied ranks."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1:
        raise LengthMismatch(f"shape mismatch: {p.shape} vs {t.shape}")
    if p.size < 2:
        raise TooFewPoints("spearman needs at least 2 points")
    return selection.pearson(_average_ranks(p), _average_ranks(t))


class RepeatScore(NamedTuple):
    """One repeat's scores; ``spearman`` is None for a degenerate repeat and
    ``converged`` is the fitted model's flag (gb and rf always converge)."""

    mae: float
    spearman: float | None
    converged: bool


@dataclass(frozen=True)
class EvalReport:
    method: str
    repeats: int
    master_seed: int
    # one per repeat
    pairs: tuple[RepeatScore, ...]
    config: dict = field(default_factory=dict)
    # leave-one-group-out: the held-out group of each repeat; else empty
    group_ids: tuple[int, ...] = ()

    @property
    def mae_mean(self) -> float:
        return float(np.mean([score.mae for score in self.pairs]))

    @property
    def mae_std(self) -> float | None:
        return _sample_std_or_none([score.mae for score in self.pairs])

    @property
    def defined_spearman(self) -> list[float]:
        return [score.spearman for score in self.pairs if score.spearman is not None]

    @property
    def degenerate_repeats(self) -> int:
        return len(self.pairs) - len(self.defined_spearman)

    @property
    def unconverged_fits(self) -> int:
        return sum(not score.converged for score in self.pairs)

    @property
    def spearman_mean(self) -> float | None:
        values = self.defined_spearman
        return float(np.mean(values)) if values else None

    @property
    def spearman_std(self) -> float | None:
        return _sample_std_or_none(self.defined_spearman)

    def to_dict(self) -> dict:
        data = {
            "method": self.method,
            "repeats": self.repeats,
            "degenerate_repeats": self.degenerate_repeats,
            "unconverged_fits": self.unconverged_fits,
            "master_seed": self.master_seed,
            "mae": {"mean": self.mae_mean, "std": self.mae_std},
            "spearman": {"mean": self.spearman_mean, "std": self.spearman_std},
            "per_repeat": [
                {"mae": score.mae, "spearman": score.spearman} for score in self.pairs
            ],
            "config": self.config,
        }
        if self.group_ids:
            data["per_group"] = [
                {"group_id": gid, "mae": score.mae, "spearman": score.spearman}
                for gid, score in zip(self.group_ids, self.pairs)
            ]
        return data

    def render_text(self) -> str:
        """A text table with cells ``mean ± std``, a line per nonzero count
        below it, and a leave-one-group-out report's per-group breakdown."""
        header = f"{'Method':<10} {'MAE':>20} {'Spearman':>20}"
        mae_cell = _cell(self.mae_mean, self.mae_std)
        sp_cell = _cell(self.spearman_mean, self.spearman_std)
        lines = [header, "-" * len(header), f"{self.method:<10} {mae_cell:>20} {sp_cell:>20}"]
        counts = [
            (self.degenerate_repeats, "repeats degenerate (Spearman undefined, MAE kept)"),
            (self.unconverged_fits, "fits did not converge"),
        ]
        lines += [f"{self.method}: {n} of {self.repeats} {what}" for n, what in counts if n]
        if self.group_ids:
            lines += ["", "per-group breakdown:"]
            for gid, score in zip(self.group_ids, self.pairs):
                rho = "n/a" if score.spearman is None else f"{score.spearman:.4f}"
                lines.append(f"  group {gid}: MAE {score.mae:.4f}  Spearman {rho}")
        return "\n".join(lines) + "\n"


def _sample_std_or_none(values) -> float | None:
    if len(values) < 2:
        return None
    return selection.sample_std(values)


def _prepare(features: FeatureMatrix, targets: np.ndarray, split: DatasetSplit) -> tuple:
    """A split's (training X, training y, test X, test y), the X parts
    projected by the selection cascade fitted on the training rows alone.

    The cascade projects the whole matrix once; the training and test rows
    are then read from that one row-major array, bitwise the values of
    projecting each part apart.
    """
    pipeline = selection.fit(features.rows(split.train))
    X = selection.apply(pipeline, features)
    train, test = list(split.train), list(split.test)
    return X[train], targets[train], X[test], targets[test]


def _score(model, X_test: np.ndarray, y_test: np.ndarray) -> RepeatScore:
    pred = model.predict(X_test)
    try:
        rho = spearman(pred, y_test)
    except (TooFewPoints, ConstantVector):
        rho = None
    return RepeatScore(mae(pred, y_test), rho, getattr(model, "converged", True))


def run_single(
    features: FeatureMatrix,
    targets: np.ndarray,
    split: DatasetSplit,
    model_config: TrainConfig,
) -> RepeatScore:
    """Fit the selection pipeline and model on the training rows, score the
    test rows; returns (mae, spearman, converged), with spearman None where
    it is undefined: fewer than two test rows, or constant predictions or
    targets, and converged the model's flag."""
    X_train, y_train, X_test, y_test = _prepare(features, targets, split)
    return _score(fit_model(X_train, y_train, model_config), X_test, y_test)


def _run_together(features, targets, splits, model_config, seeds) -> list[RepeatScore]:
    """``run_single`` of every split, with the models fitted in batches of
    ``KINDS[kind].batch``, one ``fit_models`` call each, and scored before
    the next batch is fitted. Every cascade of a batch runs before its
    models are fitted; when one fails, the repeats before it are fitted
    first, so the error raised is still the first failing repeat's."""
    batch = KINDS[model_config.kind].batch
    pairs = []
    for first in range(0, len(splits), batch):
        parts, failure = [], None
        for split in splits[first : first + batch]:
            try:
                parts.append(_prepare(features, targets, split))
            except SelectionError as error:
                failure = error
                break
        if parts:  # an empty batch would still check the hyperparameters
            fitted = fit_models(
                [part[:2] for part in parts], model_config, seeds[first : first + len(parts)]
            )
        if failure is not None:
            raise failure
        pairs += [
            _score(model, X_test, y_test) for model, (_, _, X_test, y_test) in zip(fitted, parts)
        ]
    return pairs


def repeated_eval(
    features: FeatureMatrix,
    targets,
    splitter: SplitterSpec,
    model_config: TrainConfig,
    repeats: int = 200,
    master_seed: int = 0,
    groups: dict[int, list[int]] | None = None,
) -> EvalReport:
    """Repeat split / fit / score cycles and aggregate mean and sample std.

    Repeat ``i`` uses seed ``derive_seed(master_seed, i)``; the split and the
    model fit draw their own sub-seeds from it. Leave-one-group-out ignores
    ``repeats`` and runs each deterministic per-group split exactly once.
    The selection cascade runs with the ``selection.DEFAULT_*`` settings.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if features.values.shape[0] != targets.shape[0]:
        raise EvaluationError("feature rows and targets differ in length")
    if splitter.kind in ("msc", "logo") and groups is None:
        raise EvaluationError(f"splitter {splitter.kind!r} needs scaffold groups")

    if splitter.kind == "logo":
        splits = logo_splits(groups)
    else:
        if repeats < 1:
            raise EvaluationError("repeats must be >= 1")
        splits = []
        for i in range(repeats):
            repeat_seed = derive_seed(master_seed, i)
            split_seed = derive_seed(repeat_seed, 0)
            if splitter.kind == "msc":
                splits.append(msc_split(groups, split_seed))
            else:
                splits.append(
                    random_split(
                        targets.shape[0], splitter.test_fraction, split_seed
                    )
                )

    seeds = [derive_seed(derive_seed(master_seed, i), 1) for i in range(len(splits))]
    pairs = _run_together(features, targets, splits, model_config, seeds)

    return EvalReport(
        method=splitter.kind,
        repeats=len(splits),
        master_seed=master_seed,
        pairs=tuple(pairs),
        group_ids=tuple(split.seed for split in splits) if splitter.kind == "logo" else (),
        config={
            "splitter": splitter.kind,
            "test_fraction": splitter.test_fraction,
            "model": model_config.kind,
            "variance_threshold": selection.DEFAULT_VARIANCE_THRESHOLD,
            "pcc_threshold": selection.DEFAULT_PCC_THRESHOLD,
            "scope": [selection.SCOPE],
            "threads_independent": True,
        },
    )


def _cell(mean: float | None, std: float | None) -> str:
    if mean is None:
        return "n/a"
    return f"{mean:.4f} ± {std:.4f}" if std is not None else f"{mean:.4f}"
