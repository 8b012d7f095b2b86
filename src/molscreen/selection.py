"""Feature-selection cascade: max normalization, variance threshold,
Pearson redundancy pruning.

The cascade is a fit/apply pipeline. Fitting learns per-column maxima and
the surviving column list from training rows only; applying reuses both on
unseen rows without refitting, so normalized values may exceed 1.0 outside
the training set. By default the cascade touches only the descriptor (D)
block; key and latent blocks pass through untouched.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import FeatureMatrix

DEFAULT_VARIANCE_THRESHOLD = 0.2
DEFAULT_PCC_THRESHOLD = 0.9
DEFAULT_SCOPE = frozenset({"D"})


class SelectionError(ValueError):
    pass


class EmptyMatrix(SelectionError):
    pass


class TooFewSamples(SelectionError):
    pass


class ConstantVector(SelectionError):
    pass


class LengthMismatch(SelectionError):
    pass


class UnknownColumn(SelectionError):
    pass


def sample_std(values) -> float:
    """Sample standard deviation, sqrt(sum((x - mean)^2) / (n - 1))."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise SelectionError("sample_std expects a 1-d vector")
    n = arr.size
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    dev = arr - arr.mean()
    return math.sqrt(float(dev @ dev) / (n - 1))


def pearson(x, y) -> float:
    """Pearson correlation coefficient of two equal-length vectors."""
    ax = np.asarray(x, dtype=np.float64)
    ay = np.asarray(y, dtype=np.float64)
    if ax.shape != ay.shape or ax.ndim != 1:
        raise LengthMismatch(f"shape mismatch: {ax.shape} vs {ay.shape}")
    if ax.size < 2:
        raise TooFewSamples("need at least 2 samples")
    dx = ax - ax.mean()
    dy = ay - ay.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise ConstantVector("pearson is undefined for a constant vector")
    rho = float(dx @ dy) / (sx * sy)
    return max(-1.0, min(1.0, rho))


def _band(threshold: float) -> float:
    """Half-width of the near-tie band around ``threshold``.

    A vectorized statistic inside the band is recomputed the exact per-column
    way; ``models.tree._best_split`` uses the same tolerance for near-tied cuts.
    """
    return 1e-9 * (1.0 + abs(threshold))


def _centred_rows(values: np.ndarray) -> np.ndarray:
    """The columns of ``values`` as contiguous rows minus their means.

    Each row's pairwise-summed mean equals ``mean()`` of the column, so each
    row is bitwise the deviation vector of ``sample_std`` and ``pearson``.
    """
    rows = np.ascontiguousarray(values.T)
    return rows - rows.mean(axis=1, keepdims=True)


def max_normalize(
    matrix: FeatureMatrix, scope=DEFAULT_SCOPE
) -> tuple[FeatureMatrix, dict[str, float]]:
    """Scale in-scope columns by their maximum absolute value.

    All-zero in-scope columns cannot be normalized and are removed here
    (recorded as constant by the caller). The absolute-value convention
    keeps negative-valued columns inside [-1, 1]; on the non-negative count
    descriptors it coincides with plain X / X_max.
    """
    if matrix.values.shape[0] == 0:
        raise EmptyMatrix("cannot normalize an empty matrix")
    scope = frozenset(scope)
    peaks = np.max(np.abs(matrix.values), axis=0)
    in_scope = np.array([b in scope for b in matrix.blocks], dtype=bool)
    keep = ~in_scope | (peaks != 0.0)  # constant zero in-scope columns: dropped
    scaled = in_scope & keep
    # Out-of-scope columns divide by 1.0, which leaves every value unchanged.
    values = matrix.values[:, keep] / np.where(scaled, peaks, 1.0)[keep]
    column_max = {
        n: float(peak) for n, peak, s in zip(matrix.names, peaks, scaled) if s
    }
    out = FeatureMatrix(
        ids=matrix.ids,
        blocks=tuple(b for b, k in zip(matrix.blocks, keep) if k),
        names=tuple(n for n, k in zip(matrix.names, keep) if k),
        values=values,
    )
    return out, column_max


def variance_filter(matrix: FeatureMatrix, threshold: float) -> list[str]:
    """Columns whose sample standard deviation strictly exceeds ``threshold``.

    All standard deviations come from one vectorized pass; a column within
    the near-tie band of the threshold is decided by :func:`sample_std`, so
    the kept columns are those of a per-column ``sample_std`` loop.
    """
    values = matrix.values
    n = values.shape[0]
    if not matrix.names:
        return []
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    dev = _centred_rows(values)
    std = np.sqrt(np.einsum("ij,ij->i", dev, dev) / (n - 1))
    band = _band(threshold)
    kept = std > threshold + band
    for pos in np.flatnonzero(np.abs(std - threshold) <= band).tolist():
        kept[pos] = sample_std(values[:, pos]) > threshold
    return [name for name, k in zip(matrix.names, kept) if k]


def pcc_prune(matrix: FeatureMatrix, threshold: float) -> list[str]:
    """Drop redundant columns by correlation grouping.

    Columns with pairwise |Pearson| strictly above ``threshold`` are joined
    into connected components (union-find); each component keeps only its
    smallest-index column.

    Every |r| comes from one Gram product of the centred, unit-norm columns.
    A pair within the near-tie band of the threshold, or with a column whose
    squared centred norm lies outside [1e-150, 1e150] (where squares may
    underflow or overflow; a constant column among them), is decided by the
    exact :func:`pearson`, which also raises its errors as it always has.
    """
    values = matrix.values
    n = len(matrix.names)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    if n >= 2:
        if values.shape[0] < 2:
            raise TooFewSamples("need at least 2 samples")
        dev = _centred_rows(values)
        sq = np.einsum("ij,ij->i", dev, dev)
        fragile = ~((sq >= 1e-150) & (sq <= 1e150))
        unit = dev / np.sqrt(np.where(fragile, 1.0, sq))[:, None]
        # einsum, not matmul: a matmul can be the only level-3 BLAS call of a
        # screening run (a tree model makes none), and touching BLAS's work
        # buffer adds about 0.3 MB to the peak resident memory.
        r = np.abs(np.einsum("ik,jk->ij", unit, unit))
        band = _band(threshold)
        exact = (np.abs(r - threshold) <= band) | fragile[:, None] | fragile
        edge = (r > threshold + band) & ~exact
        for i, j in zip(*(ix.tolist() for ix in np.nonzero(np.triu(exact, 1)))):
            edge[i, j] = abs(pearson(values[:, i], values[:, j])) > threshold
        for i, j in zip(*(ix.tolist() for ix in np.nonzero(np.triu(edge, 1)))):
            union(i, j)

    representatives = sorted({find(i) for i in range(n)})
    return [matrix.names[i] for i in representatives]


@dataclass(frozen=True)
class SelectionPipeline:
    column_max: dict[str, float]
    kept_columns: tuple[str, ...]
    variance_threshold: float
    pcc_threshold: float
    scope: frozenset[str]

    def to_dict(self) -> dict:
        return {
            "column_max": dict(sorted(self.column_max.items())),
            "kept_columns": list(self.kept_columns),
            "thresholds": {
                "variance": self.variance_threshold,
                "pcc": self.pcc_threshold,
            },
            "scope": sorted(self.scope),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SelectionPipeline":
        return cls(
            column_max={k: float(v) for k, v in data["column_max"].items()},
            kept_columns=tuple(data["kept_columns"]),
            variance_threshold=float(data["thresholds"]["variance"]),
            pcc_threshold=float(data["thresholds"]["pcc"]),
            scope=frozenset(data["scope"]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "SelectionPipeline":
        with Path(path).open(encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def fit(
    matrix: FeatureMatrix,
    variance_threshold: float = DEFAULT_VARIANCE_THRESHOLD,
    pcc_threshold: float = DEFAULT_PCC_THRESHOLD,
    scope=DEFAULT_SCOPE,
) -> SelectionPipeline:
    """Fit the cascade on training rows.

    In-scope columns run max normalization, the variance threshold and the
    correlation pruning in that order; out-of-scope columns survive
    untouched. Survivors keep their original column order. Both thresholds
    must be finite numbers (:class:`SelectionError` otherwise).
    """
    for label, value in (
        ("variance_threshold", variance_threshold),
        ("pcc_threshold", pcc_threshold),
    ):
        if not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise SelectionError(f"{label} must be a finite number, got {value!r}")
    if matrix.values.shape[0] == 0:
        raise EmptyMatrix("cannot fit on an empty matrix")
    scope = frozenset(scope)
    normalized, column_max = max_normalize(matrix, scope)

    in_scope = [
        name
        for block, name in zip(normalized.blocks, normalized.names)
        if block in scope
    ]
    survivors = set(normalized.names) - set(in_scope)
    if in_scope:
        sub = normalized.select_columns(in_scope)
        after_variance = variance_filter(sub, variance_threshold)
        if after_variance:
            pruned = pcc_prune(
                normalized.select_columns(after_variance), pcc_threshold
            )
            survivors |= set(pruned)

    kept = tuple(n for n in matrix.names if n in survivors)
    column_max = {k: v for k, v in column_max.items() if k in survivors}
    return SelectionPipeline(
        column_max=column_max,
        kept_columns=kept,
        variance_threshold=variance_threshold,
        pcc_threshold=pcc_threshold,
        scope=scope,
    )


def apply(pipeline: SelectionPipeline, matrix: FeatureMatrix) -> FeatureMatrix:
    """Project a matrix through a fitted pipeline (pure; never refits)."""
    present = set(matrix.names)
    missing = [n for n in pipeline.kept_columns if n not in present]
    if missing:
        raise UnknownColumn(f"matrix lacks fitted columns {missing}")
    out = matrix.select_columns(list(pipeline.kept_columns))
    # Unscaled columns divide by 1.0, which leaves every value unchanged. The
    # result is row-major: the models' BLAS calls round differently on a
    # column-major matrix, so the layout is part of the output.
    peaks = np.array([pipeline.column_max.get(name, 1.0) for name in out.names])
    values = np.divide(out.values, peaks, order="C")
    return FeatureMatrix(ids=out.ids, blocks=out.blocks, names=out.names, values=values)
