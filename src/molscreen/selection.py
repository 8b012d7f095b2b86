"""Feature-selection cascade: max normalization, variance threshold,
Pearson redundancy pruning.

The cascade is a fit/apply pipeline. Fitting learns per-column maxima and
the surviving column list from training rows only; applying reuses both on
unseen rows without refitting, so normalized values may exceed 1.0 outside
the training set. The cascade touches only the descriptor (D) block; key
and latent blocks pass through untouched.

Both steps read the matrix's column names and blocks only on entry and on
exit. In between, the stages take plain float arrays and return kept
column positions, and :func:`apply` returns the models' row-major input
array, not a :class:`FeatureMatrix`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .dataio import FORMAT_VERSION, finite_float, json_field, read_json_object
from .features import FeatureMatrix

DEFAULT_VARIANCE_THRESHOLD = 0.2
DEFAULT_PCC_THRESHOLD = 0.9
SCOPE = "D"  # the one block the cascade touches


class SelectionError(ValueError):
    pass


_field = partial(json_field, error=SelectionError)  # a pipeline file's field


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


def max_normalize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scale each column by its maximum absolute value.

    Returns the positions of the columns kept, their peaks and their scaled
    values. All-zero columns cannot be normalized and are dropped here
    (recorded as constant by the caller). The absolute-value convention
    keeps negative-valued columns inside [-1, 1]; on the non-negative count
    descriptors it coincides with plain X / X_max.
    """
    if values.shape[0] == 0:
        raise EmptyMatrix("cannot normalize an empty matrix")
    peaks = np.max(np.abs(values), axis=0)
    kept = np.flatnonzero(peaks)
    return kept, peaks[kept], values[:, kept] / peaks[kept]


def variance_filter(values: np.ndarray, threshold: float) -> np.ndarray:
    """Positions of the columns whose sample standard deviation strictly
    exceeds ``threshold``.

    All standard deviations come from one vectorized pass; a column within
    the near-tie band of the threshold is decided by :func:`sample_std`, so
    the kept columns are those of a per-column ``sample_std`` loop.
    """
    n, p = values.shape
    if p == 0:
        return np.arange(0)
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    dev = _centred_rows(values)
    std = np.sqrt(np.einsum("ij,ij->i", dev, dev) / (n - 1))
    band = _band(threshold)
    kept = std > threshold + band
    for pos in np.flatnonzero(np.abs(std - threshold) <= band).tolist():
        kept[pos] = sample_std(values[:, pos]) > threshold
    return np.flatnonzero(kept)


def pcc_prune(values: np.ndarray, threshold: float) -> np.ndarray:
    """Positions of the columns kept after correlation grouping.

    Columns with pairwise |Pearson| strictly above ``threshold`` are joined
    into connected components (union-find); each component keeps only its
    smallest-index column.

    Every |r| comes from one Gram product of the centred, unit-norm columns.
    A pair within the near-tie band of the threshold, or with a column whose
    squared centred norm lies outside [1e-150, 1e150] (where squares may
    underflow or overflow; a constant column among them), is decided by the
    exact :func:`pearson`, which also raises its errors as it always has.
    """
    n = values.shape[1]
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

    return np.array(sorted({find(i) for i in range(n)}), dtype=np.intp)


@dataclass(frozen=True)
class SelectionPipeline:
    column_max: dict[str, float]
    kept_columns: tuple[str, ...]
    variance_threshold: float
    pcc_threshold: float

    def to_dict(self) -> dict:
        return {
            "column_max": dict(sorted(self.column_max.items())),
            "kept_columns": list(self.kept_columns),
            "thresholds": {
                "variance": self.variance_threshold,
                "pcc": self.pcc_threshold,
            },
            "scope": [SCOPE],
            "format_version": FORMAT_VERSION,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SelectionPipeline":
        """Read what :meth:`to_dict` writes; another format version, or a
        missing or mistyped field, raises :class:`SelectionError` naming
        it."""
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise SelectionError(f"unsupported pipeline format version {version!r}")
        thresholds = _field(data, "thresholds", dict)
        return cls(
            column_max=_field(
                data, "column_max", lambda v: {k: finite_float(p) for k, p in v.items()}
            ),
            kept_columns=_field(data, "kept_columns", _names),
            variance_threshold=_field(thresholds, "variance", finite_float),
            pcc_threshold=_field(thresholds, "pcc", finite_float),
        )

    @classmethod
    def load(cls, path: str | Path) -> "SelectionPipeline":
        return read_json_object(path, cls.from_dict, SelectionError)


def _names(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"expected a list of strings, got {type(value).__name__}")
    return tuple(value)


def fit(
    matrix: FeatureMatrix,
    variance_threshold: float = DEFAULT_VARIANCE_THRESHOLD,
    pcc_threshold: float = DEFAULT_PCC_THRESHOLD,
) -> SelectionPipeline:
    """Fit the cascade on training rows.

    Block-D columns run max normalization, the variance threshold and the
    correlation pruning in that order; other blocks survive untouched.
    Survivors keep their original column order. Both thresholds must be
    finite numbers (:class:`SelectionError` otherwise).
    """
    for label, value in (
        ("variance_threshold", variance_threshold),
        ("pcc_threshold", pcc_threshold),
    ):
        if not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise SelectionError(f"{label} must be a finite number, got {value!r}")
    if matrix.values.shape[0] == 0:
        raise EmptyMatrix("cannot fit on an empty matrix")
    keep = np.array([block != SCOPE for block in matrix.blocks], dtype=bool)
    in_scope = np.flatnonzero(~keep)
    nonzero, peaks, scaled = max_normalize(matrix.values[:, in_scope])
    varied = variance_filter(scaled, variance_threshold)
    chosen = varied[pcc_prune(scaled[:, varied], pcc_threshold)]
    columns = in_scope[nonzero[chosen]]
    keep[columns] = True
    names = matrix.names
    return SelectionPipeline(
        column_max={
            names[c]: peak for c, peak in zip(columns.tolist(), peaks[chosen].tolist())
        },
        kept_columns=tuple(names[c] for c in np.flatnonzero(keep).tolist()),
        variance_threshold=variance_threshold,
        pcc_threshold=pcc_threshold,
    )


def apply(pipeline: SelectionPipeline, matrix: FeatureMatrix) -> np.ndarray:
    """The model input of ``matrix``: its fitted columns, scaled by the
    fitted peaks (pure; never refits)."""
    position = {name: pos for pos, name in enumerate(matrix.names)}
    missing = [n for n in pipeline.kept_columns if n not in position]
    if missing:
        raise UnknownColumn(f"matrix lacks fitted columns {missing}")
    columns = [position[name] for name in pipeline.kept_columns]
    # Unscaled columns divide by 1.0, which leaves every value unchanged. The
    # result is row-major: the models' BLAS calls round differently on a
    # column-major matrix, so the layout is part of the output.
    peaks = np.array([pipeline.column_max.get(n, 1.0) for n in pipeline.kept_columns])
    return np.divide(matrix.values[:, columns], peaks, order="C")
