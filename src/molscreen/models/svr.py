"""Epsilon-insensitive support vector regression.

The dual problem

    min over b in [-C, C]^n, sum(b) = 0 of
    0.5 b'Kb - y'b + eps * sum|b_i|

is solved by sequential pair optimization: at each step the pair of points
with the largest Karush-Kuhn-Tucker violation (measured through the
feasible-bias intervals each point induces) is optimized exactly along the
sum-preserving direction, handling the kinks of the l1 term piecewise.
Training stops when the largest violation drops below ``_TOL`` (1e-3) or
after ``_MAX_UPDATES`` (100,000) pair updates; in the latter case the model
is returned with ``converged`` set to False. Both are fixed, and the
model's ``config`` records them.

A point's interval is its residual y_k - u_k (u = K b) plus two offsets
that depend on b_k alone, so a pair update costs a handful of contiguous
O(n) passes: the residual, both interval ends and their arg-extremes, and
u += d (K_i - K_j), read from rows of the symmetric Gram matrix. Only the
two updated points are reclassified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataio import finite_float
from .tree import ModelError, check_prediction_data, check_training_data, read_field

_AT_BOUND = 1e-12
_SUPPORT_EPS = 1e-10
_TOL = 1e-3
_MAX_UPDATES = 100_000


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    sq = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma * sq)


def linear_kernel(A: np.ndarray, B: np.ndarray, gamma: float = 0.0) -> np.ndarray:
    return A @ B.T


_KERNELS = {"rbf": rbf_kernel, "linear": linear_kernel}


@dataclass(frozen=True)
class SVRModel:
    support_vectors: np.ndarray
    coefficients: np.ndarray  # dual coefficients of the support vectors
    bias: float
    kernel: str
    gamma: float
    C: float
    epsilon: float
    converged: bool
    n_features: int
    config: dict

    def predict(self, X) -> np.ndarray:
        X = check_prediction_data(X, self.n_features)
        if self.support_vectors.shape[0] == 0:
            return np.full(X.shape[0], self.bias, dtype=np.float64)
        K = _KERNELS[self.kernel](X, self.support_vectors, self.gamma)
        return K @ self.coefficients + self.bias

    def to_dict(self) -> dict:
        return {
            "kind": "svr",
            "support_vectors": self.support_vectors.tolist(),
            "coefficients": self.coefficients.tolist(),
            "bias": self.bias,
            "kernel": self.kernel,
            "gamma": self.gamma,
            "C": self.C,
            "epsilon": self.epsilon,
            "converged": self.converged,
            "n_features": self.n_features,
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SVRModel":
        def floats(value) -> np.ndarray:
            values = np.array(list(value), dtype=np.float64)
            if not np.isfinite(values).all():
                raise ValueError("holds a non-finite number")
            return values

        def kernel(value) -> str:
            if value not in _KERNELS:
                raise ValueError(f"unknown kernel {value!r}; choose from {tuple(_KERNELS)}")
            return value

        n_features = read_field(data, "n_features", int)
        support_vectors = read_field(
            data, "support_vectors", lambda v: floats(v).reshape(-1, n_features)
        )
        coefficients = read_field(data, "coefficients", floats)
        if coefficients.shape[0] != support_vectors.shape[0]:
            raise ModelError(
                f"field 'coefficients': {coefficients.shape[0]} values for "
                f"{support_vectors.shape[0]} support vectors"
            )
        return cls(
            support_vectors=support_vectors,
            coefficients=coefficients,
            bias=read_field(data, "bias", finite_float),
            kernel=read_field(data, "kernel", kernel),
            gamma=read_field(data, "gamma", finite_float),
            C=read_field(data, "C", finite_float),
            epsilon=read_field(data, "epsilon", finite_float),
            converged=read_field(data, "converged", bool),
            n_features=n_features,
            config=read_field(data, "config", dict),
        )


def default_gamma(X: np.ndarray) -> float:
    """1 / (n_features * mean feature variance), the scale convention."""
    variances = X.var(axis=0)
    mean_var = float(variances.mean()) if variances.size else 0.0
    if mean_var <= 0.0:
        return 1.0
    return 1.0 / (X.shape[1] * mean_var)


def fit_svr(
    X,
    y,
    C: float = 500.0,
    epsilon: float = 0.75,
    kernel: str = "rbf",
    gamma: float | None = None,
    seed: int = 0,
) -> SVRModel:
    X, y = check_training_data(X, y)
    # Row-major, as in predict: the kernel's matrix products round
    # differently on other layouts of the same values.
    X = np.ascontiguousarray(X)
    if kernel not in _KERNELS:
        raise ModelError(f"unknown kernel {kernel!r}; choose from {sorted(_KERNELS)}")
    _check_hyperparameters(C, epsilon, gamma)

    n = X.shape[0]
    gamma_val = default_gamma(X) if gamma is None else float(gamma)
    # Exactly symmetric (A @ A.T takes the symmetric product), so row k of
    # K is column k and the updates below read contiguous rows.
    K = _KERNELS[kernel](X, X, gamma_val)

    beta = np.zeros(n, dtype=np.float64)
    u = np.zeros(n, dtype=np.float64)  # K @ beta, maintained incrementally
    # Point k's feasible-bias interval is [r_k + lo_off_k, r_k + hi_off_k]
    # with r = y - u; the offsets depend on beta_k alone.
    eps = float(epsilon)
    start = _offsets(0.0, C, eps)
    lo_off = np.full(n, start[0], dtype=np.float64)
    hi_off = np.full(n, start[1], dtype=np.float64)
    r, lo, hi, step = (np.empty(n) for _ in range(4))

    def intervals() -> None:
        np.subtract(y, u, out=r)
        np.add(r, lo_off, out=lo)
        np.add(r, hi_off, out=hi)

    converged = False
    updates = 0
    while updates < _MAX_UPDATES:
        intervals()
        i = int(lo.argmax())
        j = int(hi.argmin())
        if i == j or lo[i] - hi[j] < _TOL:
            converged = True
            break
        delta = _optimize_pair(
            K.item(i, i) + K.item(j, j) - 2.0 * K.item(i, j),
            (u.item(i) - y.item(i)) - (u.item(j) - y.item(j)),
            beta.item(i),
            beta.item(j),
            C,
            eps,
        )
        if abs(delta) < 1e-14:
            break  # numerically stuck; report as non-converged
        beta[i] += delta
        beta[j] -= delta
        lo_off[i], hi_off[i] = _offsets(beta.item(i), C, eps)
        lo_off[j], hi_off[j] = _offsets(beta.item(j), C, eps)
        np.subtract(K[i], K[j], out=step)
        step *= delta
        u += step
        updates += 1

    intervals()
    max_lo = float(np.max(lo))
    min_hi = float(np.min(hi))
    if np.isfinite(max_lo) and np.isfinite(min_hi):
        bias = (max_lo + min_hi) / 2.0
    else:
        bias = float(np.mean(r))

    support = np.abs(beta) > _SUPPORT_EPS
    config = {
        "kind": "svr",
        "C": C,
        "epsilon": epsilon,
        "kernel": kernel,
        "gamma": gamma_val,
        "tol": _TOL,
        "max_updates": _MAX_UPDATES,
        "seed": seed,
    }
    return SVRModel(
        support_vectors=X[support].copy(),
        coefficients=beta[support].copy(),
        bias=bias,
        kernel=kernel,
        gamma=gamma_val,
        C=C,
        epsilon=epsilon,
        converged=converged,
        n_features=X.shape[1],
        config=config,
    )


def _check_hyperparameters(C, epsilon, gamma) -> None:
    if not (math.isfinite(C) and C > 0):
        raise ModelError(f"C must be finite and > 0, got {C!r}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ModelError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    if gamma is not None and not (math.isfinite(gamma) and gamma > 0):
        raise ModelError(f"gamma must be finite and > 0, got {gamma!r}")


def _offsets(b: float, C: float, epsilon: float) -> tuple[float, float]:
    """Offsets from the residual r = y_k - u_k to the ends of the
    feasible-bias interval of a point with dual coefficient ``b``.

    At the lower bound the interval is [r + eps, inf), at the upper bound
    (-inf, r - eps], inside the box the point r -/+ eps by the sign of b,
    at zero [r - eps, r + eps]. The bound tests come first: for C below
    about 1e-12 a coefficient can be at zero and at both bounds at once.
    """
    if b <= -C + _AT_BOUND:
        return epsilon, math.inf
    if b >= C - _AT_BOUND:
        return -math.inf, -epsilon
    if abs(b) <= _AT_BOUND:
        return -epsilon, epsilon
    if b > 0:
        return -epsilon, -epsilon
    return epsilon, epsilon


def _optimize_pair(a: float, g: float, bi: float, bj: float, C: float, epsilon: float) -> float:
    """Exact minimizer of the dual restricted to beta_i += d, beta_j -= d,
    where a = K_ii + K_jj - 2 K_ij and g = (u_i - y_i) - (u_j - y_j).

    The objective is a parabola plus kinks at d = -bi and d = bj. The
    candidates, in ascending order, are the breakpoints (box ends and inner
    kinks), each once, and the stationary point of each piece between them.
    """
    lo_box = max(-C - bi, bj - C)
    hi_box = min(C - bi, bj + C)
    if hi_box <= lo_box:
        return 0.0

    points = {lo_box, hi_box}
    for kink in (-bi, bj):
        if lo_box < kink < hi_box:
            points.add(kink)
    breaks = sorted(points)

    candidates = [breaks[0]]
    for left, right in zip(breaks[:-1], breaks[1:]):
        candidates.append(right)
        if a > 0:
            mid = 0.5 * (left + right)
            s1 = 1.0 if bi + mid > 0 else -1.0
            s2 = 1.0 if bj - mid > 0 else -1.0
            stationary = -(g + epsilon * (s1 - s2)) / a
            if left < stationary < right:
                candidates.append(stationary)

    abs_bi, abs_bj = abs(bi), abs(bj)
    best_d, best_val = 0.0, 0.0
    for d in candidates:
        val = 0.5 * a * d * d + g * d + epsilon * (abs(bi + d) - abs_bi + abs(bj - d) - abs_bj)
        if val < best_val - 1e-15:
            best_val, best_d = val, d
    return best_d
