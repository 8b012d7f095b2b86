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

``fit_svr_many`` solves many problems of one row count side by side: each
step makes those passes for all of them on problems x n arrays and each
problem's pair update on its own, with bitwise ``fit_svr``'s results.
Batching pays from about 16 problems of 18 rows (``_SOLVE_TOGETHER``); the
200 msc training splits of additives24.csv solve in 0.38 ms a problem
against 0.66 ms one at a time, and hold 8 n (n + p + 8) bytes a problem of
Gram matrix and state, 1.2 MB for the 200.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataio import boolean, finite_float, finite_floats, integer, json_object
from .batch import fit_many
from .tree import ModelError, check_prediction_data, check_training_data, read_field

_AT_BOUND = 1e-12
_SUPPORT_EPS = 1e-10
_TOL = 1e-3
_MAX_UPDATES = 100_000

# fit_svr_many solves problems together in chunks of at most this many
# bytes of Gram matrices and solver state (about 8 n (n + p + 8) bytes a
# problem of n rows and p columns)...
_GRAM_BYTES = 1 << 24

# ...and of at least this many problems; a smaller chunk goes through
# fit_svr. A step of the solvers together costs about 60 array calls
# whatever the problems in it, fit_svr's about 12. On msc training splits
# of additives24.csv (18 rows), time per problem against 0.66 ms one at a
# time: 1.13 ms in chunks of 5, 0.80 of 10, 0.68 of 15, 0.60 of 20, 0.53
# of 30, 0.42 of 120 and 0.38 of 200.
_SOLVE_TOGETHER = 16

# rbf_kernel forms a2 + b2 this many bytes of rows at a time.
_BLOCK_BYTES = 1 << 20


def _block_rows(m: int) -> int:
    """Rows of an n x m ``rbf_kernel`` block: at least one, else as many
    as ``_BLOCK_BYTES`` holds."""
    return max(1, _BLOCK_BYTES // (8 * max(m, 1)))


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """``exp(-gamma * max(a2 + b2 - 2.0 * (A @ B.T), 0.0))``, with ``a2``
    and ``b2`` the rows' squared norms, bitwise.

    The product is the call's only n x m array: the kernel is finished in
    it, with the same operations on the same operands in the same order.
    ``a2 + b2`` and its difference with the doubled product go one block
    of rows at a time, which cannot change a correctly rounded result;
    ``exp``, whose vectorized loop need not round alike on every path,
    takes the whole matrix in one call.
    """
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    K = A @ B.T
    K *= 2.0
    step = _block_rows(K.shape[1])
    for start in range(0, K.shape[0], step):
        rows = K[start : start + step]
        np.subtract(a2[start : start + step] + b2, rows, out=rows)
    np.maximum(K, 0.0, out=K)
    K *= -gamma
    return np.exp(K, out=K)


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
        def kernel(value) -> str:
            if value not in _KERNELS:
                raise ValueError(f"unknown kernel {value!r}; choose from {tuple(_KERNELS)}")
            return value

        n_features = read_field(data, "n_features", integer)

        def vectors(value) -> np.ndarray:
            if not isinstance(value, list):
                raise TypeError(f"expected a list of rows, got {type(value).__name__}")
            rows = [finite_floats(row) for row in value]
            return np.array(rows, dtype=np.float64).reshape(len(rows), n_features)

        support_vectors = read_field(data, "support_vectors", vectors)
        coefficients = read_field(data, "coefficients", finite_floats)
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
            converged=read_field(data, "converged", boolean),
            n_features=n_features,
            config=read_field(data, "config", json_object),
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
    _check_hyperparameters(C, epsilon, kernel, gamma)

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
    return _model(X, r, lo, hi, beta, kernel, gamma_val, C, epsilon, converged, seed)


def _model(X, r, lo, hi, beta, kernel, gamma, C, epsilon, converged, seed) -> SVRModel:
    """The model of a finished solve: ``r``, ``lo`` and ``hi`` are the
    final residual and interval ends, ``beta`` the dual coefficients."""
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
        "gamma": gamma,
        "tol": _TOL,
        "max_updates": _MAX_UPDATES,
        "seed": seed,
    }
    return SVRModel(
        support_vectors=X[support].copy(),
        coefficients=beta[support].copy(),
        bias=bias,
        kernel=kernel,
        gamma=gamma,
        C=C,
        epsilon=epsilon,
        converged=converged,
        n_features=X.shape[1],
        config=config,
    )


def fit_svr_many(
    problems,
    seeds,
    C: float = 500.0,
    epsilon: float = 0.75,
    kernel: str = "rbf",
    gamma: float | None = None,
) -> list[SVRModel]:
    """``fit_svr(X, y, C, epsilon, kernel, gamma, seed)`` for each ``(X, y)``
    of ``problems`` and its seed, in order: each model is ``to_dict()``-equal
    to that one, with bitwise the same coefficients, and a failure raises
    the error ``fit_svr`` raises on the first problem it fails on.

    Problems with equal row counts are solved together in chunks of at
    most ``_GRAM_BYTES`` of Gram matrices (:func:`_solve_together`); a
    chunk of fewer than ``_SOLVE_TOGETHER`` goes through ``fit_svr``.
    """
    return fit_many(
        problems,
        seeds,
        check=lambda: _check_hyperparameters(C, epsilon, kernel, gamma),
        cost=lambda n, p: 8 * n * (n + p + 8),
        budget=_GRAM_BYTES,
        together=lambda data, seeds: (
            _solve_together(data, seeds, C, epsilon, kernel, gamma)
            if len(data) >= _SOLVE_TOGETHER
            else [fit_svr(*problem, C, epsilon, kernel, gamma, seed)
                  for problem, seed in zip(data, seeds)]
        ),
        same_rows=True,
    )


def _solve_together(data, seeds, C, epsilon, kernel, gamma) -> list[SVRModel]:
    """``fit_svr`` of each ``(X, y)`` in ``data``, all with the same row
    count, stepping the solvers of every unfinished problem at once.

    Each problem's gamma and kernel come from their own calls, as in
    ``fit_svr``. A step makes the solver's O(n) passes (the residual, the
    interval ends and their arg-extremes, ``u += d (K_i - K_j)``) on
    problems x n arrays, element for element the values ``fit_svr``
    computes, and each problem's pair update on its own scalars. A problem
    that stops leaves the arrays, its model built from its own 1-D rows.
    """
    n = data[0][0].shape[0]
    eps = float(epsilon)
    X = [np.ascontiguousarray(features) for features, _ in data]
    gammas = [default_gamma(x) if gamma is None else float(gamma) for x in X]
    K = np.empty((len(data), n, n))
    for b, (x, g) in enumerate(zip(X, gammas)):
        K[b] = _KERNELS[kernel](x, x, g)
    # Row p * n + k of ``rows`` is row k of problem p's Gram matrix, and
    # ``diagonal[p * n + k]`` its diagonal entry.
    rows = K.reshape(-1, n)
    diagonal = np.ascontiguousarray(K.diagonal(axis1=1, axis2=2)).ravel()

    # Row b of each state array is problem active[b]'s, as in fit_svr; the
    # arrays are C-ordered, so cell (b, k) is at flat index b * n + k.
    active = np.arange(len(data))
    y = np.array([target for _, target in data])
    beta = np.zeros((len(data), n))
    u = np.zeros((len(data), n))
    start = _offsets(0.0, C, eps)
    lo_off = np.full((len(data), n), start[0])
    hi_off = np.full((len(data), n), start[1])
    models: list = [None] * len(data)
    updates = 0
    while active.size:
        r = y - u
        lo = r + lo_off
        hi = r + hi_off
        if updates == _MAX_UPDATES:
            converged = np.zeros(active.size, dtype=bool)
            stop = ~converged
            go = np.empty(0, dtype=np.intp)
        else:
            base = np.arange(0, active.size * n, n)
            i = lo.argmax(axis=1) + base
            j = hi.argmin(axis=1) + base
            converged = (i == j) | (lo.ravel()[i] - hi.ravel()[j] < _TOL)
            stop = converged.copy()
            go = np.flatnonzero(~converged)
            i, j = i[go], j[go]
            # The rows of the pair's points in ``rows``.
            at = (active[go] - go) * n
            Ri, Rj = i + at, j + at
            a = diagonal[Ri] + diagonal[Rj] - 2.0 * rows.ravel()[Ri * n + Rj % n]
            u_flat, y_flat, beta_flat = u.ravel(), y.ravel(), beta.ravel()
            g = (u_flat[i] - y_flat[i]) - (u_flat[j] - y_flat[j])
            pairs = zip(a.tolist(), g.tolist(), beta_flat[i].tolist(), beta_flat[j].tolist())
            delta = np.array([_optimize_pair(*pair, C, eps) for pair in pairs], dtype=np.float64)
            moving = np.abs(delta) >= 1e-14  # else numerically stuck: not converged
            if not moving.all():
                stop[go[~moving]] = True
                go, i, j, Ri, Rj, delta = (v[moving] for v in (go, i, j, Ri, Rj, delta))
        for b in np.flatnonzero(stop).tolist():
            p = active[b]
            models[p] = _model(
                X[p], r[b], lo[b], hi[b], beta[b], kernel, gammas[p], C, epsilon,
                bool(converged[b]), seeds[p],
            )
        if go.size:
            beta_flat[i] += delta
            beta_flat[j] -= delta
            for ends in (i, j):
                offsets = [_offsets(b, C, eps) for b in beta_flat[ends].tolist()]
                lo_off.ravel()[ends], hi_off.ravel()[ends] = np.array(offsets).T
            step = rows[Ri] - rows[Rj]
            step *= delta[:, None]
            u[go] += step
        updates += 1
        if stop.any():
            keep = ~stop
            active, y, beta, u, lo_off, hi_off = (
                state[keep] for state in (active, y, beta, u, lo_off, hi_off)
            )
    return models


def _check_hyperparameters(C, epsilon, kernel, gamma) -> None:
    if kernel not in _KERNELS:
        raise ModelError(f"unknown kernel {kernel!r}; choose from {sorted(_KERNELS)}")
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
