"""The SVR solver against the masked-interval solver it replaced, kernel
symmetry, and hyperparameter validation."""

import math

import numpy as np
import pytest

from molscreen.models import ModelError, fit_svr, svr


def oracle_fit(X, y, C=500.0, epsilon=0.75, kernel="rbf", gamma=None, tol=1e-3,
               max_updates=100_000):
    """The solver loop as it stood before per-point bound offsets: both
    interval arrays rebuilt by masked assignment at every step, and ``u``
    updated from kernel columns. Returns (support_vectors, coefficients,
    bias, converged)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    gamma_val = svr.default_gamma(X) if gamma is None else float(gamma)
    K = svr._KERNELS[kernel](X, X, gamma_val)

    beta = np.zeros(n, dtype=np.float64)
    u = np.zeros(n, dtype=np.float64)
    converged = False
    updates = 0

    def intervals():
        v = y - u
        lo = np.empty(n)
        hi = np.empty(n)
        at_zero = np.abs(beta) <= svr._AT_BOUND
        at_upper = beta >= C - svr._AT_BOUND
        at_lower = beta <= -C + svr._AT_BOUND
        pos = (~at_zero) & (~at_upper) & (beta > 0)
        neg = (~at_zero) & (~at_lower) & (beta < 0)
        lo[at_zero], hi[at_zero] = v[at_zero] - epsilon, v[at_zero] + epsilon
        lo[pos] = hi[pos] = v[pos] - epsilon
        lo[neg] = hi[neg] = v[neg] + epsilon
        lo[at_upper], hi[at_upper] = -np.inf, v[at_upper] - epsilon
        lo[at_lower], hi[at_lower] = v[at_lower] + epsilon, np.inf
        return lo, hi

    while updates < max_updates:
        lo, hi = intervals()
        i = int(np.argmax(lo))
        j = int(np.argmin(hi))
        if i == j or lo[i] - hi[j] < tol:
            converged = True
            break
        delta = oracle_optimize_pair(K, y, u, beta, i, j, C, epsilon)
        if abs(delta) < 1e-14:
            break
        beta[i] += delta
        beta[j] -= delta
        u += delta * (K[:, i] - K[:, j])
        updates += 1

    lo, hi = intervals()
    max_lo = float(np.max(lo))
    min_hi = float(np.min(hi))
    if np.isfinite(max_lo) and np.isfinite(min_hi):
        bias = (max_lo + min_hi) / 2.0
    else:
        bias = float(np.mean(y - u))
    support = np.abs(beta) > svr._SUPPORT_EPS
    return X[support], beta[support], bias, converged


def oracle_optimize_pair(K, y, u, beta, i, j, C, epsilon):
    a = K[i, i] + K[j, j] - 2.0 * K[i, j]
    g = (u[i] - y[i]) - (u[j] - y[j])
    bi, bj = beta[i], beta[j]

    lo_box = max(-C - bi, bj - C)
    hi_box = min(C - bi, bj + C)
    if hi_box <= lo_box:
        return 0.0

    def value(d):
        return (
            0.5 * a * d * d
            + g * d
            + epsilon * (abs(bi + d) - abs(bi) + abs(bj - d) - abs(bj))
        )

    points = {lo_box, hi_box}
    for kink in (-bi, bj):
        if lo_box < kink < hi_box:
            points.add(kink)
    breaks = sorted(points)

    best_d, best_val = 0.0, 0.0
    for left, right in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (left + right)
        s1 = 1.0 if bi + mid > 0 else -1.0
        s2 = 1.0 if bj - mid > 0 else -1.0
        candidates = [left, right]
        if a > 0:
            stationary = -(g + epsilon * (s1 - s2)) / a
            if left < stationary < right:
                candidates.append(stationary)
        for d in candidates:
            val = value(d)
            if val < best_val - 1e-15:
                best_val, best_d = val, d
    return best_d


def fit_svr_capped(monkeypatch, X, y, max_updates=svr._MAX_UPDATES, **kwargs):
    """``fit_svr`` with its pair-update cap set to ``max_updates``."""
    monkeypatch.setattr(svr, "_MAX_UPDATES", max_updates)
    return fit_svr(X, y, **kwargs)


def bench_like_regression(n, p=24, seed=0):
    """Half the columns small integers (many ties), half uniform reals; a
    target mixing linear, threshold and interaction terms plus noise."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, p))
    half = p // 2
    X[:, :half] = np.floor(X[:, :half] * 8.0)
    y = (
        X @ np.linspace(-1.0, 1.0, p) * 0.5
        + 2.0 * (X[:, 0] > 3)
        + np.sin(3.0 * X[:, half])
        + X[:, 1] * X[:, half + 1]
        + 0.5 * (rng.uniform(size=n) - 0.5)
    )
    return X, y


def _cases():
    X, y = bench_like_regression(300)
    rng = np.random.default_rng(31)
    Xs = rng.normal(size=(60, 4))
    ys = np.sin(Xs[:, 0]) * 3.0 + rng.normal(scale=0.3, size=60)
    Xl = rng.uniform(-1.0, 1.0, size=(60, 3))
    yl = Xl @ np.array([2.0, -1.0, 0.5]) + 0.25 + rng.normal(scale=0.05, size=60)
    dup = np.repeat(rng.normal(size=(12, 3)), 4, axis=0)
    return {
        "bench_like_300": (X, y, {}),
        "c_1_many_at_bound": (Xs, ys, {"C": 1.0}),
        "linear_kernel": (Xl, yl, {"kernel": "linear", "C": 10.0, "epsilon": 0.05}),
        "epsilon_0": (Xs, ys, {"epsilon": 0.0}),
        "update_cap_hit": (X[:120], y[:120], {"max_updates": 25}),
        # below about 1e-12 a coefficient is at zero and at both bounds at once
        "c_tiny_bounds_overlap_zero": (Xs, ys, {"C": 1e-13}),
        "duplicate_rows": (dup, rng.normal(size=48), {"epsilon": 0.1}),
        "constant_y": (Xs, np.full(60, 2.5), {"epsilon": 0.0}),
        "single_row": (Xs[:1], ys[:1], {}),
    }


CASES = _cases()


class TestAgainstOracle:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bitwise_equal(self, name, monkeypatch):
        X, y, kwargs = CASES[name]
        model = fit_svr_capped(monkeypatch, X, y, **kwargs)
        vectors, coefficients, bias, converged = oracle_fit(X, y, **kwargs)
        assert np.array_equal(model.support_vectors, vectors)
        assert np.array_equal(model.coefficients, coefficients)
        assert model.bias == bias
        assert model.converged == converged

    def test_cases_cover_the_interval_classes(self, monkeypatch):
        X, y, kwargs = CASES["c_1_many_at_bound"]
        at_bound = np.abs(fit_svr(X, y, **kwargs).coefficients) >= 1.0 - svr._AT_BOUND
        assert at_bound.sum() >= 5
        assert fit_svr(*CASES["bench_like_300"][:2]).converged
        X, y, kwargs = CASES["update_cap_hit"]
        assert not fit_svr_capped(monkeypatch, X, y, **kwargs).converged


class TestKernelSymmetry:
    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    @pytest.mark.parametrize("shape", [(1, 3), (7, 1), (24, 20), (301, 24), (2000, 24)])
    def test_gram_matrix_equals_its_transpose(self, kernel, shape):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        X = rng.normal(size=shape)
        X[:, : shape[1] // 2] = np.floor(X[:, : shape[1] // 2] * 4.0)
        K = svr._KERNELS[kernel](X, X, svr.default_gamma(X))
        assert np.array_equal(K, K.T)


class TestHyperparameterValidation:
    def problem(self):
        rng = np.random.default_rng(40)
        return rng.normal(size=(12, 3)), rng.normal(size=12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"C": 0.0},
            {"C": -1.0},
            {"C": math.nan},
            {"C": math.inf},
            {"epsilon": -0.1},
            {"epsilon": math.nan},
            {"epsilon": math.inf},
            {"gamma": -2.0},
            {"gamma": 0.0},
            {"gamma": math.nan},
            {"gamma": math.inf},
            {"kernel": "linear", "gamma": -2.0},
        ],
        ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ModelError):
            fit_svr(*self.problem(), **kwargs)

    def test_accepted_edges(self, monkeypatch):
        X, y = self.problem()
        assert fit_svr(X, y, epsilon=0.0).converged
        monkeypatch.setattr(svr, "_TOL", 1e-12)
        fit_svr(X, y, C=1e-13, gamma=1e-9)
        assert not fit_svr_capped(monkeypatch, X, y, max_updates=0).converged

    def test_config_records_the_fixed_stopping_rule(self):
        model = fit_svr(*self.problem())
        assert (model.config["tol"], model.config["max_updates"]) == (1e-3, 100_000)


class TestMemoryLayout:
    """The same values in any memory layout give the same model and the
    same predictions."""

    @pytest.mark.parametrize("n, p", [(12, 5), (40, 24), (90, 60), (200, 90)])
    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_layouts_agree(self, n, p, kernel, monkeypatch):
        monkeypatch.setattr(svr, "_MAX_UPDATES", 3000)
        rng = np.random.default_rng(n * 1000 + p)
        X = rng.normal(size=(n, p))
        y = X[:, 0] * 3.0 - X[:, 1] + rng.normal(scale=0.5, size=n)
        X_new = rng.normal(size=(17, p))
        layouts = [X, np.asfortranarray(X), np.ascontiguousarray(X.T).T]
        fits = [fit_svr(M, y, C=10.0, epsilon=0.1, kernel=kernel) for M in layouts]
        assert not layouts[1].flags.c_contiguous and not layouts[2].flags.c_contiguous
        reference = fits[0].to_dict()
        for model in fits[1:]:
            assert model.to_dict() == reference
        expected = fits[0].predict(X_new)
        for model in fits:
            for M in (X_new, np.asfortranarray(X_new), np.ascontiguousarray(X_new.T).T):
                assert model.predict(M).tobytes() == expected.tobytes()
