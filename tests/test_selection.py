import json
import math

import numpy as np
import pytest

from molscreen import dataio, selection
from molscreen.features import FeatureMatrix
from molscreen.selection import (
    ConstantVector,
    EmptyMatrix,
    LengthMismatch,
    SelectionPipeline,
    TooFewSamples,
    UnknownColumn,
    max_normalize,
    pcc_prune,
    pearson,
    sample_std,
    variance_filter,
)


def dmatrix(columns: dict[str, list[float]], block: str = "D") -> FeatureMatrix:
    names = tuple(columns)
    values = np.array([columns[n] for n in names], dtype=np.float64).T
    return FeatureMatrix(
        ids=tuple(f"r{i}" for i in range(values.shape[0])),
        blocks=tuple(block for _ in names),
        names=names,
        values=values,
    )


class TestSampleStd:
    def test_hand_value(self):
        assert abs(sample_std([0, 1, 0, 1]) - 0.5774) <= 1e-4

    def test_constant(self):
        assert sample_std([5, 5, 5]) == 0.0

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            sample_std([1])


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-9)

    def test_affine_invariance_up_to_sign(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=30)
        for a in (2.5, -0.3, 7.0):
            assert pearson(x, a * x + 1.7) == pytest.approx(math.copysign(1.0, a))

    def test_errors(self):
        with pytest.raises(ConstantVector):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [1, 2, 3])


class TestMaxNormalize:
    def test_positive_column(self):
        kept, peaks, scaled = max_normalize(np.array([[2.0], [4.0], [8.0]]))
        assert scaled[:, 0].tolist() == [0.25, 0.5, 1.0]
        assert kept.tolist() == [0] and peaks.tolist() == [8.0]

    def test_zero_column_removed(self):
        kept, peaks, scaled = max_normalize(np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]))
        assert kept.tolist() == [1] and peaks.tolist() == [3.0]
        assert scaled.shape == (3, 1)

    def test_negative_column_uses_absolute_max(self):
        _, _, scaled = max_normalize(np.array([[-1.0], [2.0]]))
        assert scaled[:, 0].tolist() == [-0.5, 1.0]

    def test_out_of_scope_untouched(self):
        m = FeatureMatrix(
            ids=("r0", "r1"),
            blocks=("K", "D"),
            names=("k", "d"),
            values=np.array([[3.0, 2.0], [1.0, 4.0]]),
        )
        pipeline = selection.fit(m, 0.0, 0.999)
        assert pipeline.kept_columns == ("k", "d")
        assert pipeline.column_max == {"d": 4.0}
        assert selection.apply(pipeline, m).tolist() == [[3.0, 0.5], [1.0, 1.0]]

    def test_empty(self):
        with pytest.raises(EmptyMatrix):
            max_normalize(np.zeros((0, 1)))


class TestVarianceFilter:
    def test_kept_and_dropped(self):
        matrix = dmatrix({"keep": [0, 1, 0, 1], "drop": [0.9, 1.0, 0.95, 1.0]})
        assert variance_filter(matrix.values, 0.2).tolist() == [0]
        # hand check: std of the dropped column is ~0.0479
        assert abs(sample_std([0.9, 1.0, 0.95, 1.0]) - 0.0479) <= 1e-4

    def test_zero_threshold_keeps_all_nonconstant(self):
        matrix = dmatrix({"a": [0, 1, 2], "b": [5, 5.1, 4.9]})
        assert variance_filter(matrix.values, 0.0).tolist() == [0, 1]


class TestPccPrune:
    def test_duplicate_column_dropped(self):
        a = [1.0, 2.0, 3.0, 4.0]
        c = [4.0, 1.0, 3.0, 2.0]
        kept = pcc_prune(dmatrix({"A": a, "B": [2 * v for v in a], "C": c}).values, 0.9)
        assert kept.tolist() == [0, 2]

    def test_threshold_one_keeps_all(self):
        a = [1.0, 2.0, 3.0, 4.0]
        kept = pcc_prune(dmatrix({"A": a, "B": [2 * v for v in a]}).values, 1.0)
        assert kept.tolist() == [0, 1]  # strict inequality

    def test_transitive_chain_forms_one_component(self):
        # Exact correlations (0.95, 0.95, 0.30) are not jointly realizable
        # (the matrix would not be positive semidefinite); the nearest
        # feasible chain has |rho(A,C)| >= ~0.805. Build A~B and B~C above
        # the threshold with rho(A,C) below it and verify the transitive
        # grouping against brute force.
        n = 400
        rng = np.random.default_rng(12)
        e1 = rng.normal(size=n)
        e2 = rng.normal(size=n)
        e1 = (e1 - e1.mean()) / np.linalg.norm(e1 - e1.mean())
        e2 = e2 - e2.mean() - ((e2 - e2.mean()) @ e1) * e1
        e2 /= np.linalg.norm(e2)
        theta = math.acos(0.95)
        a = e1
        b = math.cos(theta) * e1 + math.sin(theta) * e2
        c = math.cos(2 * theta) * e1 + math.sin(2 * theta) * e2
        assert abs(pearson(a, b)) > 0.9
        assert abs(pearson(b, c)) > 0.9
        assert abs(pearson(a, c)) < 0.9
        matrix = dmatrix({"A": a.tolist(), "B": b.tolist(), "C": c.tolist()})
        assert pcc_prune(matrix.values, 0.9).tolist() == [0]
        # brute-force component check
        assert _bruteforce_components(matrix.values, 0.9) == [{0, 1, 2}]


def _bruteforce_components(values: np.ndarray, threshold: float) -> list[set[int]]:
    n = values.shape[1]
    edges = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(np.corrcoef(values[:, i], values[:, j])[0, 1]) > threshold
    }
    components = []
    remaining = set(range(n))
    while remaining:
        seed = min(remaining)
        comp = {seed}
        grew = True
        while grew:
            grew = False
            for i, j in edges:
                if (i in comp) != (j in comp):
                    comp |= {i, j}
                    grew = True
        components.append(comp)
        remaining -= comp
    return sorted(components, key=min)


def _bruteforce_cascade(values, names, vt, pt):
    """Independent straight-from-the-formulas cascade implementation."""
    normalized = {}
    for pos, name in enumerate(names):
        column = values[:, pos]
        peak = np.max(np.abs(column))
        if peak == 0:
            continue
        normalized[name] = column / peak
    survivors = []
    for name, column in normalized.items():
        dev = column - column.mean()
        std = math.sqrt(float(dev @ dev) / (len(column) - 1))
        if std > vt:
            survivors.append(name)
    sub = np.stack([normalized[n] for n in survivors], axis=1)
    components = _bruteforce_components(sub, pt)
    kept = sorted(min(c) for c in components)
    return [survivors[i] for i in kept]


class TestFitApply:
    def build_ten_column_matrix(self):
        rng = np.random.default_rng(7)
        base = rng.normal(loc=0.0, scale=2.0, size=(40, 5))
        columns = {
            "c0": base[:, 0],
            "c1": base[:, 1],
            "c2": np.zeros(40),            # constant zero
            "c3": np.full(40, 3.0),        # constant non-zero
            "c4": base[:, 2],
            "c5": 2.0 * base[:, 0],        # duplicate of c0
            "c6": base[:, 3],
            "c7": np.full(40, -1.0),       # constant non-zero
            "c8": -base[:, 1],             # duplicate (negated) of c1
            "c9": base[:, 4],
        }
        return dmatrix({k: v.tolist() for k, v in columns.items()})

    def test_ten_to_five_against_bruteforce(self):
        matrix = self.build_ten_column_matrix()
        pipeline = selection.fit(matrix, 0.2, 0.9)
        expected = _bruteforce_cascade(matrix.values, matrix.names, 0.2, 0.9)
        assert list(pipeline.kept_columns) == expected
        assert len(pipeline.kept_columns) == 5
        assert set(pipeline.kept_columns) == {"c0", "c1", "c4", "c6", "c9"}

    def test_apply_reproduces_fit_transform(self):
        matrix = self.build_ten_column_matrix()
        pipeline = selection.fit(matrix, 0.2, 0.9)
        out = selection.apply(pipeline, matrix)
        nonzero, _, scaled = max_normalize(matrix.values)
        names = [matrix.names[c] for c in nonzero]
        expected = scaled[:, [names.index(n) for n in pipeline.kept_columns]]
        assert np.array_equal(out, expected)
        # applying twice through the pipeline is the same projection
        again = selection.apply(pipeline, matrix)
        assert np.array_equal(out, again)

    def test_apply_on_unseen_rows_may_exceed_one(self):
        train = dmatrix({"a": [1.0, 2.0], "b": [1.0, 3.0]})
        pipeline = selection.fit(train, 0.2, 0.9)
        test = dmatrix({"a": [4.0, 1.0], "b": [6.0, 0.0]})
        out = selection.apply(pipeline, test)
        assert out.max() > 1.0

    def test_unknown_column(self):
        train = dmatrix({"a": [1.0, 2.0, 4.0], "b": [1.0, 3.0, 2.0]})
        pipeline = selection.fit(train, 0.0, 0.999)
        assert pipeline.kept_columns == ("a", "b")
        with pytest.raises(UnknownColumn):
            selection.apply(pipeline, dmatrix({"a": [1.0, 2.0]}))

    def test_out_of_scope_blocks_pass_through(self):
        m = FeatureMatrix(
            ids=("r0", "r1", "r2"),
            blocks=("K", "D", "Z"),
            names=("k", "d", "z"),
            values=np.array([[1.0, 2.0, 9.0], [0.0, 4.0, 8.0], [1.0, 6.0, 7.0]]),
        )
        pipeline = selection.fit(m, 0.2, 0.9)
        out = selection.apply(pipeline, m)
        assert pipeline.kept_columns == ("k", "d", "z")
        assert out[:, 0].tolist() == [1.0, 0.0, 1.0]
        assert out[:, 2].tolist() == [9.0, 8.0, 7.0]

    def test_pipeline_purity_on_test_rows(self):
        matrix = self.build_ten_column_matrix()
        pipeline = selection.fit(matrix, 0.2, 0.9)
        before = json.dumps(pipeline.to_dict())
        test = dmatrix({n: list(np.arange(3.0) * (i + 1)) for i, n in enumerate(matrix.names)})
        selection.apply(pipeline, test)
        assert json.dumps(pipeline.to_dict()) == before

    def test_survivors_monotone_in_thresholds(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            values = rng.normal(size=(25, 8))
            values[:, 3] = values[:, 1] * rng.uniform(0.9, 1.1)
            matrix = dmatrix({f"c{i}": values[:, i].tolist() for i in range(8)})
            counts_v = []
            for vt in (0.0, 0.1, 0.2, 0.4):
                counts_v.append(len(selection.fit(matrix, vt, 0.9).kept_columns))
            assert counts_v == sorted(counts_v, reverse=True)
            counts_p = []
            for pt in (0.99, 0.9, 0.5, 0.2):
                counts_p.append(len(selection.fit(matrix, 0.0, pt).kept_columns))
            assert counts_p == sorted(counts_p, reverse=True)

    def test_column_order_independence_up_to_representative(self):
        matrix = self.build_ten_column_matrix()
        kept = set()
        rng = np.random.default_rng(5)
        for _ in range(5):
            order = rng.permutation(len(matrix.names))
            shuffled = FeatureMatrix(
                ids=matrix.ids,
                blocks=tuple(matrix.blocks[i] for i in order),
                names=tuple(matrix.names[i] for i in order),
                values=matrix.values[:, order],
            )
            pipeline = selection.fit(shuffled, 0.2, 0.9)
            # the set of correlated components is order-independent; the
            # representative follows the documented smallest-index rule
            assert len(pipeline.kept_columns) == 5
            kept.add(len(pipeline.kept_columns))
        assert kept == {5}

    def test_serialization_round_trip(self, tmp_path):
        matrix = self.build_ten_column_matrix()
        pipeline = selection.fit(matrix, 0.2, 0.9)
        path = tmp_path / "pipe.json"
        path.write_text(dataio.dump_json(pipeline.to_dict()))
        loaded = SelectionPipeline.load(path)
        assert loaded == pipeline


# Per-column cascade as it stood before the vectorized fit, on the arrays
# and positions the stages now take: the oracle the vectorized code must
# match bit for bit.


def _oracle_max_normalize(values: np.ndarray):
    if values.shape[0] == 0:
        raise EmptyMatrix("cannot normalize an empty matrix")
    kept: list[int] = []
    peaks: list[float] = []
    values = values.copy()
    for pos in range(values.shape[1]):
        peak = float(np.max(np.abs(values[:, pos])))
        if peak == 0.0:
            continue  # constant zero column: dropped
        values[:, pos] = values[:, pos] / peak
        kept.append(pos)
        peaks.append(peak)
    return np.array(kept, dtype=np.intp), np.array(peaks), values[:, kept]


def _oracle_variance_filter(values: np.ndarray, threshold: float) -> np.ndarray:
    kept = []
    for pos in range(values.shape[1]):
        if sample_std(values[:, pos]) > threshold:
            kept.append(pos)
    return np.array(kept, dtype=np.intp)


def _oracle_pcc_prune(values: np.ndarray, threshold: float) -> np.ndarray:
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

    for i in range(n):
        for j in range(i + 1, n):
            if abs(pearson(values[:, i], values[:, j])) > threshold:
                union(i, j)

    return np.array(sorted({find(i) for i in range(n)}), dtype=np.intp)


def _oracle_apply(pipeline: SelectionPipeline, matrix: FeatureMatrix) -> np.ndarray:
    missing = [n for n in pipeline.kept_columns if n not in matrix.names]
    if missing:
        raise UnknownColumn(f"matrix lacks fitted columns {missing}")
    values = matrix.values[:, [matrix.names.index(n) for n in pipeline.kept_columns]]
    values = values.copy()
    for pos, name in enumerate(pipeline.kept_columns):
        peak = pipeline.column_max.get(name)
        if peak is not None:
            values[:, pos] = values[:, pos] / peak
    return values


def _outcome(function, *args):
    """A call's result, arrays as lists, or its error as (type, message)."""
    try:
        result = function(*args)
    except selection.SelectionError as exc:
        return type(exc), str(exc)
    return result.tolist() if isinstance(result, np.ndarray) else result


def _oracle_fit(matrix, vt, pt):
    """``selection.fit`` running on the oracle stages."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "max_normalize", _oracle_max_normalize)
        patch.setattr(selection, "variance_filter", _oracle_variance_filter)
        patch.setattr(selection, "pcc_prune", _oracle_pcc_prune)
        return _outcome(selection.fit, matrix, vt, pt)


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        # the memory layout steers the models' BLAS rounding
        and a.flags.c_contiguous == b.flags.c_contiguous
        and a.flags.f_contiguous == b.flags.f_contiguous
        and a.tobytes() == b.tobytes()
    )


def _assert_matches_oracle(matrix, vts=(0.2,), pts=(0.9,)):
    """Every stage, the fit and both applies equal the oracle's, errors too."""
    values = matrix.values[:, [b == selection.SCOPE for b in matrix.blocks]]
    got = _outcome(max_normalize, values)
    want = _outcome(_oracle_max_normalize, values)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert all(_same_array(g, w) for g, w in zip(got, want))
    for vt in vts:
        assert _outcome(variance_filter, values, vt) == _outcome(
            _oracle_variance_filter, values, vt
        )
    for pt in pts:
        assert _outcome(pcc_prune, values, pt) == _outcome(_oracle_pcc_prune, values, pt)
    for vt in vts:
        for pt in pts:
            pipeline = _outcome(selection.fit, matrix, vt, pt)
            assert pipeline == _oracle_fit(matrix, vt, pt)
            if isinstance(pipeline, SelectionPipeline):
                assert _same_array(
                    selection.apply(pipeline, matrix), _oracle_apply(pipeline, matrix)
                )


def _random_matrix(rng, n: int, p: int) -> FeatureMatrix:
    """Mixed-scale columns with exact, scaled and negated duplicates."""
    values = rng.normal(size=(n, p)) * rng.uniform(0.01, 50.0, size=p)
    values += rng.uniform(-3.0, 3.0, size=p)
    if p >= 3:
        values[:, 1] = values[:, 0]
        values[:, 2] = -3.0 * values[:, 0]
    if p >= 5:
        values[:, 4] = rng.integers(0, 3, size=n)  # tie-heavy counts
    if p >= 6:
        values[:, 5] = -values[:, 3] + 1e-9 * rng.normal(size=n)
    return dmatrix({f"c{j}": values[:, j].tolist() for j in range(p)})


class TestVectorizedCascadeMatchesOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 20, 61])
    def test_random_matrices(self, n):
        rng = np.random.default_rng(100 + n)
        for p in (1, 2, 3, 6, 9, 14):
            _assert_matches_oracle(
                _random_matrix(rng, n, p),
                vts=(0.0, 0.05, 0.2, 0.45),
                pts=(0.0, 0.3, 0.9, 0.99, 1.0),
            )

    def test_mixed_blocks_and_scopes(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(15, 6))
        values[:, 2] = 0.0  # all-zero: dropped in scope, kept out of it
        values[:, 3] = 2.0 * values[:, 0]
        values[:, 5] = 2.0 * values[:, 3]
        matrix = FeatureMatrix(
            ids=tuple(f"r{i}" for i in range(15)),
            blocks=("K", "D", "D", "D", "Z", "D"),
            names=tuple(f"c{j}" for j in range(6)),
            values=values,
        )
        _assert_matches_oracle(matrix, vts=(0.1, 0.2), pts=(0.5, 0.9))
        pipeline = selection.fit(matrix)
        assert pipeline.kept_columns == ("c0", "c1", "c3", "c4")
        assert set(pipeline.column_max) == {"c1", "c3"}

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_correlations_within_ulps_of_threshold(self, sign):
        # b(t) = e1 + t e2 with e1, e2 centred, orthonormal: r = 1/sqrt(1+t^2).
        # Steps of 1e-16 in t move r by about a third of an ulp across 0.9.
        rng = np.random.default_rng(9)
        t0 = math.sqrt(1.0 / 0.81 - 1.0)
        hits = set()
        for n in (5, 23, 64):
            e1 = rng.normal(size=n)
            e1 -= e1.mean()
            e1 /= np.linalg.norm(e1)
            e2 = rng.normal(size=n)
            e2 -= e2.mean()
            e2 -= (e2 @ e1) * e1
            e2 /= np.linalg.norm(e2)
            a = e1 + 0.5
            for k in range(-40, 41):
                b = sign * (e1 + (t0 + k * 1e-16) * e2)
                ulps = round((abs(pearson(a, b)) - 0.9) / math.ulp(0.9))
                if abs(ulps) <= 2:
                    hits.add(ulps)
                    matrix = dmatrix({"a": a.tolist(), "b": b.tolist()})
                    _assert_matches_oracle(matrix, vts=(0.0,), pts=(0.9,))
        assert {-1, 0, 1} <= hits

    def test_stds_within_ulps_of_threshold(self):
        rng = np.random.default_rng(10)
        hits = set()
        for n in (4, 19, 50):
            u = rng.normal(size=n)
            u = (u - u.mean()) / sample_std(u)
            for offset in (0.0, 0.4, 3.0):
                for k in range(-40, 41):
                    column = offset + (0.2 + k * math.ulp(0.2) / 2) * u
                    ulps = round((sample_std(column) - 0.2) / math.ulp(0.2))
                    if abs(ulps) <= 2:
                        hits.add(ulps)
                        values = np.stack([column, 2.0 * u], axis=1)
                        assert _outcome(variance_filter, values, 0.2) == _outcome(
                            _oracle_variance_filter, values, 0.2
                        )
        assert {-1, 0, 1} <= hits

    def test_threshold_one_with_exact_duplicates(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 9, 40):
            x = rng.normal(size=n)
            matrix = dmatrix({
                "a": x.tolist(), "b": (x * 0.1).tolist(), "c": (-x * 7.3 + 2).tolist(),
                "d": rng.normal(size=n).tolist(),
            })
            _assert_matches_oracle(matrix, vts=(0.0,), pts=(1.0, 1.0 + 1e-12, 2.0))

    def test_threshold_zero_with_orthogonal_columns(self):
        matrix = dmatrix({
            "a": [1.0, -1.0, 1.0, -1.0], "b": [1.0, 1.0, -1.0, -1.0],
            "c": [1.0, -1.0, -1.0, 1.0], "d": [1.0, 2.0, 3.0, 5.0],
        })
        assert _outcome(pcc_prune, matrix.values, 0.0) == _outcome(
            _oracle_pcc_prune, matrix.values, 0.0
        )
        _assert_matches_oracle(matrix, vts=(0.0,), pts=(0.0, -0.5))

    @pytest.mark.parametrize("columns", [
        {"a": [1.0, 2.0, 3.0], "b": [4.0, 4.0, 4.0], "c": [1.0, 0.0, 2.0]},
        {"a": [0.0, 0.0, 0.0], "b": [1.0, 2.0, 3.0], "c": [2.0, 1.0, 0.0]},
        {"a": [1.0, 2.0], "b": [3.0, 3.0]},
        {"a": [1.0], "b": [2.0]},
        {"a": [5.0]},
        {"a": [1.0, 1.0, 1.0]},
    ])
    def test_errors(self, columns):
        # negative thresholds let constant columns reach pcc_prune
        _assert_matches_oracle(dmatrix(columns), vts=(-1.0, 0.0, 0.2), pts=(0.9,))

    def test_empty_rows(self):
        empty = np.zeros((0, 2))
        for function, oracle in ((variance_filter, _oracle_variance_filter),
                                 (pcc_prune, _oracle_pcc_prune)):
            assert _outcome(function, empty, 0.2) == _outcome(oracle, empty, 0.2)

    def test_extreme_magnitudes(self):
        # Squares overflow in the big columns and go subnormal in the tiny
        # ones; pearson's own rounding there decides, as it always has.
        matrix = dmatrix({
            "big": [1e160, -2e160, 3e160, 0.5e160],
            "big2": [2e160, 1e160, -1e160, 0.0],
            "tiny": [1e-160, 3e-160, -2e-160, 0.0],
            "tiny2": [1.1e-160, 2.5e-160, -2e-160, 0.3e-160],
            "plain": [1.0, 2.0, 0.0, 4.0],
        })
        with np.errstate(over="ignore"):
            values = matrix.values
            r = abs(pearson(values[:, 2], values[:, 3]))
            for pt in (0.0, 0.5, 0.9, r, math.nextafter(r, 0.0)):
                assert _outcome(pcc_prune, values, pt) == _outcome(_oracle_pcc_prune, values, pt)
            assert _outcome(variance_filter, values, 0.2) == _outcome(
                _oracle_variance_filter, values, 0.2
            )

    def test_all_msc_training_splits_of_the_dataset(self, dataset24, registry9):
        from molscreen.evaluation import msc_split
        from molscreen.features import assemble
        from molscreen.rng import derive_seed
        from molscreen.scaffold import group_dataset

        features = assemble(dataset24.graphs(), {"D"})
        groups = group_dataset(dataset24.graphs(), registry9)
        for i in range(200):
            split = msc_split(groups, derive_seed(derive_seed(0, i), 0))
            train = features.rows(split.train)
            pipeline = selection.fit(train)
            assert pipeline == _oracle_fit(train, 0.2, 0.9)
            for rows in (train, features.rows(split.test)):
                assert _same_array(
                    selection.apply(pipeline, rows), _oracle_apply(pipeline, rows)
                )


class TestFiniteThresholds:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0.9"])
    def test_fit_rejects(self, bad):
        matrix = dmatrix({"a": [1.0, 2.0, 4.0], "b": [1.0, 3.0, 2.0]})
        with pytest.raises(selection.SelectionError, match="pcc_threshold must be"):
            selection.fit(matrix, 0.2, bad)
        with pytest.raises(selection.SelectionError, match="variance_threshold must be"):
            selection.fit(matrix, bad, 0.9)

    def test_finite_values_outside_unit_interval_keep_their_meaning(self):
        matrix = dmatrix({"a": [1.0, 2.0, 4.0], "b": [1.0, 3.0, 2.0]})
        assert selection.fit(matrix, -1.0, 2.0).kept_columns == ("a", "b")
        assert selection.fit(matrix, 0.0, -1.0).kept_columns == ("a",)
        assert selection.fit(matrix, 5.0, 0.9).kept_columns == ()


def test_fit_and_apply_build_no_feature_matrix(dataset24, registry9, monkeypatch):
    from molscreen.evaluation import msc_split
    from molscreen.features import assemble
    from molscreen.rng import derive_seed
    from molscreen.scaffold import group_dataset

    features = assemble(dataset24.graphs(), {"D"})
    groups = group_dataset(dataset24.graphs(), registry9)
    train = features.rows(msc_split(groups, derive_seed(derive_seed(0, 0), 0)).train)
    built = []
    check = FeatureMatrix.__post_init__
    monkeypatch.setattr(FeatureMatrix, "__post_init__", lambda m: built.append(check(m)))
    selection.apply(selection.fit(train), features)
    assert built == []
