import math
import pickle
import time

import numpy as np
import pytest

from molscreen import evaluation, selection
from molscreen.evaluation import (
    ConstantVector,
    DatasetSplit,
    DegenerateSplit,
    EmptyGroup,
    EvaluationError,
    RepeatScore,
    SingleGroup,
    SplitterSpec,
    logo_splits,
    mae,
    msc_split,
    random_split,
    repeated_eval,
    run_single,
    spearman,
)
from molscreen.features import FeatureMatrix
from molscreen.models import ModelError, TrainConfig, boosting, forest, svr
from molscreen.rng import derive_seed


def matrix_from(values: np.ndarray) -> FeatureMatrix:
    return FeatureMatrix(
        ids=tuple(f"m{i}" for i in range(values.shape[0])),
        blocks=tuple("D" for _ in range(values.shape[1])),
        names=tuple(f"x{j}" for j in range(values.shape[1])),
        values=values.astype(np.float64),
    )


def mixed_problem():
    """K and D columns on unlike scales, one D column nearly constant and
    one a near copy of another, so the cascade scales and drops columns;
    with four scaffold groups."""
    rng = np.random.default_rng(21)
    n = 22
    keys = (rng.random((n, 2)) < 0.5).astype(np.float64)
    d = rng.normal(size=(n, 3)) * np.array([3.0, 40.0, 0.7]) + 5.0
    near_copy = d[:, :1] * 2.0 + rng.normal(scale=1e-3, size=(n, 1))
    flat = np.full((n, 1), 9.0) + rng.normal(scale=1e-4, size=(n, 1))
    values = np.hstack([keys, d, near_copy, flat])
    features = FeatureMatrix(
        ids=tuple(f"m{i}" for i in range(n)),
        blocks=("K", "K", "D", "D", "D", "D", "D"),
        names=("k0", "k1", "d0", "d1", "d2", "d3", "d4"),
        values=values,
    )
    y = values[:, 2] * 0.3 + values[:, 0] + rng.normal(scale=0.2, size=n)
    groups = {1: list(range(0, 3)), 2: list(range(3, 10)), 3: list(range(10, 12)),
              4: list(range(12, n))}
    return features, y, groups


class TestMscSplit:
    def test_small_and_large_group_rule(self):
        groups = {1: [0, 1, 2], 2: [3, 4, 5, 6, 7]}
        split = msc_split(groups, seed=3)
        assert len(split.test) == 3  # 1 + 2
        assert sorted(split.train + split.test) == list(range(8))

    def test_single_molecule_single_group_degenerates(self):
        with pytest.raises(DegenerateSplit):
            msc_split({1: [0]}, seed=0)

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            msc_split({1: []}, seed=0)

    def test_129_molecules_nine_groups_ratio(self):
        sizes = [40, 30, 27, 20, 3, 3, 2, 2, 2]
        assert sum(sizes) == 129
        groups, start = {}, 0
        for gid, size in enumerate(sizes, start=1):
            groups[gid] = list(range(start, start + size))
            start += size
        split = msc_split(groups, seed=11)
        assert len(split.test) == 13  # 2*4 large groups + 1*5 small groups
        ratio = len(split.train) / len(split.test)
        assert 8.5 < ratio < 9.5

    def test_exact_size_formula_over_seeds(self):
        groups = {1: [0, 1], 2: [2, 3, 4, 5], 3: [6], 4: list(range(7, 17))}
        expected = sum(1 if len(v) <= 3 else 2 for v in groups.values())
        for seed in range(200):
            split = msc_split(groups, seed=seed)
            assert len(split.test) == expected
            assert sorted(split.train + split.test) == list(range(17))
            assert not set(split.train) & set(split.test)


class TestRandomSplit:
    def test_fraction(self):
        assert len(random_split(20, 0.1, seed=1).test) == 2

    def test_129_gives_13(self):
        assert len(random_split(129, 0.1, seed=5).test) == 13  # ceil(12.9)

    def test_same_seed_same_split(self):
        assert random_split(50, 0.2, seed=9) == random_split(50, 0.2, seed=9)

    def test_partition_over_seeds(self):
        for seed in range(300):
            split = random_split(17, 0.25, seed=seed)
            assert sorted(split.train + split.test) == list(range(17))


class TestLogo:
    def test_nine_groups_nine_splits(self):
        groups = {gid: [gid * 10, gid * 10 + 1] for gid in range(1, 10)}
        splits = logo_splits(groups)
        assert len(splits) == 9
        for split, gid in zip(splits, sorted(groups)):
            assert list(split.test) == groups[gid]

    def test_two_groups(self):
        splits = logo_splits({1: [0, 1], 2: [2]})
        assert [list(s.test) for s in splits] == [[0, 1], [2]]
        assert [list(s.train) for s in splits] == [[2], [0, 1]]

    def test_single_group_rejected(self):
        with pytest.raises(SingleGroup):
            logo_splits({1: [0, 1, 2]})


class TestMetrics:
    def test_mae(self):
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0
        assert mae([1, 2, 3], [1.5, 2.5, 2.0]) == pytest.approx(0.6667, abs=1e-4)
        assert mae([0.0], [2.0]) == 2.0

    def test_spearman_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 40, 80]) == pytest.approx(1.0)
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_spearman_tied_hand_value(self):
        assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(0.9487, abs=1e-3)

    def test_spearman_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        base = spearman(x, y)
        for transform in (np.exp, lambda v: v**3, lambda v: 5 * v - 2):
            assert spearman(transform(x), y) == pytest.approx(base, abs=1e-12)
            assert spearman(x, transform(y)) == pytest.approx(base, abs=1e-12)

    def test_spearman_constant_rejected(self):
        with pytest.raises(ConstantVector):
            spearman([1.0, 1.0, 1.0], [1, 2, 3])


class TestRepeatedEval:
    def linear_problem(self):
        # 16 distinct feature levels, exactly partitionable by a depth-4 tree
        levels = np.arange(16, dtype=np.float64)
        X = np.concatenate([levels, levels, levels])[:, None]
        y = X[:, 0] / 10.0
        return matrix_from(X), y

    def test_repeats_one_reproduces_manual_run(self):
        features, y = self.linear_problem()
        config = TrainConfig(kind="gb", seed=0)
        report = repeated_eval(
            features, y, SplitterSpec("random", 0.25), config,
            repeats=1, master_seed=99,
        )
        repeat_seed = derive_seed(99, 0)
        from molscreen.evaluation import random_split as rs

        split = rs(len(y), 0.25, derive_seed(repeat_seed, 0))
        manual = run_single(
            features, y, split, config.with_seed(derive_seed(repeat_seed, 1))
        )
        assert report.pairs == (manual,)

    def test_noiseless_linear_gb_mae_below_005(self):
        features, y = self.linear_problem()
        report = repeated_eval(
            features, y, SplitterSpec("random", 0.2),
            TrainConfig(kind="gb", seed=0), repeats=20, master_seed=3,
        )
        assert report.mae_mean < 0.05

    def test_selection_and_model_see_training_rows_only(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(30, 6))
        y = values[:, 0] + rng.normal(scale=0.1, size=30)
        features = matrix_from(values)
        split = random_split(30, 0.2, seed=4)
        config = TrainConfig(kind="gb", seed=1)
        baseline = run_single(features, y, split, config)

        # corrupt the test rows: the fitted pipeline and model must not move
        corrupted = values.copy()
        corrupted[list(split.test), :] *= 100.0
        features_corrupted = matrix_from(corrupted)
        train_matrix = features_corrupted.rows(split.train)
        pipe_a = selection.fit(train_matrix)
        pipe_b = selection.fit(features.rows(split.train))
        assert pipe_a == pipe_b
        corrupted_metrics = run_single(features_corrupted, y, split, config)
        assert corrupted_metrics != baseline  # test rows did change
        # but training-side artifacts are identical, so a clean test row
        # scores identically
        assert baseline == run_single(features, y, split, config)

    @staticmethod
    def assert_loop_of_run_single(features, y, groups, kind, config, repeats):
        report = repeated_eval(features, y, SplitterSpec(kind, 0.2), config,
                               repeats=repeats, master_seed=17, groups=groups)
        if kind == "logo":
            splits = logo_splits(groups)
        else:
            splits = []
            for i in range(repeats):
                split_seed = derive_seed(derive_seed(17, i), 0)
                splits.append(msc_split(groups, split_seed) if kind == "msc"
                              else random_split(len(y), 0.2, split_seed))
        expected = tuple(
            run_single(features, y, split, config.with_seed(derive_seed(derive_seed(17, i), 1)))
            for i, split in enumerate(splits)
        )
        assert report.pairs == expected
        assert report.repeats == len(splits)
        return report, splits

    @pytest.mark.parametrize("kind", ["msc", "random", "logo"])
    @pytest.mark.parametrize("model", ["gb", "rf", "svr"])
    def test_pairs_are_a_loop_of_run_single(self, kind, model):
        features, y, groups = mixed_problem()
        config = TrainConfig(kind=model, seed=0, n_estimators=4)
        self.assert_loop_of_run_single(features, y, groups, kind, config, repeats=6)

    # (model, case, TrainConfig fields, the row counts of each batch fitted
    # together). Every evaluate batch of 8 repeats (gb, svr) is fitted in
    # one fit_models call, rf in calls of 3. Leave-one-group-out holds out
    # groups of 1, 1, 1, 3, 3, 3, 2 and 8 molecules, leaving 21, 21, 21, 19,
    # 19, 19, 20 and 14 training rows (the first three with a one-molecule
    # test set each). Boosters and forests of any row counts grow together;
    # SVR problems of one row count are solved together, in two batches of
    # three, and the other two alone.
    LOCKSTEP_CASES = {
        "msc": ("gb", "msc", {}, [[16] * 8]),
        "random": ("gb", "random", {}, [[17] * 8]),
        "logo-row-counts": ("gb", "logo-row-counts", {}, [[14, 19, 19, 19, 20, 21, 21, 21]]),
        "constant-targets": ("gb", "constant-targets", {}, [[17] * 8]),
        "rf-msc": ("rf", "msc", {"n_estimators": 7}, [[16] * 2, [16] * 3, [16] * 3]),
        "rf-random": ("rf", "random", {"n_estimators": 7}, [[17] * 2, [17] * 3, [17] * 3]),
        "rf-logo-row-counts": ("rf", "logo-row-counts", {"n_estimators": 7},
                               [[19] * 3, [21] * 3, [14, 20]]),
        "rf-constant-targets": ("rf", "constant-targets", {"n_estimators": 7},
                                [[17] * 2, [17] * 3, [17] * 3]),
        "svr-msc": ("svr", "msc", {}, [[16] * 8]),
        "svr-random": ("svr", "random", {}, [[17] * 8]),
        "svr-logo-row-counts": ("svr", "logo-row-counts", {}, [[19] * 3, [21] * 3]),
        "svr-constant-targets": ("svr", "constant-targets", {}, [[17] * 8]),
        # a coefficient at zero and at both bounds at once
        "svr-c-tiny": ("svr", "msc", {"C": 1e-13}, [[16] * 8]),
        "svr-c-near-bound": ("svr", "random", {"C": 1.5e-12, "epsilon": 0.0}, [[17] * 8]),
        "svr-linear": ("svr", "random", {"kernel": "linear", "epsilon": 0.1}, [[17] * 8]),
        "svr-linear-logo": ("svr", "logo-row-counts", {"kernel": "linear", "gamma": 0.5},
                            [[19] * 3, [21] * 3]),
        "svr-unconverged": ("svr", "msc", {}, [[16] * 8]),
        "svr-stuck": ("svr", "random", {}, [[17] * 8]),
    }
    # The function that fits a batch together, per model kind.
    TOGETHER = {"gb": (boosting, "_fit_lockstep"), "rf": (forest, "_grow_forests"),
                "svr": (svr, "_solve_together")}

    @pytest.mark.parametrize("name", LOCKSTEP_CASES)
    def test_lockstep_pairs_are_a_loop_of_run_single(self, name, monkeypatch):
        # Each case records the batches fitted together, so it cannot pass
        # by falling back to fit_svr. fit_gb and fit_rf grow each of
        # run_single's models alone through the same _fit_lockstep and
        # _grow_forests.
        model, case, fields, grown = self.LOCKSTEP_CASES[name]
        batches = []
        module, function = self.TOGETHER[model]
        together = getattr(module, function)

        def spy(data, *args):
            batches.append(sorted(X.shape[0] for X, _ in data))
            return together(data, *args)

        monkeypatch.setattr(module, function, spy)
        # Fewer than 16 SVR problems are solved one by one; here two or more
        # are solved together, as gb's three or more grow in lockstep.
        monkeypatch.setattr(svr, "_SOLVE_TOGETHER", 2)
        features, y, groups = mixed_problem()
        kind = case
        if case == "logo-row-counts":
            kind, sizes = "logo", [1, 1, 1, 3, 3, 3, 2, 8]
            bounds = np.cumsum([0] + sizes)
            groups = {g + 1: list(range(bounds[g], bounds[g + 1])) for g in range(len(sizes))}
        elif case == "constant-targets":
            # One distinct target: a repeat that holds it out trains on a
            # constant, so its trees are bare roots and it predicts one.
            kind, y = "random", np.where(np.arange(len(y)) == 6, 2.0, 1.0)
        if name == "svr-unconverged":
            # Some repeats stop at the cap, the others converge below it.
            monkeypatch.setattr(svr, "_MAX_UPDATES", 10)
        stuck = []
        if name == "svr-stuck":
            # An update stuck at a step below 1e-14 ends its problem's
            # solve, unconverged: here every update of a pair with a
            # negative and a positive coefficient, a rule of the arguments
            # alone, so the loop and the batch see the same updates.
            optimize = svr._optimize_pair

            def sticks(a, g, bi, bj, C, epsilon):
                if bi < 0 < bj:
                    stuck.append((bi, bj))
                    return 5e-15
                return optimize(a, g, bi, bj, C, epsilon)

            monkeypatch.setattr(svr, "_optimize_pair", sticks)
        report, splits = self.assert_loop_of_run_single(
            features, y, groups, kind, TrainConfig(kind=model, seed=0, **fields), repeats=8
        )
        alone = [[len(split.train)] for split in splits] if model != "svr" else []
        assert sorted(batches) == sorted(grown + alone)
        if case == "logo-row-counts":
            assert 0 < report.degenerate_repeats < report.repeats
        if case == "constant-targets":
            assert 0 < sum(6 in split.test for split in splits) < len(splits)
        if name in ("svr-unconverged", "svr-stuck"):
            assert 0 < report.unconverged_fits < report.repeats
        if name == "svr-stuck":
            assert stuck

    @pytest.mark.parametrize("model, groups, fails", [
        # repeat 0's fit fails (a bad hyperparameter) before repeat 1's
        # cascade (one training row)
        ("gb", {1: [0], 2: list(range(1, 22))}, True),
        # repeat 0's cascade fails, and so would every fit
        ("gb", {1: list(range(21)), 2: [21]}, True),
        # repeat 0 fits, repeat 1's cascade fails
        ("gb", {1: [0], 2: list(range(1, 22))}, False),
        ("rf", {1: [0], 2: list(range(1, 22))}, True),
        ("rf", {1: list(range(21)), 2: [21]}, True),
        ("rf", {1: [0], 2: list(range(1, 22))}, False),
        ("svr", {1: [0], 2: list(range(1, 22))}, True),
        ("svr", {1: list(range(21)), 2: [21]}, True),
        ("svr", {1: [0], 2: list(range(1, 22))}, False),
    ], ids=["fit-first", "cascade-first", "cascade-later",
            "rf-fit-first", "rf-cascade-first", "rf-cascade-later",
            "svr-fit-first", "svr-cascade-first", "svr-cascade-later"])
    def test_the_first_failing_repeat_raises(self, model, groups, fails):
        features, y, _ = mixed_problem()
        broken = {"gb": {"n_estimators": -1}, "rf": {"n_estimators": 0}, "svr": {"C": -1.0}}
        config = TrainConfig(kind=model, seed=0, **(broken[model] if fails else {}))
        with pytest.raises(ValueError) as looped:
            for i, split in enumerate(logo_splits(groups)):
                run_single(features, y, split, config.with_seed(derive_seed(derive_seed(17, i), 1)))
        with pytest.raises(ValueError) as phased:
            repeated_eval(features, y, SplitterSpec("logo"), config, master_seed=17, groups=groups)
        assert type(phased.value) is type(looped.value)
        assert str(phased.value) == str(looped.value)

    @pytest.mark.parametrize("model, grown", [("gb", [3]), ("rf", [3]), ("svr", [3])])
    def test_a_cascade_failing_after_a_batch_raises_after_the_batch_fits(
        self, model, grown, monkeypatch
    ):
        # Holding out groups 1 to 4 leaves 21 training rows each; repeat 3's
        # cascade fails. Repeats 0 to 2 are fitted together first (rf's
        # first batch, and the part of gb's and svr's batch before the
        # failure), and a bad hyperparameter fails that fit first.
        batches = []
        module, function = self.TOGETHER[model]
        together = getattr(module, function)
        monkeypatch.setattr(module, function,
                            lambda data, *args: batches.append(len(data)) or together(data, *args))
        prepare = evaluation._prepare

        def fails_on_group_4(features, targets, split):
            if split.seed == 4:
                raise selection.TooFewSamples("group 4")
            return prepare(features, targets, split)

        monkeypatch.setattr(evaluation, "_prepare", fails_on_group_4)
        monkeypatch.setattr(svr, "_SOLVE_TOGETHER", 2)
        features, y, _ = mixed_problem()
        groups = {1: [0], 2: [1], 3: [2], 4: [3], 5: list(range(4, 22))}
        with pytest.raises(selection.TooFewSamples, match="group 4"):
            repeated_eval(features, y, SplitterSpec("logo"), TrainConfig(kind=model, seed=0),
                          master_seed=17, groups=groups)
        assert batches == grown
        broken = {"gb": {"n_estimators": -1}, "rf": {"n_estimators": 0}, "svr": {"C": -1.0}}
        with pytest.raises(ModelError):
            repeated_eval(features, y, SplitterSpec("logo"),
                          TrainConfig(kind=model, seed=0, **broken[model]),
                          master_seed=17, groups=groups)

    def test_model_sees_each_part_projected_apart(self, monkeypatch):
        # The cascade projects the whole matrix once; the rows the model fits
        # and predicts must be bitwise those of projecting each part alone.
        features, y, groups = mixed_problem()
        fit = evaluation.fit_model
        seen = []

        class Spy:
            def __init__(self, model):
                self.model = model

            def predict(self, X):
                seen.append(X)
                return self.model.predict(X)

        def spy_fit(X, y, config):
            seen.append(X)
            return Spy(fit(X, y, config))

        monkeypatch.setattr(evaluation, "fit_model", spy_fit)
        splits = [msc_split(groups, seed) for seed in range(4)] + logo_splits(groups)
        for split in splits:
            seen.clear()
            run_single(features, y, split, TrainConfig(kind="gb", seed=0, n_estimators=2))
            pipeline = selection.fit(features.rows(split.train))
            assert 0 < len(pipeline.kept_columns) < len(features.names)
            assert len(seen) == 2
            for X, rows in zip(seen, (split.train, split.test)):
                expected = selection.apply(pipeline, features.rows(rows))
                assert X.flags.c_contiguous
                assert X.dtype == expected.dtype and X.shape == expected.shape
                assert X.tobytes() == expected.tobytes()

    def test_logo_runs_once_per_group(self):
        features, y = self.linear_problem()
        groups = {1: list(range(0, 16)), 2: list(range(16, 32)),
                  3: list(range(32, 48))}
        report = repeated_eval(
            features, y, SplitterSpec("logo"), TrainConfig(kind="gb", seed=0),
            repeats=200, master_seed=1, groups=groups,
        )
        assert report.repeats == 3  # one per group, repeats ignored

    def test_msc_requires_groups(self):
        features, y = self.linear_problem()
        with pytest.raises(EvaluationError):
            repeated_eval(features, y, SplitterSpec("msc"),
                          TrainConfig(kind="gb", seed=0), repeats=2, master_seed=0)


class TestDegenerateRepeats:
    def linear_problem(self):
        levels = np.arange(16, dtype=np.float64)
        X = np.concatenate([levels, levels, levels])[:, None]
        return matrix_from(X), X[:, 0] / 10.0

    def test_one_molecule_test_set(self):
        features, y = self.linear_problem()
        report = repeated_eval(features, y, SplitterSpec("random", 0.01),
                               TrainConfig(kind="gb", seed=0), repeats=4)
        assert all(len(random_split(48, 0.01, s).test) == 1 for s in range(4))
        assert [score.spearman for score in report.pairs] == [None] * 4
        assert report.degenerate_repeats == 4
        assert report.spearman_mean is None and report.spearman_std is None
        assert report.mae_std is not None
        payload = report.to_dict()
        assert payload["degenerate_repeats"] == 4
        assert payload["spearman"] == {"mean": None, "std": None}
        assert payload["mae"]["mean"] == report.mae_mean > 0
        text = report.render_text()
        assert "n/a" in text
        assert "4 of 4 repeats degenerate" in text

    def test_constant_predictions(self):
        features, y = self.linear_problem()
        y = y.copy()
        y[:32] = 1.0  # every training row has the same target
        split = DatasetSplit(train=tuple(range(32)), test=tuple(range(32, 48)),
                             method="random", seed=0)
        m, rho, _ = run_single(features, y, split, TrainConfig(kind="gb", seed=0))
        assert rho is None
        assert m == pytest.approx(float(np.mean(np.abs(1.0 - y[32:]))))

    def test_mean_and_std_over_defined_repeats(self):
        features, y = self.linear_problem()
        # group 1 holds a single molecule, so its held-out repeat is degenerate
        groups = {1: [0], 2: list(range(1, 20)), 3: list(range(20, 48))}
        report = repeated_eval(features, y, SplitterSpec("logo"),
                               TrainConfig(kind="gb", seed=0), groups=groups)
        defined = [score.spearman for score in report.pairs[1:]]
        assert report.pairs[0].spearman is None
        assert None not in defined
        assert report.degenerate_repeats == 1
        assert report.spearman_mean == pytest.approx(float(np.mean(defined)))
        assert report.spearman_std == pytest.approx(selection.sample_std(defined))
        assert report.mae_mean == pytest.approx(
            float(np.mean([score.mae for score in report.pairs]))
        )

    def test_no_degenerate_repeat_leaves_text_unchanged(self):
        features, y = self.linear_problem()
        report = repeated_eval(features, y, SplitterSpec("random", 0.25),
                               TrainConfig(kind="gb", seed=0), repeats=3)
        assert report.degenerate_repeats == 0
        assert report.to_dict()["degenerate_repeats"] == 0
        assert len(report.render_text().splitlines()) == 3


class TestSplitterArithmeticSpeed:
    def test_thousand_seeds_fast(self):
        groups = {1: [0, 1], 2: [2, 3, 4, 5], 3: [6, 7, 8], 4: list(range(9, 29))}
        expected = sum(1 if len(v) <= 3 else 2 for v in groups.values())
        start = time.time()
        for seed in range(1000):
            split = msc_split(groups, seed=seed)
            assert len(split.test) == expected
            r = random_split(129, 0.1, seed=seed)
            assert len(r.test) == 13
        assert len(logo_splits(groups)) == 4
        assert time.time() - start < 5.0


class TestUnconvergedFits:
    def problem(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(30, 3))
        return matrix_from(values), values[:, 0] + rng.normal(scale=0.1, size=30)

    def test_counted_in_json_and_text(self, monkeypatch):
        import dataclasses

        from molscreen import evaluation

        fit = evaluation.fit_models
        calls = []

        def every_other_stalls(problems, config, seeds):
            stalled = []
            for model in fit(problems, config, seeds):
                calls.append(model)
                stalled.append(dataclasses.replace(model, converged=len(calls) % 2 == 1))
            return stalled

        monkeypatch.setattr(evaluation, "fit_models", every_other_stalls)
        features, y = self.problem()
        config = TrainConfig(kind="svr", seed=0)
        report = repeated_eval(features, y, SplitterSpec("random", 0.2), config,
                               repeats=5, master_seed=2)
        assert report.unconverged_fits == 2
        assert [score.converged for score in report.pairs] == [True, False, True, False, True]
        assert report.to_dict()["unconverged_fits"] == 2
        text = report.render_text()
        assert text.splitlines()[-1] == "random: 2 of 5 fits did not converge"

        # the flag rides along without changing the scores
        monkeypatch.setattr(evaluation, "fit_models", fit)
        clean = repeated_eval(features, y, SplitterSpec("random", 0.2), config,
                              repeats=5, master_seed=2)
        assert [s[:2] for s in clean.pairs] == [s[:2] for s in report.pairs]
        assert clean.unconverged_fits == 0
        assert "converge" not in clean.render_text()

    def test_run_single_reports_the_flag(self):
        features, y = self.problem()
        split = random_split(30, 0.2, seed=1)
        svr = run_single(features, y, split, TrainConfig(kind="svr", seed=0))
        assert svr.converged is True
        gb = run_single(features, y, split, TrainConfig(kind="gb", seed=0))
        assert gb.converged is True
        m, rho, converged = gb
        assert (m, rho, converged) == gb == (gb.mae, gb.spearman, gb.converged)

    def test_tree_models_report_zero(self):
        features, y = self.problem()
        report = repeated_eval(features, y, SplitterSpec("random", 0.2),
                               TrainConfig(kind="gb", seed=0), repeats=2)
        assert report.to_dict()["unconverged_fits"] == 0

    def test_scores_and_reports_survive_pickle(self):
        features, y = self.problem()
        report = repeated_eval(features, y, SplitterSpec("random", 0.2),
                               TrainConfig(kind="svr", seed=0), repeats=3)
        for score in report.pairs:
            clone = pickle.loads(pickle.dumps(score))
            assert type(clone) is RepeatScore
            assert clone == score and clone.converged is score.converged
        assert pickle.loads(pickle.dumps(report)).to_dict() == report.to_dict()
