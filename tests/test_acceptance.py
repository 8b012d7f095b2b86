"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import csv
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from molscreen import dataio, selection
from molscreen.evaluation import (
    SplitterSpec,
    logo_splits,
    msc_split,
    random_split,
    repeated_eval,
)
from molscreen.features import FeatureMatrix, assemble
from molscreen.models import (
    TrainConfig, fit_gb, fit_model, fit_rf, fit_svr, fit_tree, model_to_dict,
)
from molscreen.molgraph import canonical_smiles, parse_smiles
from molscreen.scaffold import extract_scaffold, group_dataset
from molscreen.screening import FunnelConfig, run_funnel, top_count
from molscreen.cli import main as cli_main

from conftest import DATA_DIR, synthetic_pool_rows
from test_models import exhaustive_stump
from test_selection import _bruteforce_cascade, dmatrix

DATASET = str(DATA_DIR / "additives24.csv")
REGISTRY = str(DATA_DIR / "scaffold_groups.csv")


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {summary}")
        raise
    print(f"ACCEPTANCE {number} PASS: {summary}")


def test_criterion_1_msc_beats_random(dataset24, registry9):
    with criterion(1, "MSC beats random split on MAE and Spearman (200 repeats)"):
        start = time.time()
        groups = group_dataset(dataset24.graphs(), registry9)
        matrix = assemble(dataset24.graphs(), {"D"})
        targets = dataset24.targets()
        config = TrainConfig(kind="gb", seed=0)  # Table defaults: 35 trees, depth 4

        # Direction verified for master seeds {0,1,5,7,11,42,99,123,2024,31337}:
        # both margins positive at every seed; 42 is pinned as representative.
        msc = repeated_eval(
            matrix, targets, SplitterSpec("msc"), config,
            repeats=200, master_seed=42, groups=groups,
        )
        # The reference comparison holds the train/test ratio fixed for both
        # methods (9:1 at full scale); at desk scale the stratified split
        # tests sum(1 if |g|<=3 else 2) molecules, so the random baseline
        # draws the same test-set size.
        msc_test_size = sum(1 if len(v) <= 3 else 2 for v in groups.values())
        fraction = msc_test_size / len(targets)
        rnd = repeated_eval(
            matrix, targets, SplitterSpec("random", fraction), config,
            repeats=200, master_seed=42,
        )
        elapsed = time.time() - start

        print(
            f"    MSC    MAE {msc.mae_mean:.4f} ± {msc.mae_std:.4f}  "
            f"Spearman {msc.spearman_mean:.4f} ± {msc.spearman_std:.4f}"
        )
        print(
            f"    Random MAE {rnd.mae_mean:.4f} ± {rnd.mae_std:.4f}  "
            f"Spearman {rnd.spearman_mean:.4f} ± {rnd.spearman_std:.4f}"
        )
        assert msc.repeats == rnd.repeats == 200
        assert msc.mae_mean < rnd.mae_mean
        assert msc.spearman_mean > rnd.spearman_mean
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_splitter_arithmetic():
    with criterion(2, "splitter arithmetic exact over 1000 seeds"):
        start = time.time()
        group_shapes = [
            {1: [0, 1], 2: [2, 3, 4, 5], 3: [6, 7, 8], 4: list(range(9, 29))},
            {1: [0], 2: [1, 2], 3: list(range(3, 10))},
            {gid: list(range(gid * 5, gid * 5 + 4)) for gid in range(1, 8)},
        ]
        for seed in range(1000):
            shape = group_shapes[seed % len(group_shapes)]
            split = msc_split(shape, seed=seed)
            expected = sum(1 if len(v) <= 3 else 2 for v in shape.values())
            assert len(split.test) == expected
            universe = sorted(i for v in shape.values() for i in v)
            assert sorted(split.train + split.test) == universe
            assert not set(split.train) & set(split.test)

            r = random_split(129, 0.1, seed=seed)
            assert len(r.test) == 13
            assert sorted(r.train + r.test) == list(range(129))

        for shape in group_shapes:
            assert len(logo_splits(shape)) == len(shape)
        elapsed = time.time() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_3_selection_cascade_oracle():
    with criterion(3, "selection cascade 10 -> 5 columns matches brute force"):
        rng = np.random.default_rng(7)
        base = rng.normal(loc=0.0, scale=2.0, size=(40, 5))
        columns = {
            "c0": base[:, 0],
            "c1": base[:, 1],
            "c2": np.zeros(40),         # constant (zero)
            "c3": np.full(40, 3.0),     # constant
            "c4": base[:, 2],
            "c5": 2.0 * base[:, 0],     # exact duplicate of c0
            "c6": base[:, 3],
            "c7": np.full(40, -1.0),    # constant
            "c8": -base[:, 1],          # exact (negated) duplicate of c1
            "c9": base[:, 4],
        }
        matrix = dmatrix({k: v.tolist() for k, v in columns.items()})
        pipeline = selection.fit(matrix, 0.2, 0.9)
        expected = _bruteforce_cascade(matrix.values, matrix.names, 0.2, 0.9)
        assert list(pipeline.kept_columns) == expected
        assert len(pipeline.kept_columns) == 5

        # closed-form hand values
        assert abs(selection.sample_std([0, 1, 0, 1]) - math.sqrt(1.0 / 3.0)) <= 1e-9
        assert abs(selection.pearson([1, 2, 3], [2, 4, 6]) - 1.0) <= 1e-9
        assert abs(selection.pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) <= 1e-9


def test_criterion_4_model_oracles():
    with criterion(4, "tree/GB/RF/SVR oracles"):
        start = time.time()
        rng = np.random.default_rng(404)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            p = int(rng.integers(1, 4))
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            tree = fit_tree(X, y, max_depth=1)
            _, feature, threshold = exhaustive_stump(X, y)
            assert tree.left[0] >= 0
            assert tree.feature[0] == feature
            assert abs(tree.threshold[0] - threshold) <= 1e-12

        for _ in range(20):
            n = int(rng.integers(10, 40))
            X = rng.normal(size=(n, 3))
            y = rng.normal(size=n)
            model = fit_gb(X, y, n_estimators=35, max_depth=4, learning_rate=0.1)
            losses = model.staged_train_mse(X, y)
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

        X = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        forest = fit_rf(X, y, n_estimators=1, bootstrap=False, max_features=4,
                        max_depth=6)
        assert np.array_equal(forest.predict(X), fit_tree(X, y, max_depth=6).predict(X))

        y_tube = 3.0 + rng.uniform(-0.5, 0.5, size=25)
        svr = fit_svr(X, y_tube)  # epsilon 0.75 swallows the spread
        assert svr.support_vectors.shape[0] == 0
        assert np.allclose(svr.predict(X), svr.bias)
        assert np.abs(svr.predict(X) - y_tube).max() <= 0.75 + 1e-3

        elapsed = time.time() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_5_funnel_structure(tmp_path, dataset24):
    with criterion(5, "funnel nesting and accounting on a 10k synthetic pool"):
        assert top_count(47800, 0.01) == 478
        assert top_count(10, 0.01) == 1

        matrix = assemble(dataset24.graphs(), {"D"})
        pipeline = selection.fit(matrix)
        model = fit_model(
            selection.apply(pipeline, matrix),
            dataset24.targets(),
            TrainConfig(kind="gb", seed=1),
        )
        (tmp_path / "model.json").write_text(dataio.dump_json(model_to_dict(model)))
        (tmp_path / "pipeline.json").write_text(dataio.dump_json(pipeline.to_dict()))

        rows = synthetic_pool_rows()
        with (tmp_path / "pool.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["smiles"])
            writer.writerows([r] for r in rows)

        # synthetic property and CAS tables keyed by canonical structure so
        # tiers 4 and 5 do real filtering
        from molscreen.screening import load_pool

        pool = load_pool(tmp_path / "pool.csv")
        with (tmp_path / "properties.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["smiles", "donor_number", "dipole_moment", "hba"])
            for i, rec in enumerate(pool.records):
                dn = "" if i % 11 == 0 else f"{8 + (i % 35)}"
                dm = f"{(i % 50) / 10:.1f}"
                writer.writerow([rec.canonical, dn, dm, ""])
        with (tmp_path / "cas.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["smiles", "cas"])
            for i, rec in enumerate(pool.records):
                if i % 3 != 0:
                    writer.writerow([rec.canonical, f"{1000 + i}-{10 + i % 80}-{i % 9}"])
        config = {
            "pool": "pool.csv",
            "registry": REGISTRY,
            "model": "model.json",
            "pipeline": "pipeline.json",
            "blocks": ["D"],
            "vocabulary": {"elements": ["C", "N", "O", "S", "P", "F", "Cl",
                                        "Br", "I", "B", "Si", "H", "K"]},
            "top_fraction": 0.01,
            "thresholds": {"dn_min": 12.0, "dm_min": 1.0, "ha_min": 1},
            "properties": "properties.csv",
            "cas": "cas.csv",
        }
        (tmp_path / "funnel.json").write_text(json.dumps(config))

        start = time.time()
        report = run_funnel(FunnelConfig.load(tmp_path / "funnel.json"))
        elapsed = time.time() - start

        assert report.pool_size >= 10_000
        counts = [t.input_count for t in report.tiers]
        counts.append(report.tiers[-1].survivor_count)
        assert counts[0] == report.pool_size
        for before, after in zip(counts, counts[1:]):
            assert after <= before
        for tier in report.tiers:
            assert tier.input_count == tier.survivor_count + sum(tier.drops.values())
        total_drops = sum(sum(t.drops.values()) for t in report.tiers)
        assert total_drops + len(report.final) == report.pool_size
        rank = report.tiers[2]
        assert rank.survivor_count == top_count(rank.input_count, 0.01)
        print(f"    pool {report.pool_size}, tiers {counts}, {elapsed:.1f}s")
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_6_parser_scaffold_suite(dataset24, registry9):
    with criterion(6, "parser totality, canonical round trip, scaffold laws"):
        import random as pyrandom

        from conftest import permute_graph, random_molecule
        from test_scaffold import _graft_chain

        assert len(dataset24) == 24  # every bundled SMILES parsed at load
        for record in dataset24.records:
            canon = canonical_smiles(record.graph)
            assert canonical_smiles(parse_smiles(canon)) == canon

        # hand-derived scaffold values
        assert extract_scaffold(parse_smiles("Nc1ccncc1")).canonical == \
            canonical_smiles(parse_smiles("c1ccncc1"))
        assert extract_scaffold(parse_smiles("OC(=O)c1csc(Cl)n1")).canonical == \
            canonical_smiles(parse_smiles("c1cscn1"))
        assert extract_scaffold(parse_smiles("CCCCCl")).canonical == ""

        rng = pyrandom.Random(616)
        scaffolds = [s for s in registry9.entries if s]
        checked = 0
        while checked < 500:
            if checked % 2 == 0:
                graph = random_molecule(rng, max_atoms=12)
                first = extract_scaffold(graph)
                if first.canonical:
                    again = extract_scaffold(parse_smiles(first.canonical))
                    assert again.canonical == first.canonical
                order = list(range(len(graph.atoms)))
                rng.shuffle(order)
                assert canonical_smiles(permute_graph(graph, order)) == \
                    canonical_smiles(graph)
            else:
                base = parse_smiles(scaffolds[checked % len(scaffolds)])
                grafted = _graft_chain(base, rng)
                if grafted is not None:
                    assert extract_scaffold(grafted).canonical == \
                        canonical_smiles(base)
            checked += 1


def test_criterion_7_cli_determinism(tmp_path):
    with criterion(7, "cmd_evaluate / cmd_screen byte-identical, serial and parallel"):
        eval_args = [
            "evaluate", "--dataset", DATASET, "--registry", REGISTRY,
            "--splitter", "msc", "--repeats", "10", "--seed", "7",
            "--out-json", str(tmp_path / "eval.json"),
            "--out-text", str(tmp_path / "eval.txt"),
        ]
        assert cli_main(eval_args + ["--threads", "1"]) == 0
        serial = (tmp_path / "eval.json").read_bytes(), (tmp_path / "eval.txt").read_bytes()
        assert cli_main(eval_args + ["--threads", "1"]) == 0
        rerun = (tmp_path / "eval.json").read_bytes(), (tmp_path / "eval.txt").read_bytes()
        assert cli_main(eval_args + ["--threads", "4"]) == 0
        parallel = (tmp_path / "eval.json").read_bytes(), (tmp_path / "eval.txt").read_bytes()
        assert serial == rerun == parallel

        assert cli_main([
            "train", "--dataset", DATASET, "--model", "gb", "--seed", "3",
            "--out", str(tmp_path / "model.json"),
            "--pipeline-out", str(tmp_path / "pipeline.json"),
        ]) == 0
        (tmp_path / "pool.csv").write_text(
            "smiles\nCc1ccccc1\nOc1ccccc1\nCCO\nNCCO\nCc1cccs1\nCC1CCNCC1\n"
        )
        (tmp_path / "properties.csv").write_text(
            "smiles,donor_number,dipole_moment,hba\n"
            "Cc1ccccc1,20,2.0,\nOc1ccccc1,25,1.8,\nCCO,31,1.7,\nNCCO,29,2.4,\n"
            "Cc1cccs1,15,0.4,\nCC1CCNCC1,28,1.1,\n"
        )
        (tmp_path / "cas.csv").write_text(
            "smiles,cas\nCc1ccccc1,108-88-3\nCCO,64-17-5\nNCCO,141-43-5\n"
        )
        funnel = {
            "pool": "pool.csv",
            "registry": REGISTRY,
            "model": "model.json",
            "pipeline": "pipeline.json",
            "blocks": ["D"],
            "top_fraction": 0.9,
            "thresholds": {"dn_min": 18.0, "dm_min": 1.0, "ha_min": 1},
            "properties": "properties.csv",
            "cas": "cas.csv",
        }
        (tmp_path / "funnel.json").write_text(json.dumps(funnel))
        screen_args = [
            "screen", "--funnel", str(tmp_path / "funnel.json"),
            "--out-json", str(tmp_path / "screen.json"),
            "--out-text", str(tmp_path / "screen.txt"),
        ]
        assert cli_main(screen_args + ["--threads", "1"]) == 0
        first = (tmp_path / "screen.json").read_bytes(), (tmp_path / "screen.txt").read_bytes()
        assert cli_main(screen_args + ["--threads", "4"]) == 0
        second = (tmp_path / "screen.json").read_bytes(), (tmp_path / "screen.txt").read_bytes()
        assert first == second
