"""The benchmark's workloads: what one timed operation does and how its
result is checked.

A workload drives the package from outside, through the ``molscreen`` CLI
(called in-process) or its public library functions. ``inputs`` writes or
builds one chunk's inputs and is not timed; ``run`` is the timed operation
of one of the workload's ``kinds`` on them; ``outcome`` reads the result
back and returns the item count, the value whose digest is compared with
the recorded one, and any broken invariant. A workload of one kind has
``kinds = (None,)``. ``host_loop`` names the calibration loop
(``hostspeed.LOOPS``) whose kind of work matches the workload's.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

import generators as gen
from checks import funnel_problems, screen_outcome

from molscreen import cli, dataio, models
from molscreen.features import atomic_masses, default_keyset
from molscreen.scaffold import load_registry


class Env:
    """Paths shared by the workloads of one run."""

    def __init__(self, root: Path, work: Path):
        self.data = root / "src" / "molscreen" / "data"
        self.work = work

    @property
    def dataset24(self) -> Path:
        return self.data / "additives24.csv"

    @property
    def registry(self) -> Path:
        return self.data / "scaffold_groups.csv"


def _cli(argv: list[str]) -> int:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"molscreen {argv[0]} exited with code {code}")
    return code


def load_bundled(env: Env) -> None:
    """Load every bundled data file the workloads read: part of set-up."""
    dataio.load_dataset(env.dataset24)
    load_registry(env.registry)
    default_keyset()
    atomic_masses()


class ScreenPool:
    """``molscreen screen`` on a seeded draw from the synthetic pool."""

    name = "screen_pool"
    why = ("molgraph parsing and scaffold extraction dominate; keys are "
           "bypassed and the model predicts once per screen")
    chunks = 32
    kinds = (None,)
    rows = 400
    host_loop = "python"
    item = "pool row"

    def prepare(self, env: Env) -> None:
        load_bundled(env)
        _cli(["train", "--dataset", env.dataset24, "--model", "gb", "--seed", 7,
              "--out", env.work / "model.json",
              "--pipeline-out", env.work / "pipeline.json"])
        funnel = {
            "pool": "pool.csv",
            "registry": str(env.registry),
            "model": "model.json",
            "pipeline": "pipeline.json",
            "blocks": ["D"],
            "vocabulary": {"elements": gen.VOCABULARY},
            "top_fraction": gen.TOP_FRACTION,
            "thresholds": gen.THRESHOLDS,
            "properties": "properties.csv",
            "cas": "cas.csv",
        }
        (env.work / "funnel.json").write_text(json.dumps(funnel), encoding="utf-8")

    def inputs(self, env: Env, chunk: int) -> int:
        for name, text in gen.screen_chunk(chunk, self.rows).items():
            (env.work / name).write_text(text, encoding="utf-8")
        return self.rows + len(gen.PLANTED)

    def run(self, env: Env, rows: int, _kind):
        _cli(["screen", "--funnel", env.work / "funnel.json",
              "--out-json", env.work / "report.json",
              "--out-text", env.work / "report.txt"])

    def outcome(self, env: Env, rows: int, _raw, _kind):
        report = json.loads((env.work / "report.json").read_text(encoding="utf-8"))
        value = screen_outcome(report)
        planted = {
            "element_not_in_vocabulary": len(gen.PLANTED_VOCABULARY),
            "novel_scaffold": len(gen.PLANTED_NOVEL),
            "parse_failures": len(gen.PLANTED_UNPARSEABLE),
            "merged_duplicates": len(gen.PLANTED_DUPLICATES) - 1,
        }
        return rows, value, funnel_problems(value, rows, planted, gen.TOP_FRACTION)

    def describe(self) -> dict:
        return {"pool_rows_per_op": self.rows + len(gen.PLANTED),
                "planted_rows_per_op": len(gen.PLANTED),
                "universe_rows": len(gen.pool_universe()),
                "blocks": "D", "top_fraction": gen.TOP_FRACTION}


class FeaturizeKeys:
    """``molscreen featurize --blocks K,D`` on pool molecules plus the
    symmetric branched family."""

    name = "featurize_keys"
    why = ("structural keys and symmetry-driven canonicalization dominate; "
           "the only workload that computes keys")
    chunks = 32
    kinds = (None,)
    pool_rows = 200
    host_loop = "python"
    item = "molecule"

    def prepare(self, env: Env) -> None:
        load_bundled(env)

    def inputs(self, env: Env, chunk: int) -> int:
        text, _ = gen.featurize_chunk(chunk, self.pool_rows)
        (env.work / "molecules.csv").write_text(text, encoding="utf-8")
        return self.pool_rows + len(gen.FAMILY)

    def run(self, env: Env, rows: int, _kind):
        _cli(["featurize", "--dataset", env.work / "molecules.csv",
              "--blocks", "K,D", "--out", env.work / "features.csv"])

    def outcome(self, env: Env, rows: int, _raw, _kind):
        with (env.work / "features.csv").open(newline="", encoding="utf-8") as handle:
            table = list(csv.reader(line for line in handle if not line.startswith("#")))
        header, body = table[0], table[1:]
        ids = [r[0] for r in body]
        values = [[float(x) for x in r[1:]] for r in body]
        problems = []
        if len(body) != rows:
            problems.append(f"{len(body)} matrix rows for {rows} molecules")
        if len(set(ids)) != len(ids):
            problems.append("duplicate matrix ids")
        if any(len(v) != len(header) - 1 for v in values):
            problems.append("ragged matrix")
        return rows, {"columns": header, "ids": ids, "values": values}, problems

    def describe(self) -> dict:
        rows = self.pool_rows + len(gen.FAMILY)
        return {"rows_per_op": rows, "symmetric_rows_per_op": len(gen.FAMILY),
                "symmetric_share": len(gen.FAMILY) / rows, "blocks": "K,D"}


class Evaluate24:
    """``molscreen evaluate --splitter msc`` for gb, rf and svr on the
    bundled 24-molecule set with the bundled registry: one kind per
    operation."""

    name = "evaluate_24"
    why = ("gb, rf and svr repeat loops: tiny fits whose time is per-call "
           "overhead in models split search, SVR updates and selection.fit")
    chunks = 16
    kinds = ("gb", "rf", "svr")
    host_loop = "small_numpy"
    item = "repeat"
    # Repeats per call, sized so that each kind's call takes about 1 s on a
    # 2-vCPU host: loading the dataset and the registry (about 0.2 s a call)
    # stays a minor share, and a 26 s run holds about seven
    # calls of each kind.
    repeats = {"gb": 16, "rf": 12, "svr": 120}

    def prepare(self, env: Env) -> None:
        load_bundled(env)

    def inputs(self, env: Env, chunk: int) -> int:
        return gen.derive(chunk, 5) % (1 << 31)

    def run(self, env: Env, seed: int, kind: str):
        _cli(["evaluate", "--dataset", env.dataset24, "--registry", env.registry,
              "--splitter", "msc", "--model", kind,
              "--repeats", self.repeats[kind], "--seed", seed,
              "--out-json", env.work / f"evaluate-{kind}.json",
              "--out-text", env.work / f"evaluate-{kind}.txt"])

    def outcome(self, env: Env, seed: int, _raw, kind: str):
        repeats = self.repeats[kind]
        report = json.loads((env.work / f"evaluate-{kind}.json").read_text(encoding="utf-8"))
        pairs = [[r["mae"], r["spearman"]] for r in report["per_repeat"]]
        problems = []
        if len(pairs) != repeats:
            problems.append(f"{kind}: {len(pairs)} repeats for {repeats}")
        if not all(math.isfinite(m) and m >= 0 and -1 <= r <= 1 for m, r in pairs):
            problems.append(f"{kind}: MAE or Spearman out of range")
        return repeats, pairs, problems

    def describe(self) -> dict:
        return {"dataset_rows": 24, "repeats_per_op": self.repeats, "splitter": "msc"}


class Train2k:
    """``fit_model`` then ``predict`` for gb, svr or rf on a seeded
    2,000 x 24 regression, predicting 500 held-out rows: one kind per
    operation."""

    name = "train_2k"
    why = ("large gb, svr and rf fits: per-row cost in split search, "
           "tie handling and the SVR kernel, the opposite of evaluate_24")
    chunks = 8
    n, n_test, p = 2000, 500, 24
    kinds = ("gb", "svr", "rf")
    host_loop = "arrays"
    # The forest trains 11 of its default 55 trees: every tree costs the
    # same per row, and an rf operation then takes about as long as the
    # others, so a 26 s run holds about four of each kind.
    overrides = {"rf": {"n_estimators": 11}}
    item = "training row"

    def prepare(self, env: Env) -> None:
        load_bundled(env)

    def inputs(self, env: Env, chunk: int):
        return chunk, gen.regression(chunk, self.n, self.n_test, self.p)

    def run(self, env: Env, inputs, kind: str):
        chunk, (X, y, X_test) = inputs
        config = models.TrainConfig(kind=kind, seed=chunk, **self.overrides.get(kind, {}))
        return models.fit_model(X, y, config).predict(X_test)

    def outcome(self, env: Env, inputs, predictions, kind: str):
        predictions = np.asarray(predictions)
        problems = []
        if predictions.shape != (self.n_test,) or not np.all(np.isfinite(predictions)):
            problems.append(f"{kind}: bad predictions, shape {predictions.shape}")
        return self.n, predictions.tolist(), problems

    def split_search(self, inputs, calls: int = 21) -> float:
        """Median time of one depth-1 tree fit (a single exhaustive split
        search over every column) on this chunk's training matrix."""
        _, (X, y, _) = inputs
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            models.fit_tree(X, y, max_depth=1)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def describe(self) -> dict:
        return {"n": self.n, "p": self.p, "n_test": self.n_test,
                "integer_columns": self.p // 2, "models": list(self.kinds),
                "overrides": self.overrides}


WORKLOADS = {w.name: w for w in (ScreenPool(), FeaturizeKeys(), Evaluate24(), Train2k())}
