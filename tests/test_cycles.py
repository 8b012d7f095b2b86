"""Library entry points leave no reference cycles behind.

An object in a reference cycle outlives its last outside reference until the
cyclic garbage collector finds it, so a cycle built per molecule or per fit
costs collections on every hot path: a recursive closure that refers to
itself holds everything it closes over. Each entry point is called once to fill its caches, then again with
the collector off; a collection after that second call must find nothing.

``cli.main`` builds its argparse parser, whose parsers and actions refer to
each other, once per process. ``featurize`` and ``scaffold`` run through it
here; the commands that write JSON artifacts are left out, as
``json.dumps(indent=2)`` runs the pure-Python encoder, whose closures form
cycles of their own.
"""

import gc
from pathlib import Path

import numpy as np
import pytest

from molscreen import cli, dataio
from molscreen.evaluation import SplitterSpec, repeated_eval
from molscreen.features import assemble, default_keyset, descriptors, fingerprint, match_pattern
from molscreen.models import MODEL_KINDS, TrainConfig, fit_model, fit_models
from molscreen.models.tree import fit_tree
from molscreen.molgraph import parse_smiles
from molscreen.scaffold import extract_scaffold, group_dataset, load_registry
from molscreen.screening import FunnelConfig, run_funnel

from conftest import DATA_DIR, synthetic_pool_rows

DEMO = Path(__file__).resolve().parents[1] / "demo"


def pool_rows(count=32):
    """The first ``count`` synthetic pool rows that parse, one per molecule."""
    rows, seen = [], set()
    for smiles in synthetic_pool_rows():
        try:
            canonical = parse_smiles(smiles).canonical
        except ValueError:
            continue
        if canonical in seen:
            continue
        seen.add(canonical)
        rows.append(smiles)
        if len(rows) == count:
            return rows
    raise AssertionError("the synthetic pool has too few parseable rows")


ROWS = pool_rows()
KEYSET = default_keyset()


def graphs():
    """Freshly parsed graphs, so no per-graph cache is filled yet."""
    return [parse_smiles(smiles) for smiles in ROWS]


def unreachable_after(call) -> int:
    """Objects a collection finds after ``call()``, run with the collector
    off once its caches are warm."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def training_problem():
    dataset = dataio.load_dataset(DATA_DIR / "additives24.csv")
    return assemble(dataset.graphs(), ("D",)).values, dataset.targets()


MOLECULE_CALLS = {
    "parse_smiles": lambda: graphs(),
    "canonical": lambda: [graph.canonical for graph in graphs()],
    "extract_scaffold": lambda: [extract_scaffold(graph) for graph in graphs()],
    "load_registry": lambda: load_registry(DATA_DIR / "scaffold_groups.csv"),
    "load_dataset": lambda: dataio.load_dataset(DATA_DIR / "additives24.csv"),
    "descriptors": lambda: [descriptors(graph) for graph in graphs()],
    "fingerprint": lambda: [fingerprint(graph, KEYSET) for graph in graphs()],
    "match_pattern": lambda: [
        match_pattern(graph, key) for graph in graphs() for key in KEYSET.keys
    ],
    "assemble": lambda: assemble(graphs(), ("K", "D"), keyset=KEYSET),
}


@pytest.mark.parametrize("name", sorted(MOLECULE_CALLS))
def test_molecule_entry_points(name):
    assert unreachable_after(MOLECULE_CALLS[name]) == 0


@pytest.mark.parametrize("command", ["featurize", "scaffold"])
def test_cli_main(command, tmp_path):
    argv = {
        "featurize": ["featurize", "--dataset", str(DATA_DIR / "additives24.csv"),
                      "--blocks", "K,D", "--out", str(tmp_path / "features.csv")],
        "scaffold": ["scaffold", "--dataset", str(DATA_DIR / "additives24.csv"),
                     "--registry", str(DATA_DIR / "scaffold_groups.csv"),
                     "--out", str(tmp_path / "scaffolds.csv")],
    }[command]
    assert unreachable_after(lambda: cli.main(argv)) == 0


def test_fit_tree():
    X, y = training_problem()
    assert unreachable_after(lambda: fit_tree(X, y, max_depth=4)) == 0


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fit_model_and_fit_models(kind):
    X, y = training_problem()
    config = TrainConfig(kind=kind, seed=1)
    rows = np.arange(len(y))
    problems = [(X[rows != i], y[rows != i]) for i in range(4)]
    assert unreachable_after(lambda: fit_model(X, y, config)) == 0
    assert unreachable_after(lambda: fit_models(problems, config, [11, 12, 13, 14])) == 0


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_repeated_eval(kind, dataset24, registry9):
    features = assemble(dataset24.graphs(), ("D",))
    groups = group_dataset(dataset24.graphs(), registry9)

    def evaluate():
        return repeated_eval(features, dataset24.targets(), SplitterSpec("msc"),
                             TrainConfig(kind=kind, seed=0), repeats=8, master_seed=5,
                             groups=groups)

    assert unreachable_after(evaluate) == 0


def test_run_funnel():
    assert unreachable_after(lambda: run_funnel(FunnelConfig.load(DEMO / "funnel.json"))) == 0
