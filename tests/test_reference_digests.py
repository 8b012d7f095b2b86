"""The reference artifacts, pinned by digest.

Every command below runs in process, in a temporary directory that holds
copies of the bundled data and the demo at their paths in the repository,
and writes to fixed relative paths there: ``evaluate`` and ``train`` echo
their input and output paths into their artifacts, so only fixed paths
give fixed bytes. Each output's sha256 must equal the one in
``reference/digests.json``. SVR outputs are hashed after rounding every
number to ten significant digits, as ``bench/checks.py`` rounds: the SVR
kernel goes through BLAS, which may round differently on another CPU.
Every other output is hashed byte for byte.

A change whose outputs are meant to change re-records the file with

    PYTHONPATH=src python tests/test_reference_digests.py

and names every digest that changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from molscreen import cli

REPO = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "reference" / "digests.json"
DATASET = "src/molscreen/data/additives24.csv"
REGISTRY = "src/molscreen/data/scaffold_groups.csv"


def _evaluate(kind, splitter, *options):
    name = "-".join(("evaluate", kind, splitter, *(o.replace(",", "") for o in options[1::2])))
    argv = ["evaluate", "--dataset", DATASET, "--registry", REGISTRY, "--model", kind,
            "--splitter", splitter, "--repeats", "200", "--seed", "5",
            "--out-json", f"{name}.json", "--out-text", f"{name}.txt", *options]
    return name, argv, (f"{name}.json", f"{name}.txt")


def _train(kind):
    name = f"train-{kind}"
    argv = ["train", "--dataset", DATASET, "--model", kind, "--seed", "7",
            "--out", f"{name}-model.json", "--pipeline-out", f"{name}-pipeline.json"]
    return name, argv, (f"{name}-model.json", f"{name}-pipeline.json")


# (name, argv, outputs) per command, in the order they run.
COMMANDS = [
    *(_evaluate(kind, splitter) for kind in ("gb", "rf", "svr")
      for splitter in ("msc", "random", "logo")),
    *(_evaluate(kind, "msc", "--blocks", "K,D") for kind in ("gb", "rf")),
    *(_train(kind) for kind in ("gb", "rf", "svr")),
    ("featurize", ["featurize", "--dataset", DATASET, "--blocks", "K,D",
                   "--out", "features.csv"], ("features.csv",)),
    ("scaffold", ["scaffold", "--dataset", DATASET, "--registry", REGISTRY,
                  "--out", "scaffolds.csv"], ("scaffolds.csv",)),
    ("screen", ["screen", "--funnel", "demo/funnel.json", "--out-json", "report.json",
                "--out-text", "report.txt"], ("report.json", "report.txt")),
]

_NUMBER = re.compile(r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")


def _round(value):
    """``value`` with every float at ten significant digits."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, list):
        return [_round(v) for v in value]
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    return value


def digest(name: str, path: Path) -> str:
    """The sha256 of an output: of its bytes, or for an SVR output of its
    numbers rounded to ten significant digits (a JSON file re-dumped, a
    text file with each decimal number rewritten)."""
    data = path.read_bytes()
    if "svr" in name:
        if path.suffix == ".json":
            data = json.dumps(_round(json.loads(data)), sort_keys=True).encode()
        else:
            data = _NUMBER.sub(lambda m: f"{float(m.group()):.10g}", data.decode()).encode()
    return hashlib.sha256(data).hexdigest()


def run(name: str, argv: list[str], outputs, workdir: Path) -> dict[str, str]:
    """Run one command in ``workdir`` and digest its outputs."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        code = cli.main(argv)
    finally:
        os.chdir(here)
    assert code == 0, f"{name} exited {code}"
    return {output: digest(name, workdir / output) for output in outputs}


def make_workdir(root: Path) -> Path:
    """``root`` with the bundled data and the demo copied in."""
    shutil.copytree(REPO / "src" / "molscreen" / "data", root / "src" / "molscreen" / "data")
    shutil.copytree(REPO / "demo", root / "demo",
                    ignore=shutil.ignore_patterns("report.*"))
    return root


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return make_workdir(tmp_path_factory.mktemp("reference"))


@pytest.fixture(scope="module")
def expected():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, argv, outputs", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_outputs_match_the_reference_digests(name, argv, outputs, workdir, expected):
    assert run(name, argv, outputs, workdir) == expected[name]


def test_every_reference_digest_has_a_command(expected):
    assert sorted(expected) == sorted(name for name, _, _ in COMMANDS)


def record() -> None:
    with tempfile.TemporaryDirectory() as root:
        workdir = make_workdir(Path(root))
        digests = {name: run(name, argv, outputs, workdir) for name, argv, outputs in COMMANDS}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} commands' digests to {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    record()
