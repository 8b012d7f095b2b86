"""Dataset ingestion and artifact writing.

All file formats are plain CSV/JSON, UTF-8, LF line endings, '.' decimals,
headers mandatory. This module owns the artifact envelope: a JSON artifact
carries its run configuration as ``run_config`` and the one
:data:`FORMAT_VERSION` as ``format_version`` (:func:`write_json_artifact`),
a CSV artifact its run configuration as a single leading ``#`` comment line
above the header (:func:`config_comment`). Writes are atomic (temp file +
rename).

Every molecule CSV the package reads goes through :func:`read_molecules`,
which skips leading ``#`` lines, so a CSV artifact reads back as input. Its
callers only decide what an unparseable row does: raise, drop, or warn.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import dropwhile
from pathlib import Path

import numpy as np

from .molgraph import MolGraphError, MolecularGraph, parse_smiles

FORMAT_VERSION = 1


class DataError(ValueError):
    pass


class DuplicateMolecule(DataError):
    pass


class InvalidPce(DataError):
    pass


@dataclass(frozen=True)
class DatasetRecord:
    smiles: str
    canonical: str
    graph: MolecularGraph
    pce: float
    doi: str | None = None


@dataclass(frozen=True)
class Dataset:
    records: tuple[DatasetRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def graphs(self) -> list[MolecularGraph]:
        return [r.graph for r in self.records]

    def targets(self) -> np.ndarray:
        return np.array([r.pce for r in self.records], dtype=np.float64)


@contextmanager
def read_molecules(
    path: str | Path,
    columns: tuple[str, ...] = ("smiles",),
    error: type[Exception] = DataError,
    smiles: str = "smiles",
    parsed: dict[str, MolecularGraph | str] | None = None,
):
    """Open a molecule CSV, skip its leading ``#`` lines, check ``columns``.

    A missing column raises ``error`` naming the file. Yields ``(header,
    rows)``; each row is ``(row_no, row, graph)`` with the header as row 1,
    the ``smiles`` cell stripped and ``graph`` the molecule or the parser's
    message. ``parsed`` maps spellings read earlier in the run to their
    result and takes the new ones, so a shared spelling is parsed once.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(dropwhile(lambda line: line.startswith("#"), handle))
        header = reader.fieldnames or []
        missing = [c for c in columns if c not in header]
        if missing:
            raise error(f"{path} misses column(s) {', '.join(missing)}")
        yield header, _parsed_rows(reader, smiles, {} if parsed is None else parsed)


def _parsed_rows(reader, smiles: str, parsed: dict):
    for row_no, row in enumerate(reader, start=2):
        text = row[smiles] = (row.get(smiles) or "").strip()
        graph = parsed.get(text)
        if graph is None:
            try:
                graph = parse_smiles(text)
            except MolGraphError as exc:
                # The message, not the exception: its traceback would keep
                # the parser's frames alive for as long as ``parsed`` lives.
                graph = str(exc)
            parsed[text] = graph
        yield row_no, row, graph


def parse_number(text: str, cast, what: str, error: type[Exception]):
    """``cast(text)``; a cell that is no such number, or a NaN or infinite
    float, raises ``error`` with ``what`` (the row and column) in its
    message."""
    try:
        value = cast(text)
    except ValueError:
        raise error(f"{what}: {text!r} is not a valid {cast.__name__}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise error(f"{what}: {text!r} is not a finite number")
    return value


def check_unique(seen: dict[str, int], graph: MolecularGraph, row_no: int, smiles: str) -> None:
    """Record that row ``row_no`` holds ``graph``; a molecule that ``seen``
    already holds from an earlier row raises :class:`DuplicateMolecule`
    naming both rows."""
    first = seen.setdefault(graph.canonical, row_no)
    if first != row_no:
        raise DuplicateMolecule(f"row {row_no}: duplicate of row {first} ({smiles!r})")


def load_dataset(path: str | Path, require_pce: bool = True) -> Dataset:
    """Load a molecule dataset (CSV ``smiles,pce[,doi]``).

    Efficiencies must lie in (0, 100); duplicate canonical structures are
    rejected with :class:`DuplicateMolecule`.
    """
    records: list[DatasetRecord] = []
    seen: dict[str, int] = {}
    columns = ("smiles", "pce") if require_pce else ("smiles",)
    with read_molecules(path, columns) as (_, rows):
        for row_no, row, graph in rows:
            smiles = row["smiles"]
            if isinstance(graph, str):
                raise DataError(f"row {row_no}: {smiles!r}: {graph}")
            check_unique(seen, graph, row_no, smiles)
            pce = 0.0
            text = (row.get("pce") or "").strip()
            if text:
                pce = parse_number(text, float, f"row {row_no}: pce", InvalidPce)
                if not (0.0 < pce < 100.0):
                    raise InvalidPce(f"row {row_no}: pce {pce} outside (0, 100)")
            elif require_pce:
                raise InvalidPce(f"row {row_no}: missing pce value")
            doi = (row.get("doi") or "").strip() or None
            records.append(
                DatasetRecord(
                    smiles=smiles, canonical=graph.canonical, graph=graph, pce=pce, doi=doi
                )
            )
    return Dataset(records=tuple(records))


def read_json_object(path: str | Path, read, error: type[Exception]):
    """``read`` of the JSON object in ``path``; bad JSON, another JSON value
    or an ``error`` from ``read`` raises ``error`` naming the file first."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except ValueError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise error(f"{path}: expected a JSON object, got {type(data).__name__}")
    try:
        return read(data)
    except error as exc:
        raise error(f"{path}: {exc}") from None


def json_field(data, key: str, cast, error: type[Exception]):
    """``cast(data[key])``; a non-object ``data``, a missing ``key`` or an
    AttributeError, TypeError, ValueError or OverflowError of ``cast``
    (``error`` too, so nested reads name their path) raises ``error``
    naming ``key``."""
    if not isinstance(data, dict):
        raise error(f"expected a JSON object with field {key!r}, got {type(data).__name__}")
    if key not in data:
        raise error(f"missing field {key!r}")
    try:
        return cast(data[key])
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise error(f"field {key!r}: {exc}") from None


def finite_float(value) -> float:
    """``float(value)``; NaN or an infinity, which ``json`` reads from
    ``NaN`` and ``Infinity``, raises ValueError."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def config_comment(run_config: dict) -> str:
    """The ``#`` line that heads a CSV artifact: its run configuration."""
    return "# " + json.dumps(run_config, sort_keys=True) + "\n"


def write_json_artifact(path: str | Path, payload: dict, run_config: dict) -> None:
    """Write ``payload`` with its ``run_config`` and ``format_version``
    atomically to ``path``."""
    envelope = {"run_config": run_config, "format_version": FORMAT_VERSION}
    atomic_write_text(path, dump_json({**payload, **envelope}))


def matrix_csv_text(matrix, run_config: dict) -> str:
    """Feature matrix as CSV with block-tagged header and a config comment.

    Column names come from outside (latent and fingerprint tables), so the
    header goes through the csv module, which quotes a name holding a comma
    or quote. Row fields need no quoting: ids are canonical SMILES and
    values are float reprs (the shortest text that reads back as the same
    float), neither of which holds a comma, quote or line break. Joining
    them spares the csv writer's per-field cost, which made this function
    about 30 % slower on a 222 x 88 matrix.
    """
    out = io.StringIO()
    out.write(config_comment(run_config))
    csv.writer(out, lineterminator="\n").writerow(["smiles"] + matrix.tagged_names)
    for row_id, row in zip(matrix.ids, matrix.values):
        out.write(",".join([row_id] + [repr(float(v)) for v in row]) + "\n")
    return out.getvalue()
