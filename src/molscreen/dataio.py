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
Every JSON input goes through :func:`read_json` and the field types below,
which keep JSON's numbers apart from its strings and booleans (RFC 8259).
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

    A missing column, a row the csv module rejects or bytes that are not
    UTF-8 (which have no row: text decodes a block at a time) raise ``error``
    naming the file. Yields ``(header, rows)``; each row is ``(row_no, row,
    graph)`` with the header as row 1, the ``smiles`` cell stripped and
    ``graph`` the molecule or the parser's message. ``parsed`` maps spellings
    read earlier in the run to their result and takes the new ones.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(dropwhile(lambda line: line.startswith("#"), handle))
        try:
            header = reader.fieldnames or []
            missing = [c for c in columns if c not in header]
            if missing:
                raise error(f"{path} misses column(s) {', '.join(missing)}")
            yield header, _parsed_rows(reader, smiles, {} if parsed is None else parsed)
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise error(f"{path}: {exc}") from None


def _parsed_rows(reader, smiles: str, parsed: dict):
    row_no = 1
    try:
        for row_no, row in enumerate(reader, start=2):
            text = row[smiles] = (row.get(smiles) or "").strip()
            graph = parsed.get(text)
            if graph is None:
                try:
                    graph = parse_smiles(text)
                except MolGraphError as exc:
                    # The message, not the exception: its traceback would
                    # keep the parser's frames alive as long as ``parsed``.
                    graph = str(exc)
                parsed[text] = graph
            yield row_no, row, graph
    except csv.Error as exc:  # a quoted cell may span lines: count rows
        raise csv.Error(f"row {row_no + 1}: {exc}") from None


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
    """Load a molecule dataset (CSV ``smiles,pce``; other columns are ignored).

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
                raise DataError(f"row {row_no} ({smiles!r}): {graph}")
            check_unique(seen, graph, row_no, smiles)
            pce = 0.0
            text = (row.get("pce") or "").strip()
            if text:
                pce = parse_number(text, float, f"row {row_no}: pce", InvalidPce)
                if not (0.0 < pce < 100.0):
                    raise InvalidPce(f"row {row_no}: pce {pce} outside (0, 100)")
            elif require_pce:
                raise InvalidPce(f"row {row_no}: missing pce value")
            records.append(
                DatasetRecord(smiles=smiles, canonical=graph.canonical, graph=graph, pce=pce)
            )
    return Dataset(records=tuple(records))


def read_json(path: str | Path, read, error: type[Exception]):
    """:func:`json_value` of ``read`` on the JSON value in ``path``; bytes
    that are not UTF-8, bad JSON or JSON nested deeper than ``json`` reads
    raise ``error`` naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except ValueError as exc:  # UnicodeDecodeError is one
        raise error(f"{path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{path}: JSON nested too deeply to read") from None
    return json_value(data, read, str(path), error)


def read_json_object(path: str | Path, read, error: type[Exception]):
    """:func:`read_json` of a file that must hold a JSON object."""
    return read_json(path, lambda data: read(json_object(data)), error)


def json_value(value, cast, what: str, error: type[Exception]):
    """``cast(value)``; a failure of ``cast`` raises ``error`` after ``what``."""
    try:
        return cast(value)
    except (error, AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what}: {exc}") from None


def json_field(data, key: str, cast, error: type[Exception]):
    """:func:`json_value` of ``data[key]``; a non-object ``data`` or a
    missing ``key`` raises ``error`` naming ``key``."""
    if not isinstance(data, dict):
        raise error(f"expected a JSON object with field {key!r}, got {type(data).__name__}")
    if key not in data:
        raise error(f"missing field {key!r}")
    return json_value(data[key], cast, f"field {key!r}", error)


def check_format_version(data, what: str, error: type[Exception]) -> None:
    """Raise ``error`` naming the field unless ``data``'s ``format_version``
    is the integer :data:`FORMAT_VERSION` (so ``true`` and ``"1"`` fail)."""

    def check(value):
        version = integer(value)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported {what} format version {version!r}")

    json_field(data, "format_version", check, error)


def _typed(value, ok: bool, kind: str):
    if not ok:
        got = type(value).__name__ if isinstance(value, (list, dict)) else repr(value)
        raise TypeError(f"expected {kind}, got {got}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_object(value) -> dict:
    return _typed(value, isinstance(value, dict), "a JSON object")


def string(value) -> str:
    return _typed(value, isinstance(value, str), "a string")


def strings(value) -> list[str]:
    for item in _typed(value, isinstance(value, list), "a list of strings"):
        _typed(item, isinstance(item, str), "a string in the list")
    return value


def boolean(value) -> bool:
    return _typed(value, isinstance(value, bool), "true or false")


def integer(value) -> int:
    """An integer; a float with no fraction, such as ``2.0``, counts."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return _typed(value, isinstance(value, int) and not isinstance(value, bool), "an integer")


def number(value) -> float:
    """A number as a float; ``Infinity`` is one, ``NaN`` is not."""
    return float(_typed(value, _is_number(value) and value == value, "a number"))


def finite_float(value) -> float:
    """:func:`number` without the infinities (ValueError)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return number(value)


def finite_floats(value) -> np.ndarray:
    """A list of :func:`finite_float` numbers as a float array."""
    for item in _typed(value, isinstance(value, list), "a list of numbers"):
        _typed(item, _is_number(item), "a number in the list")
    values = np.array(value, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("holds a non-finite number")
    return values


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
