"""Feature matrix assembly from key, descriptor and latent blocks."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..dataio import read_molecules
from ..molgraph import MolecularGraph
from .descriptors import DESCRIPTOR_NAMES, descriptors
from .patterns import KeySet, fingerprint

BLOCK_ORDER = ("K", "D", "Z")


class FeatureError(ValueError):
    pass


class DimensionMismatch(FeatureError):
    pass


class UnparseableSMILES(FeatureError):
    pass


class DuplicateKey(FeatureError):
    pass


class MissingLatent(FeatureError):
    pass


@dataclass(frozen=True)
class FeatureMatrix:
    """Real matrix with named, block-tagged columns and molecule-id rows."""

    ids: tuple[str, ...]
    blocks: tuple[str, ...]  # per-column block tag, parallel to names
    names: tuple[str, ...]
    values: np.ndarray  # shape (len(ids), len(names))

    def __post_init__(self):
        if self.values.shape != (len(self.ids), len(self.names)):
            raise FeatureError("matrix shape does not match row/column labels")
        if len(set(self.names)) != len(self.names):
            raise FeatureError("duplicate column names")
        if len(self.blocks) != len(self.names):
            raise FeatureError("block tags do not align with columns")
        bad = ~np.isfinite(self.values)
        if bad.any():
            row, column = np.argwhere(bad)[0]
            raise FeatureError(
                f"matrix contains non-finite cells; first at row {self.ids[row]!r}, "
                f"column {self.tagged_names[column]!r}"
            )

    @property
    def tagged_names(self) -> list[str]:
        return [f"{b}:{n}" for b, n in zip(self.blocks, self.names)]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]

    def rows(self, indices) -> "FeatureMatrix":
        idx = list(indices)
        return FeatureMatrix(
            ids=tuple(self.ids[i] for i in idx),
            blocks=self.blocks,
            names=self.names,
            values=self.values[idx, :],
        )

    def select_columns(self, names: list[str]) -> "FeatureMatrix":
        position = {name: pos for pos, name in enumerate(self.names)}
        try:
            positions = [position[name] for name in names]
        except KeyError as exc:
            raise FeatureError(f"no such column {exc.args[0]!r}") from None
        return FeatureMatrix(
            ids=self.ids,
            blocks=tuple(self.blocks[p] for p in positions),
            names=tuple(self.names[p] for p in positions),
            values=self.values[:, positions],
        )


@dataclass(frozen=True)
class LatentTable:
    """Ingested latent vectors keyed by canonical SMILES."""

    dimension: int
    vectors: dict[str, np.ndarray]
    column_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.vectors)


def load_latents(path: str | Path) -> LatentTable:
    """Read a latent-vector table (CSV header ``smiles,z1,...,zd``).

    The dimension is whatever the header declares; keys are canonicalized
    on load. An empty file yields an empty table.
    """
    vectors: dict[str, np.ndarray] = {}
    with read_molecules(path, ()) as (header, rows):
        if not header:
            return LatentTable(dimension=0, vectors={}, column_names=())
        if header[0] != "smiles":
            raise FeatureError(f"latent file {path} must start with a 'smiles' column")
        names = tuple(header[1:])
        for row_no, row, graph in rows:
            # Cells beyond the header land under None, missing ones read None.
            values = [row[n] for n in names if row[n] is not None] + row.get(None, [])
            if len(values) != len(names):
                raise DimensionMismatch(
                    f"row {row_no}: expected {len(names)} values, got {len(values)}"
                )
            if isinstance(graph, str):
                raise UnparseableSMILES(f"row {row_no}: {row['smiles']!r}: {graph}")
            if graph.canonical in vectors:
                raise DuplicateKey(f"row {row_no}: duplicate molecule {row['smiles']!r}")
            vectors[graph.canonical] = np.array([float(v) for v in values], dtype=np.float64)
    return LatentTable(dimension=len(names), vectors=vectors, column_names=names)


def assemble(
    molecules: list[MolecularGraph],
    blocks,
    keyset: KeySet | None = None,
    latents: LatentTable | None = None,
    external_k: LatentTable | None = None,
) -> FeatureMatrix:
    """Build the feature matrix for a molecule list.

    Column order is K block, then D, then Z. Requesting Z requires every
    molecule to be present in the latent table (:class:`MissingLatent`
    otherwise); requesting K uses the external fingerprint table when one
    is supplied, else computes fingerprints from ``keyset``. A column name
    read from a table that already carries the block's tag (a matrix this
    function wrote) loses that tag, so the matrix reads back unchanged.
    """
    blocks = set(blocks)
    unknown = blocks - set(BLOCK_ORDER)
    if unknown:
        raise FeatureError(f"unknown feature blocks {sorted(unknown)}")
    if not blocks:
        raise FeatureError("no feature blocks requested")
    if "K" in blocks and keyset is None and external_k is None:
        raise FeatureError("K block requested without a key set")
    if "Z" in blocks and latents is None:
        raise FeatureError("Z block requested without a latent table")

    ids = [g.canonical for g in molecules]
    if len(set(ids)) != len(ids):
        raise FeatureError("duplicate molecules in feature assembly")

    columns: list[tuple[str, str]] = []
    parts: list[np.ndarray] = []

    if "K" in blocks:
        if external_k is not None:
            block = _lookup_block(ids, external_k, "external fingerprint")
            names = _untagged(external_k.column_names, "K")
        else:
            names = tuple(keyset.column_names)
            block = _stack([fingerprint(g, keyset).astype(np.float64) for g in molecules],
                           len(names))
        columns.extend(("K", n) for n in names)
        parts.append(block)
    if "D" in blocks:
        block = _stack([descriptors(g) for g in molecules], len(DESCRIPTOR_NAMES))
        columns.extend(("D", n) for n in DESCRIPTOR_NAMES)
        parts.append(block)
    if "Z" in blocks:
        block = _lookup_block(ids, latents, "latent")
        columns.extend(("Z", n) for n in _untagged(latents.column_names, "Z"))
        parts.append(block)

    values = np.concatenate(parts, axis=1) if parts else np.zeros((len(ids), 0))
    return FeatureMatrix(
        ids=tuple(ids),
        blocks=tuple(b for b, _ in columns),
        names=tuple(n for _, n in columns),
        values=values,
    )


def _untagged(names: tuple[str, ...], block: str) -> tuple[str, ...]:
    return tuple(n.removeprefix(f"{block}:") for n in names)


def _stack(rows: list[np.ndarray], width: int) -> np.ndarray:
    """Rows as a matrix; ``(0, width)`` when there are none."""
    if rows:
        return np.stack(rows)
    return np.zeros((0, width))


def _lookup_block(ids: list[str], table: LatentTable, what: str) -> np.ndarray:
    rows = []
    for canon in ids:
        vec = table.vectors.get(canon)
        if vec is None:
            raise MissingLatent(f"no {what} vector for molecule {canon!r}")
        rows.append(vec)
    return _stack(rows, table.dimension)
