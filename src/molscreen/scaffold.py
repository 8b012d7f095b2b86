"""Molecular scaffolds and the known/novel scaffold gate.

A scaffold is the ring systems of a molecule plus the linker atoms joining
them, with atoms double- or triple-bonded directly to that framework
retained. Acyclic molecules have the empty scaffold. The registry maps
canonical scaffold strings to numbered groups and backs the first screening
stage: molecules whose scaffold is not registered are flagged as novel.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .dataio import parse_number, read_molecules
from .molgraph import DOUBLE, TRIPLE, AtomSpec, MolecularGraph, RingInfo
from .molgraph.rings import two_core


class ScaffoldError(ValueError):
    pass


class DuplicateScaffold(ScaffoldError):
    pass


class NonFixedPointScaffold(ScaffoldError):
    pass


class UnparseableScaffold(ScaffoldError):
    pass


class NovelScaffoldInDataset(ScaffoldError):
    def __init__(self, index: int, smiles: str):
        self.index = index
        super().__init__(f"molecule {index} ({smiles}) has a novel scaffold")


@dataclass(frozen=True)
class Scaffold:
    """Canonical SMILES of the scaffold; empty string when acyclic."""

    canonical: str


@dataclass(frozen=True)
class GateResult:
    known: bool
    group_id: int | None
    scaffold: Scaffold


@dataclass(frozen=True)
class ScaffoldRegistry:
    entries: dict[str, int]  # canonical scaffold -> group id
    group_names: dict[int, str]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def group_count(self) -> int:
        return len(self.group_names)


def extract_scaffold(graph: MolecularGraph, *, memo: dict | None = None) -> Scaffold:
    """Prune side chains down to the ring-and-linker framework.

    The framework is the 2-core of the molecule (atoms with at most one
    neighbour are stripped until none is left, so what remains is the rings
    and the paths between them) plus the atoms double/triple-bonded directly
    to a retained atom (exocyclic carbonyls and the like). It is built with
    the parent's rings, renumbered, so no ring perception runs here.

    A molecule that is its own framework returns its own (cached) canonical
    string. ``memo``, when given, maps each renumbered framework to its
    canonical string, so a batch that passes one dict canonicalizes every
    distinct framework once; the caller owns it and its lifetime.
    """
    if not any(graph.rings.ring_membership):
        return Scaffold("")
    order = _kept_atoms(graph)
    if len(order) == len(graph.atoms):
        return Scaffold(graph.canonical)
    key = _framework_key(graph, order)
    canonical = memo.get(key) if memo is not None else None
    if canonical is None:
        canonical = _framework(graph, order, key).canonical
        if memo is not None:
            memo[key] = canonical
    return Scaffold(canonical)


def _kept_atoms(graph: MolecularGraph) -> list[int]:
    """Indices of the framework's atoms, ascending."""
    in_core = two_core(graph.neighbours)
    kept = {i for i, alive in enumerate(in_core) if alive}

    # Re-attach atoms multiply bonded straight onto the framework.
    for bond in graph.bonds:
        if bond.order not in (DOUBLE, TRIPLE):
            continue
        a_in, b_in = bond.a in kept, bond.b in kept
        if a_in != b_in:
            kept.add(bond.a if b_in else bond.b)
    return sorted(kept)


def _framework_key(graph: MolecularGraph, order: list[int]) -> tuple[tuple, tuple]:
    """Every input ``MolecularGraph.from_spec`` reads to build the framework:
    ``(element, aromatic, formal_charge, explicit_h)`` per kept atom in
    ``order``, and the bonds between kept atoms renumbered to match.

    Its rings are the parent's renumbered, which equal the SSSR perceived on
    these bonds, so the key determines the framework and its canonical
    string.
    """
    remap = {old: new for new, old in enumerate(order)}
    atoms = graph.atoms
    specs = tuple(
        (atoms[i].element, atoms[i].aromatic, atoms[i].formal_charge, atoms[i].explicit_h)
        for i in order
    )
    bonds = tuple(
        (remap[b.a], remap[b.b], b.order)
        for b in graph.bonds
        if b.a in remap and b.b in remap
    )
    return specs, bonds


def _framework(
    graph: MolecularGraph, order: list[int], key: tuple[tuple, tuple]
) -> MolecularGraph:
    # The framework holds every ring atom and ring bond, and ``order`` keeps
    # the parent's atom order, so its SSSR is the parent's renumbered: the
    # ring tuples stay normalized and sorted.
    specs, bonds = key
    remap = {old: new for new, old in enumerate(order)}
    parent = graph.rings
    rings = RingInfo(
        rings=tuple(tuple(remap[i] for i in ring) for ring in parent.rings),
        ring_membership=tuple(parent.ring_membership[i] for i in order),
        ring_edges=frozenset(
            frozenset(remap[i] for i in edge) for edge in parent.ring_edges
        ),
    )
    return MolecularGraph.from_spec(
        [AtomSpec(*spec) for spec in specs], list(bonds), rings=rings
    )


def classify(
    graph: MolecularGraph, registry: ScaffoldRegistry, *, memo: dict | None = None
) -> GateResult:
    """Gate one molecule on its scaffold; ``memo`` is as in
    :func:`extract_scaffold`."""
    scaffold = extract_scaffold(graph, memo=memo)
    group = registry.entries.get(scaffold.canonical)
    if group is None:
        return GateResult(known=False, group_id=None, scaffold=scaffold)
    return GateResult(known=True, group_id=group, scaffold=scaffold)


def group_dataset(
    molecules: list[MolecularGraph], registry: ScaffoldRegistry
) -> dict[int, list[int]]:
    """Partition molecule indices by scaffold group.

    Raises :class:`NovelScaffoldInDataset` naming the first offending index;
    the caller must extend the registry or drop the molecule.
    """
    groups: dict[int, list[int]] = {}
    memo: dict = {}
    for idx, graph in enumerate(molecules):
        result = classify(graph, registry, memo=memo)
        if not result.known:
            raise NovelScaffoldInDataset(idx, graph.source or result.scaffold.canonical)
        groups.setdefault(result.group_id, []).append(idx)
    return {gid: groups[gid] for gid in sorted(groups)}


def load_registry(path: str | Path) -> ScaffoldRegistry:
    """Load a scaffold registry from CSV (``scaffold_smiles,group_id,group_name``).

    Entries are canonicalized on load and must be Murcko fixed points; the
    empty string is a legal scaffold (the acyclic group). Group ids must be
    contiguous from 1.
    """
    entries: dict[str, int] = {}
    group_names: dict[int, str] = {}
    columns = ("scaffold_smiles", "group_id", "group_name")
    with read_molecules(path, columns, ScaffoldError, smiles="scaffold_smiles") as (_, rows):
        for row_no, row, graph in rows:
            raw = row["scaffold_smiles"]
            text = (row["group_id"] or "").strip()
            group_id = parse_number(text, int, f"row {row_no}: group_id", ScaffoldError)
            name = (row["group_name"] or "").strip()

            if raw == "":
                canon = ""
            elif isinstance(graph, str):
                raise UnparseableScaffold(f"row {row_no} ({raw!r}): {graph}")
            else:
                canon = graph.canonical
                fixed = extract_scaffold(graph).canonical
                if fixed != canon:
                    raise NonFixedPointScaffold(
                        f"row {row_no}: {raw!r} is not its own scaffold "
                        f"(reduces to {fixed!r})"
                    )
            if canon in entries:
                raise DuplicateScaffold(f"row {row_no}: duplicate scaffold {raw!r}")
            entries[canon] = group_id
            if group_id in group_names and group_names[group_id] != name:
                raise ScaffoldError(
                    f"row {row_no}: group {group_id} renamed to {name!r}"
                )
            group_names.setdefault(group_id, name)

    if not entries:
        raise ScaffoldError(f"registry {path} is empty")
    ids = sorted(group_names)
    if ids != list(range(1, len(ids) + 1)):
        raise ScaffoldError(f"group ids must be contiguous from 1, got {ids}")
    return ScaffoldRegistry(entries=entries, group_names=group_names)
