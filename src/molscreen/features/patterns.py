"""Structural-key fingerprints via exact small-pattern subgraph matching.

A pattern is a connected query graph of at most eight atoms whose nodes
constrain element and aromaticity (either may be a wildcard) and whose
edges constrain bond order (wildcard allowed). Matching counts distinct
embedded images, i.e. embeddings identified up to automorphism of the
pattern, with substructure semantics: pattern edges must be present in the
molecule, extra molecule bonds between matched atoms are irrelevant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ..molgraph import MolecularGraph
from ..molgraph.model import BOND_ORDERS

MAX_PATTERN_ATOMS = 8


class PatternError(ValueError):
    pass


class PatternTooLarge(PatternError):
    pass


@dataclass(frozen=True)
class PatternAtom:
    element: str | None = None  # None matches any element
    aromatic: bool | None = None  # None matches either


@dataclass(frozen=True)
class PatternBond:
    a: int
    b: int
    order: str | None = None  # None matches any order


@dataclass(frozen=True)
class PatternKey:
    id: int
    label: str
    atoms: tuple[PatternAtom, ...]
    bonds: tuple[PatternBond, ...]
    min_count: int = 1

    def __post_init__(self):
        if not self.atoms:
            raise PatternError(f"key {self.label!r} has no atoms")
        if not _connected(len(self.atoms), self.bonds):
            raise PatternError(f"key {self.label!r} is not connected")
        for bond in self.bonds:
            if bond.order is not None and bond.order not in BOND_ORDERS:
                raise PatternError(
                    f"key {self.label!r} has unknown bond order {bond.order!r}"
                )

    @cached_property
    def _plan(self) -> tuple[tuple[int, PatternAtom, tuple], ...]:
        """Per search depth: the pattern atom placed there, its spec, and its
        bonds (neighbour, order) back to atoms placed earlier.

        Atoms are visited breadth-first from atom 0, so every atom after the
        first has a placed neighbour; the first back bond is that anchor,
        whose image's neighbours are the candidates.
        """
        n_pat = len(self.atoms)
        pat_adj: list[list[tuple[int, str | None]]] = [[] for _ in range(n_pat)]
        for bond in self.bonds:
            pat_adj[bond.a].append((bond.b, bond.order))
            pat_adj[bond.b].append((bond.a, bond.order))
        order: list[int] = [0]
        seen = {0}
        cursor = 0
        while cursor < len(order):
            for nbr, _ in pat_adj[order[cursor]]:
                if nbr not in seen:
                    seen.add(nbr)
                    order.append(nbr)
            cursor += 1
        depth_of = {p: depth for depth, p in enumerate(order)}
        return tuple(
            (
                p,
                self.atoms[p],
                tuple((nbr, want) for nbr, want in pat_adj[p] if depth_of[nbr] < depth),
            )
            for depth, p in enumerate(order)
        )


@dataclass(frozen=True)
class KeySet:
    name: str
    keys: tuple[PatternKey, ...]

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def column_names(self) -> list[str]:
        return [key.label for key in self.keys]


def _connected(n: int, bonds: tuple[PatternBond, ...]) -> bool:
    if n == 1:
        return True
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for bond in bonds:
        adj[bond.a].add(bond.b)
        adj[bond.b].add(bond.a)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def load_keyset(path: str | Path, name: str | None = None) -> KeySet:
    """Load a key set from its JSON description.

    Order in the file is the bit order of every fingerprint computed with
    the set, permanently.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        raw = json.load(handle)
    return keyset_from_entries(raw, name=name or path.stem)


def keyset_from_entries(raw: list[dict], name: str) -> KeySet:
    keys = []
    seen_ids: set[int] = set()
    seen_labels: set[str] = set()
    for entry in raw:
        key_id = int(entry["id"])
        label = str(entry.get("label", f"key_{key_id}"))
        if key_id in seen_ids:
            raise PatternError(f"duplicate key id {key_id}")
        if label in seen_labels:
            raise PatternError(f"duplicate key label {label!r}")
        seen_ids.add(key_id)
        seen_labels.add(label)
        atoms = tuple(
            PatternAtom(
                element=None if a.get("element", "*") == "*" else a["element"],
                aromatic=None if a.get("aromatic", "*") == "*" else bool(a["aromatic"]),
            )
            for a in entry["atoms"]
        )
        bonds = tuple(
            PatternBond(
                a=int(b["a"]),
                b=int(b["b"]),
                order=None if b.get("order", "*") == "*" else b["order"],
            )
            for b in entry.get("bonds", [])
        )
        keys.append(
            PatternKey(
                id=key_id,
                label=label,
                atoms=atoms,
                bonds=bonds,
                min_count=int(entry.get("min_count", 1)),
            )
        )
    return KeySet(name=name, keys=tuple(keys))


def match_pattern(graph: MolecularGraph, pattern: PatternKey) -> int:
    """Count distinct images of ``pattern`` in ``graph``.

    Exact backtracking search; patterns are capped at
    :data:`MAX_PATTERN_ATOMS` atoms.
    """
    return _count_images(graph, _bond_orders(graph), pattern)


def _bond_orders(graph: MolecularGraph) -> list[dict[int, str]]:
    """Per atom, the order of the bond to each neighbour."""
    return [{w: bond.order for w, bond in nbrs} for nbrs in graph.adjacency]


def _count_images(
    graph: MolecularGraph,
    bond_orders: list[dict[int, str]],
    pattern: PatternKey,
    limit: int | None = None,
) -> int:
    """Distinct images of ``pattern`` in ``graph``, counted up to ``limit``:
    the search returns as soon as it has seen ``limit`` of them."""
    n_pat = len(pattern.atoms)
    if n_pat > MAX_PATTERN_ATOMS:
        raise PatternTooLarge(
            f"pattern {pattern.label!r} has {n_pat} atoms (limit {MAX_PATTERN_ATOMS})"
        )
    plan = pattern._plan
    atoms = graph.atoms
    images: set[tuple[frozenset[int], frozenset[frozenset[int]]]] = set()
    image = [0] * n_pat  # molecule atom of each placed pattern atom
    used: set[int] = set()

    def extend(depth: int) -> bool:
        """Place pattern atoms from ``depth`` on; True once ``limit`` images
        are found."""
        if depth == n_pat:
            edge_image = frozenset(
                frozenset((image[b.a], image[b.b])) for b in pattern.bonds
            )
            images.add((frozenset(image), edge_image))
            return limit is not None and len(images) >= limit
        p, spec, bonds_back = plan[depth]
        element, aromatic = spec.element, spec.aromatic
        if depth == 0:
            candidates = range(len(atoms))
        else:
            candidates = bond_orders[image[bonds_back[0][0]]]
        for g in candidates:
            if g in used:
                continue
            atom = atoms[g]
            if (element is not None and atom.element != element) or (
                aromatic is not None and atom.aromatic != aromatic
            ):
                continue
            orders = bond_orders[g]
            for nbr, want in bonds_back:
                got = orders.get(image[nbr])
                if got is None or (want is not None and got != want):
                    break
            else:
                image[p] = g
                used.add(g)
                done = extend(depth + 1)
                used.discard(g)
                if done:
                    return True
        return False

    extend(0)
    return len(images)


def fingerprint(graph: MolecularGraph, keyset: KeySet) -> np.ndarray:
    """Bit vector over the key set: bit i is set when the occurrence count
    of key i reaches its ``min_count``."""
    bits = np.zeros(len(keyset.keys), dtype=np.uint8)
    bond_orders = _bond_orders(graph)
    for pos, key in enumerate(keyset.keys):
        if _count_images(graph, bond_orders, key, key.min_count) >= key.min_count:
            bits[pos] = 1
    return bits
