"""Structural-key fingerprints via exact small-pattern subgraph matching.

A pattern is a connected query graph of at most eight atoms whose nodes
constrain element and aromaticity (either may be a wildcard) and whose
edges constrain bond order (wildcard allowed). Matching counts distinct
embedded images, i.e. embeddings identified up to automorphism of the
pattern, with substructure semantics: pattern edges must be present in the
molecule, extra molecule bonds between matched atoms are irrelevant.

Keys are counted by shape. A key of one atom and no bonds has one image per
molecule atom whose (element, aromatic) label fits it; a key of two atoms
and one bond has one image per molecule bond whose end labels and order
fit it in either orientation. Both are read from label counts built once
per molecule. Every other key runs a backtracking search, skipped when the
molecule has fewer atoms fitting some atom spec than the pattern uses. Its
first atom is drawn from the atoms fitting the first pattern atom, and a
pattern atom whose shortest pattern cycle has length k may land only on a
ring atom whose ring system can hold a k-cycle. That is exact: the image of
a cycle is a cycle of the same length, and every edge of a cycle lies on
some ring of the SSSR, which is a cycle basis, so the image stays within
one ring system (rings joined by shared atoms); a system of one ring holds
no other cycle, and no system holds one longer than its atom count.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ..dataio import integer, json_value, read_json, string
from ..molgraph import MolecularGraph
from ..molgraph.model import BOND_ORDERS, VALENCES

MAX_PATTERN_ATOMS = 8

Label = tuple[str, bool]  # (element, aromatic) of a molecule atom
Spec = tuple[str | None, bool | None]  # (element, aromatic) of a pattern atom; None fits any


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
        n_atoms = len(self.atoms)
        if not n_atoms:
            raise PatternError(f"key {self.label!r} has no atoms")
        if n_atoms > MAX_PATTERN_ATOMS:
            raise PatternTooLarge(
                f"key {self.label!r} has {n_atoms} atoms (limit {MAX_PATTERN_ATOMS})"
            )
        if self.min_count < 1:
            raise PatternError(
                f"key {self.label!r} has min_count {self.min_count}; it must be at least 1"
            )
        for bond in self.bonds:
            if not (0 <= bond.a < n_atoms and 0 <= bond.b < n_atoms):
                raise PatternError(
                    f"key {self.label!r} has bond {bond.a}-{bond.b} outside its "
                    f"{n_atoms} atoms"
                )
            if bond.order is not None and bond.order not in BOND_ORDERS:
                raise PatternError(
                    f"key {self.label!r} has unknown bond order {bond.order!r}"
                )
        if not _connected(n_atoms, self.bonds):
            raise PatternError(f"key {self.label!r} is not connected")

    @cached_property
    def _count(self):
        """The counter of this key's images, by its shape: a key of one atom
        and no bonds, a key of two atoms and one bond (which, the key being
        connected, joins them), or any other key."""
        if len(self.atoms) == 1 and not self.bonds:
            return _atom_images
        if len(self.atoms) == 2 and len(self.bonds) == 1:
            return _bond_images
        return _searched_images

    @cached_property
    def _demand(self) -> tuple[tuple[Spec, int], ...]:
        """Each distinct atom spec (element, aromatic) with the number of
        pattern atoms carrying it: an image needs that many distinct
        molecule atoms fitting it."""
        need: dict[Spec, int] = {}
        for atom in self.atoms:
            spec = (atom.element, atom.aromatic)
            need[spec] = need.get(spec, 0) + 1
        return tuple(need.items())

    @cached_property
    def _plan(self) -> tuple[tuple[int, PatternAtom, int, tuple], ...]:
        """Per search depth: the pattern atom placed there, its spec, the
        length of the shortest pattern cycle through it (0 if none), and its
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
        cycle = _shortest_cycles(n_pat, self.bonds)
        return tuple(
            (
                p,
                self.atoms[p],
                cycle[p],
                tuple((nbr, want) for nbr, want in pat_adj[p] if depth_of[nbr] < depth),
            )
            for depth, p in enumerate(order)
        )


@dataclass(frozen=True)
class KeySet:
    keys: tuple[PatternKey, ...]

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def column_names(self) -> list[str]:
        return [key.label for key in self.keys]

    @cached_property
    def _by_shape(self) -> tuple[tuple[Callable, tuple[tuple[int, PatternKey], ...]], ...]:
        """The keys split by shape: per counter, the (bit position, key)
        pairs it counts. Compiled on first use."""
        return tuple(
            (count, tuple((pos, key) for pos, key in enumerate(self.keys) if key._count is count))
            for count in (_atom_images, _bond_images, _searched_images)
        )


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


def _shortest_cycles(n: int, bonds: tuple[PatternBond, ...]) -> list[int]:
    """Per pattern atom, the length of the shortest pattern cycle through
    it, 0 if it lies on none.

    Self-loops and repeated bonds close no cycle: an image maps each to at
    most one molecule bond. The shortest cycle through ``p`` and its
    neighbour ``q`` is the shortest path from ``q`` back to ``p`` that does
    not take the bond ``q-p``, closed by that bond.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for bond in bonds:
        if bond.a != bond.b:
            adj[bond.a].add(bond.b)
            adj[bond.b].add(bond.a)
    shortest = [0] * n
    for p in range(n):
        for q in adj[p]:
            dist = {q: 0}
            frontier = [q]
            while frontier and p not in dist:
                step = []
                for u in frontier:
                    for v in adj[u]:
                        if v not in dist and (u, v) != (q, p):
                            dist[v] = dist[u] + 1
                            step.append(v)
                frontier = step
            if p in dist and (not shortest[p] or dist[p] + 1 < shortest[p]):
                shortest[p] = dist[p] + 1
    return shortest


def load_keyset(path: str | Path) -> KeySet:
    """Load a key set from its JSON description.

    Order in the file is the bit order of every fingerprint computed with
    the set, permanently.
    """
    path = Path(path)
    return read_json(path, lambda raw: keyset_from_entries(raw, name=path.stem), PatternError)


def keyset_from_entries(raw: list[dict], name: str) -> KeySet:
    if not isinstance(raw, list):
        raise PatternError(f"key set {name!r} must be a list of keys, not {type(raw).__name__}")
    keys = []
    seen_ids: set[int] = set()
    seen_labels: set[str] = set()
    for pos, entry in enumerate(raw):
        key = _key_from_entry(entry, pos)
        if key.id in seen_ids:
            raise PatternError(f"duplicate key id {key.id}")
        if key.label in seen_labels:
            raise PatternError(f"duplicate key label {key.label!r}")
        seen_ids.add(key.id)
        seen_labels.add(key.label)
        keys.append(key)
    return KeySet(keys=tuple(keys))


def _key_from_entry(entry: dict, pos: int) -> PatternKey:
    """One key from its JSON object; ``pos`` names it while its label is
    unknown."""
    label = f"entry {pos}"

    def field(key: str, value, cast):
        return json_value(value, cast, f"key {label!r} field {key!r}", PatternError)

    try:
        key_id = field("id", entry["id"], integer)
        label = field("label", entry.get("label", f"key_{key_id}"), string)
        atoms = tuple(_atom_from_entry(a, label) for a in entry["atoms"])
        bonds = tuple(
            PatternBond(
                a=field("a", b["a"], integer),
                b=field("b", b["b"], integer),
                order=None if b.get("order", "*") == "*" else b["order"],
            )
            for b in entry.get("bonds", [])
        )
        min_count = field("min_count", entry.get("min_count", 1), integer)
    except PatternError:
        raise
    except KeyError as exc:
        raise PatternError(f"key {label!r} is missing {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise PatternError(f"key {label!r} is malformed: {exc}") from None
    return PatternKey(id=key_id, label=label, atoms=atoms, bonds=bonds, min_count=min_count)


def _atom_from_entry(entry: dict, label: str) -> PatternAtom:
    element = entry.get("element", "*")
    aromatic = entry.get("aromatic", "*")
    if element != "*" and element not in VALENCES:
        raise PatternError(f"key {label!r} has unknown element {element!r}")
    if aromatic != "*" and not isinstance(aromatic, bool):
        raise PatternError(f"key {label!r} has aromatic {aromatic!r}; use true, false or \"*\"")
    return PatternAtom(
        element=None if element == "*" else element,
        aromatic=None if aromatic == "*" else aromatic,
    )


class _Molecule:
    """What the key counters read of one molecule; each part is built on
    first use and kept for every later key."""

    def __init__(self, graph: MolecularGraph):
        self.graph = graph

    @cached_property
    def atoms_by_label(self) -> dict[Label, list[int]]:
        by_label: dict[Label, list[int]] = {}
        for idx, atom in enumerate(self.graph.atoms):
            by_label.setdefault((atom.element, atom.aromatic), []).append(idx)
        return by_label

    @cached_property
    def labels_fitting(self) -> dict[Spec, list[Label]]:
        """Per atom spec (element, aromatic), None for a wildcard, the
        molecule's labels that fit it."""
        fitting: dict[Spec, list[Label]] = {}
        for label in self.atoms_by_label:
            for spec in _specs_fitting(label):
                fitting.setdefault(spec, []).append(label)
        return fitting

    @cached_property
    def atom_counts(self) -> dict[Spec, int]:
        """Per atom spec, the number of atoms fitting it; absent if none."""
        counts: dict[Spec, int] = {}
        for label, idx in self.atoms_by_label.items():
            for spec in _specs_fitting(label):
                counts[spec] = counts.get(spec, 0) + len(idx)
        return counts

    @cached_property
    def bond_counts(self) -> dict[tuple[Label, Label, str | None], int]:
        """Count of bonds per (end label, end label, order), smaller end
        label first; order None counts the bonds of every order."""
        atoms = self.graph.atoms
        counts: dict[tuple[Label, Label, str | None], int] = {}
        for bond in self.graph.bonds:
            x, y = atoms[bond.a], atoms[bond.b]
            first, second = (x.element, x.aromatic), (y.element, y.aromatic)
            if second < first:
                first, second = second, first
            for label in ((first, second, bond.order), (first, second, None)):
                counts[label] = counts.get(label, 0) + 1
        return counts

    @cached_property
    def bond_orders(self) -> list[dict[int, str]]:
        """Per atom, the order of the bond to each neighbour."""
        return [{w: bond.order for w, bond in nbrs} for nbrs in self.graph.adjacency]

    @cached_property
    def cycle_room(self) -> list[tuple[int, int]]:
        """Per atom, the shortest and longest cycle through it that its ring
        system could hold (see the module notes); (0, 0) for an atom on no
        ring."""
        systems: list[tuple[set[int], int]] = []  # (atoms, number of rings)
        for ring in self.graph.rings.rings:
            atoms, n_rings = set(ring), 1
            apart = []
            for other, other_rings in systems:
                if atoms.isdisjoint(other):
                    apart.append((other, other_rings))
                else:
                    atoms |= other
                    n_rings += other_rings
            systems = apart + [(atoms, n_rings)]
        room = [(0, 0)] * len(self.graph.atoms)
        for atoms, n_rings in systems:
            span = (len(atoms), len(atoms)) if n_rings == 1 else (3, len(atoms))
            for g in atoms:
                room[g] = span
        return room


def _specs_fitting(label: Label) -> tuple[Spec, ...]:
    """The four atom specs an atom labelled ``label`` fits."""
    element, aromatic = label
    return ((element, aromatic), (element, None), (None, aromatic), (None, None))


def _atom_images(mol: _Molecule, key: PatternKey, limit: int | None = None) -> int:
    spec = key.atoms[0]
    return mol.atom_counts.get((spec.element, spec.aromatic), 0)


def _bond_images(mol: _Molecule, key: PatternKey, limit: int | None = None) -> int:
    first, second = key.atoms
    want = key.bonds[0].order
    xs = mol.labels_fitting.get((first.element, first.aromatic), ())
    ys = mol.labels_fitting.get((second.element, second.aromatic), ())
    counts = mol.bond_counts
    total = 0
    for x in xs:
        for y in ys:
            if x <= y:
                total += counts.get((x, y, want), 0)
            elif y not in xs or x not in ys:
                # Bonds labelled (y, x) unless the pair (y, x) is visited too:
                # a bond that fits both ways is one image.
                total += counts.get((y, x, want), 0)
    return total


def _searched_images(mol: _Molecule, pattern: PatternKey, limit: int | None = None) -> int:
    """Distinct images of ``pattern`` in the molecule, counted up to
    ``limit``: the search returns as soon as it has seen ``limit`` of them."""
    counts = mol.atom_counts
    for spec, need in pattern._demand:
        if counts.get(spec, 0) < need:
            return 0
    n_pat = len(pattern.atoms)
    plan = pattern._plan
    atoms = mol.graph.atoms
    bond_orders = mol.bond_orders
    room = mol.cycle_room
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
        p, spec, cycle, bonds_back = plan[depth]
        element, aromatic = spec.element, spec.aromatic
        if depth == 0:
            by_label = mol.atoms_by_label
            candidates = [
                g
                for label in mol.labels_fitting.get((element, aromatic), ())
                for g in by_label[label]
            ]
        else:
            candidates = bond_orders[image[bonds_back[0][0]]]
        for g in candidates:
            if g in used or (cycle and not room[g][0] <= cycle <= room[g][1]):
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


def match_pattern(graph: MolecularGraph, pattern: PatternKey) -> int:
    """Count distinct images of ``pattern`` in ``graph``.

    Exact; patterns are capped at :data:`MAX_PATTERN_ATOMS` atoms.
    """
    return pattern._count(_Molecule(graph), pattern)


def fingerprint(graph: MolecularGraph, keyset: KeySet) -> np.ndarray:
    """Bit vector over the key set: bit i is set when the occurrence count
    of key i reaches its ``min_count``."""
    bits = np.zeros(len(keyset.keys), dtype=np.uint8)
    mol = _Molecule(graph)
    for count, group in keyset._by_shape:
        for pos, key in group:
            if count(mol, key, key.min_count) >= key.min_count:
                bits[pos] = 1
    return bits
