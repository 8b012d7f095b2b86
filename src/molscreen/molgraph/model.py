"""Core molecular graph types and structural validation.

A molecule is an immutable attributed graph: atoms carry element, aromatic
flag, formal charge and a resolved hydrogen count; bonds carry an order.
Ring perception runs at construction time, so every published graph already
knows its smallest-set-of-smallest-rings and per-atom ring membership. A
scaffold framework keeps every ring atom and ring bond of its parent and
numbers its atoms in the parent's order, so it is built with the parent's
rings, renumbered, instead of perceiving them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import rings as _rings
from .rings import RingInfo

SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"

BOND_ORDERS = (SINGLE, DOUBLE, TRIPLE, AROMATIC)

#: Numeric valence contribution of each bond order. Aromatic bonds count 1;
#: aromatic atoms additionally reserve one unit for the ring pi system.
ORDER_VALUE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 1}

#: Allowed valences per supported element, smallest first. K is included so
#: that potassium salts common in the additive literature remain parseable.
VALENCES: dict[str, tuple[int, ...]] = {
    "B": (3,),
    "C": (4,),
    "N": (3, 5),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
    "H": (1,),
    "Se": (2, 4, 6),
    "Si": (4,),
    "K": (1,),
}

#: Elements writable without brackets when uncharged with default hydrogens.
ORGANIC_SUBSET = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}

#: Elements that may carry the aromatic flag.
AROMATIC_ELEMENTS = {"B", "C", "N", "O", "P", "S", "Se", "Si"}


class MolGraphError(ValueError):
    """Base class for molecular graph construction failures."""


class SmilesParseError(MolGraphError):
    """Parse or validation failure, annotated with a byte offset."""

    def __init__(self, message: str, offset: int = -1):
        self.offset = offset
        if offset >= 0:
            message = f"{message} (offset {offset})"
        super().__init__(message)


class EmptyInput(SmilesParseError):
    pass


class UnknownElement(SmilesParseError):
    pass


class UnbalancedParenthesis(SmilesParseError):
    pass


class UnclosedRingBond(SmilesParseError):
    pass


class ValenceViolation(SmilesParseError):
    pass


class AromaticityViolation(SmilesParseError):
    pass


class SmilesSyntaxError(SmilesParseError):
    pass


class AtomSpec(NamedTuple):
    """Raw atom attributes as read from input, before derivation."""

    element: str
    aromatic: bool = False
    formal_charge: int = 0
    explicit_h: int | None = None  # None for non-bracket atoms
    offset: int = -1


class Atom(NamedTuple):
    element: str
    aromatic: bool
    formal_charge: int
    explicit_h: int | None
    hydrogens: int  # resolved total hydrogen count
    degree: int  # heavy-neighbour count
    offset: int = -1


class Bond(NamedTuple):
    a: int
    b: int
    order: str

    def key(self) -> frozenset[int]:
        return frozenset((self.a, self.b))


@dataclass(frozen=True)
class MolecularGraph:
    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    rings: RingInfo
    #: Each atom's neighbours in increasing atom order, built once by the
    #: assembly pass and shared by ring perception, ``adjacency``,
    #: ``components``, the canonicalizer and scaffold extraction.
    neighbours: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    source: str = ""

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, Bond], ...], ...]:
        """Each atom's ``(neighbour, bond)`` pairs in increasing neighbour
        order."""
        nbrs: list[list[tuple[int, Bond]]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            nbrs[bond.a].append((bond.b, bond))
            nbrs[bond.b].append((bond.a, bond))
        # A neighbour occurs once per atom, so the pairs sort by it alone.
        return tuple(tuple(sorted(n)) for n in nbrs)

    @cached_property
    def canonical(self) -> str:
        """Canonical SMILES, computed on first use and kept."""
        # Imported at call time: canon imports this module.
        from .canon import canonical_smiles

        return canonical_smiles(self)

    def heavy_atom_count(self) -> int:
        return sum(1 for a in self.atoms if a.element != "H")

    def components(self) -> list[list[int]]:
        neighbours = self.neighbours
        seen = [False] * len(neighbours)
        comps = []
        for start in range(len(neighbours)):
            if seen[start]:
                continue
            comp, stack = [], [start]
            seen[start] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in neighbours[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comps.append(sorted(comp))
        return comps

    @classmethod
    def from_spec(
        cls,
        atom_specs: list[AtomSpec],
        bonds: list[tuple[int, int, str]],
        source: str = "",
        *,
        rings: RingInfo | None = None,
    ) -> "MolecularGraph":
        """Assemble and validate a graph from raw atom and bond data.

        Performs ring perception, aromaticity validation, hydrogen
        resolution and valence checking. Raises subclasses of
        :class:`SmilesParseError` on invalid structures. ``rings``, when
        given, must be the SSSR of exactly this graph (a scaffold framework
        passes its parent's rings, renumbered); only ring perception is
        skipped, every other check still runs.
        """
        if not atom_specs:
            raise EmptyInput("molecule has no atoms")
        n = len(atom_specs)
        neighbours: list[list[int]] = [[] for _ in range(n)]
        checked: list[Bond] = []
        for a, b, order in bonds:
            if a == b:
                raise SmilesSyntaxError(f"self-bond on atom {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise SmilesSyntaxError(f"bond endpoint out of range: {a}-{b}")
            if order not in BOND_ORDERS:
                raise SmilesSyntaxError(f"unknown bond order {order!r}")
            if b in neighbours[a]:
                raise SmilesSyntaxError(f"duplicate bond between atoms {a} and {b}")
            neighbours[a].append(b)
            neighbours[b].append(a)
            checked.append(Bond(a, b, order))

        for spec in atom_specs:
            if spec.element not in VALENCES:
                raise UnknownElement(
                    f"unsupported element {spec.element!r}", spec.offset
                )
            if spec.aromatic and spec.element not in AROMATIC_ELEMENTS:
                raise AromaticityViolation(
                    f"element {spec.element!r} cannot be aromatic", spec.offset
                )
        return assemble(atom_specs, checked, neighbours, source, rings)


def assemble(
    specs: list[AtomSpec],
    bonds: list[Bond],
    neighbours: list[list[int]],
    source: str,
    rings: RingInfo | None = None,
) -> MolecularGraph:
    """The one assembly pass behind :func:`parse_smiles` and
    :meth:`MolecularGraph.from_spec`: ring perception, aromatic bond
    demotion and checks, hydrogen resolution and valence checks.

    The caller has checked what its input can get wrong about bonds and
    elements: every bond joins two distinct atoms once with a known order,
    every element is supported, and only elements that may be aromatic
    are. ``neighbours`` holds each atom's bonded atoms in any order and is
    sorted here; ``bonds`` is rewritten in place where an aromatic bond is
    demoted.
    """
    n = len(specs)
    for row in neighbours:
        row.sort()
    shared = tuple(map(tuple, neighbours))
    ring_data = rings
    if ring_data is None:
        ring_data = _rings.find_sssr(shared)

    # Implicit bonds between two aromatic atoms are read as aromatic;
    # if such a bond lands outside any ring (e.g. a biaryl linker) it is
    # really a single bond and is demoted here.
    extra = [0] * n  # bond order sum beyond one per neighbour
    ring_edges = ring_data.ring_edges
    for idx, (a, b, order) in enumerate(bonds):
        if order == AROMATIC:
            if frozenset((a, b)) not in ring_edges:
                bonds[idx] = Bond(a, b, SINGLE)
            elif not (specs[a].aromatic and specs[b].aromatic):
                raise AromaticityViolation(
                    "aromatic bond joins a non-aromatic atom", specs[a].offset
                )
        elif order != SINGLE:
            extra[a] += ORDER_VALUE[order] - 1
            extra[b] += ORDER_VALUE[order] - 1

    membership = ring_data.ring_membership
    for idx, spec in enumerate(specs):
        if spec.aromatic and not membership[idx]:
            raise AromaticityViolation(
                f"aromatic atom {spec.element!r} outside any ring", spec.offset
            )

    hydrogen_atoms = any(spec.element == "H" for spec in specs)
    atoms: list[Atom] = []
    for idx, spec in enumerate(specs):
        element, aromatic, charge, explicit_h, offset = spec
        row = shared[idx]
        order_sum = len(row) + extra[idx]  # aromatic bonds count 1
        if explicit_h is not None:
            # Bracket atom: hydrogens are exactly as written; sanity-check
            # against the largest valence, widened by the charge.
            if order_sum + explicit_h > max(VALENCES[element]) + abs(charge):
                raise ValenceViolation(
                    f"{element} with {explicit_h}H and "
                    f"{order_sum} bonds exceeds valence",
                    offset,
                )
            hydrogens = explicit_h
        else:
            hydrogens = _bare_hydrogens(element, aromatic, order_sum, offset)
        degree = len(row)
        if hydrogen_atoms:
            degree = sum(1 for j in row if specs[j].element != "H")
        atoms.append(
            Atom(element, aromatic, charge, explicit_h, hydrogens, degree, offset)
        )

    return MolecularGraph(tuple(atoms), tuple(bonds), ring_data, shared, source)


def _bare_hydrogens(element: str, aromatic: bool, order_sum: int, offset: int) -> int:
    """Implicit hydrogen count for a non-bracket atom.

    Aromatic atoms consume one extra valence unit for the ring pi system and
    use their lowest standard valence, floored at zero (thiophene sulfur).
    Aliphatic atoms escalate to the smallest standard valence that covers
    the bond order sum.
    """
    valences = VALENCES[element]
    if aromatic:
        return max(0, valences[0] - (order_sum + 1))
    for valence in valences:
        if order_sum <= valence:
            return valence - order_sum
    raise ValenceViolation(
        f"{element} with bond order sum {order_sum} exceeds maximum valence "
        f"{max(valences)}",
        offset,
    )
