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


@dataclass(frozen=True)
class AtomSpec:
    """Raw atom attributes as read from input, before derivation."""

    element: str
    aromatic: bool = False
    formal_charge: int = 0
    explicit_h: int | None = None  # None for non-bracket atoms
    offset: int = -1


@dataclass(frozen=True)
class Atom:
    element: str
    aromatic: bool
    formal_charge: int
    explicit_h: int | None
    hydrogens: int  # resolved total hydrogen count
    degree: int  # heavy-neighbour count
    offset: int = -1


@dataclass(frozen=True)
class Bond:
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
    source: str = ""

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, Bond], ...], ...]:
        nbrs: list[list[tuple[int, Bond]]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            nbrs[bond.a].append((bond.b, bond))
            nbrs[bond.b].append((bond.a, bond))
        return tuple(tuple(sorted(n, key=lambda t: t[0])) for n in nbrs)

    @cached_property
    def canonical(self) -> str:
        """Canonical SMILES, computed on first use and kept."""
        # Imported at call time: canon imports this module.
        from .canon import canonical_smiles

        return canonical_smiles(self)

    def heavy_atom_count(self) -> int:
        return sum(1 for a in self.atoms if a.element != "H")

    def components(self) -> list[list[int]]:
        seen = [False] * len(self.atoms)
        comps = []
        for start in range(len(self.atoms)):
            if seen[start]:
                continue
            comp, stack = [], [start]
            seen[start] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for v, _ in self.adjacency[u]:
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
        seen_pairs: set[frozenset[int]] = set()
        for a, b, order in bonds:
            if a == b:
                raise SmilesSyntaxError(f"self-bond on atom {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise SmilesSyntaxError(f"bond endpoint out of range: {a}-{b}")
            if order not in BOND_ORDERS:
                raise SmilesSyntaxError(f"unknown bond order {order!r}")
            pair = frozenset((a, b))
            if pair in seen_pairs:
                raise SmilesSyntaxError(f"duplicate bond between atoms {a} and {b}")
            seen_pairs.add(pair)

        for spec in atom_specs:
            if spec.element not in VALENCES:
                raise UnknownElement(
                    f"unsupported element {spec.element!r}", spec.offset
                )
            if spec.aromatic and spec.element not in AROMATIC_ELEMENTS:
                raise AromaticityViolation(
                    f"element {spec.element!r} cannot be aromatic", spec.offset
                )

        ring_data = rings
        if ring_data is None:
            ring_data = _rings.find_sssr(n, [(a, b) for a, b, _ in bonds])
        membership = ring_data.ring_membership

        # Implicit bonds between two aromatic atoms are read as aromatic;
        # if such a bond lands outside any ring (e.g. a biaryl linker) it is
        # really a single bond and is demoted here.
        fixed_bonds: list[Bond] = []
        for a, b, order in bonds:
            if order == AROMATIC and frozenset((a, b)) not in ring_data.ring_edges:
                order = SINGLE
            fixed_bonds.append(Bond(a, b, order))

        for bond in fixed_bonds:
            if bond.order == AROMATIC:
                if not (atom_specs[bond.a].aromatic and atom_specs[bond.b].aromatic):
                    raise AromaticityViolation(
                        "aromatic bond joins a non-aromatic atom",
                        atom_specs[bond.a].offset,
                    )
        for idx, spec in enumerate(atom_specs):
            if spec.aromatic and not membership[idx]:
                raise AromaticityViolation(
                    f"aromatic atom {spec.element!r} outside any ring", spec.offset
                )

        order_sums = [0] * n  # aromatic bonds count 1, as single ones
        heavy_deg = [0] * n
        for bond in fixed_bonds:
            val = ORDER_VALUE[bond.order]
            order_sums[bond.a] += val
            order_sums[bond.b] += val
            for here, there in ((bond.a, bond.b), (bond.b, bond.a)):
                if atom_specs[there].element != "H":
                    heavy_deg[here] += 1

        atoms: list[Atom] = []
        for idx, spec in enumerate(atom_specs):
            valences = VALENCES[spec.element]
            if spec.explicit_h is not None:
                # Bracket atom: hydrogens are exactly as written; sanity-check
                # against the largest valence, widened by the charge.
                total = order_sums[idx] + spec.explicit_h
                if total > max(valences) + abs(spec.formal_charge):
                    raise ValenceViolation(
                        f"{spec.element} with {spec.explicit_h}H and "
                        f"{order_sums[idx]} bonds exceeds valence",
                        spec.offset,
                    )
                hydrogens = spec.explicit_h
            else:
                hydrogens = _bare_hydrogens(
                    spec.element, spec.aromatic, order_sums[idx], spec.offset
                )
            atoms.append(
                Atom(
                    element=spec.element,
                    aromatic=spec.aromatic,
                    formal_charge=spec.formal_charge,
                    explicit_h=spec.explicit_h,
                    hydrogens=hydrogens,
                    degree=heavy_deg[idx],
                    offset=spec.offset,
                )
            )

        return cls(
            atoms=tuple(atoms),
            bonds=tuple(fixed_bonds),
            rings=ring_data,
            source=source,
        )


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
