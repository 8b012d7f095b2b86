"""Native molecular descriptors.

A fixed, documented list of 24 scalar descriptors computed directly from
the molecular graph. The list deliberately favours simple auditable count
rules; hydrogen-bond acceptors are all N and O atoms, donors are N or O
atoms carrying at least one hydrogen, and rotatable bonds are non-ring
single bonds between two atoms of heavy degree two or more.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

import numpy as np

from ..molgraph import AROMATIC, DOUBLE, SINGLE, TRIPLE, MolecularGraph

HALOGENS = ("F", "Cl", "Br", "I")

DESCRIPTOR_NAMES: tuple[str, ...] = (
    "heavy_atom_count",
    "molecular_weight",
    "ring_count",
    "aromatic_ring_count",
    "hba_count",
    "hbd_count",
    "rotatable_bonds",
    "halogen_count",
    "heteroatom_count",
    "net_formal_charge",
    "fraction_aromatic_atoms",
    "max_ring_size",
    "double_bond_count",
    "triple_bond_count",
    "n_C",
    "n_N",
    "n_O",
    "n_S",
    "n_P",
    "n_F",
    "n_Cl",
    "n_Br",
    "n_I",
    "component_count",
)


@lru_cache(maxsize=1)
def atomic_masses() -> dict[str, float]:
    text = resources.files("molscreen.data").joinpath("atomic_masses.json").read_text()
    return {k: float(v) for k, v in json.loads(text).items()}


def descriptors(graph: MolecularGraph) -> np.ndarray:
    """Descriptor vector aligned to :data:`DESCRIPTOR_NAMES`."""
    masses = atomic_masses()
    atoms = graph.atoms
    heavy = [a for a in atoms if a.element != "H"]
    heavy_count = len(heavy)

    # Tally integer element counts first so the weight is a fixed-order sum,
    # byte-identical for any atom ordering of the same molecule.
    tally: dict[str, int] = {}
    for a in atoms:
        tally[a.element] = tally.get(a.element, 0) + 1
    tally["H"] = tally.get("H", 0) + sum(a.hydrogens for a in atoms)
    weight = sum(count * masses[el] for el, count in sorted(tally.items()))

    rings = graph.rings.rings
    aromatic_rings = sum(
        1 for ring in rings if all(atoms[i].aromatic for i in ring)
    )

    hba = sum(1 for a in heavy if a.element in ("N", "O"))
    hbd = sum(1 for a in heavy if a.element in ("N", "O") and a.hydrogens >= 1)

    # A ring edge joins two ring atoms, so only a bond between two ring
    # atoms is looked up among the ring edges.
    in_ring = graph.rings.ring_membership
    ring_edges = graph.rings.ring_edges
    rotatable = 0
    for a, b, order in graph.bonds:
        if order != SINGLE:
            continue
        if in_ring[a] and in_ring[b] and frozenset((a, b)) in ring_edges:
            continue
        if atoms[a].degree >= 2 and atoms[b].degree >= 2:
            rotatable += 1

    element_counts = {el: 0 for el in ("C", "N", "O", "S", "P", "F", "Cl", "Br", "I")}
    for a in heavy:
        if a.element in element_counts:
            element_counts[a.element] += 1

    aromatic_atoms = sum(1 for a in heavy if a.aromatic)

    values = {
        "heavy_atom_count": float(heavy_count),
        "molecular_weight": weight,
        "ring_count": float(len(rings)),
        "aromatic_ring_count": float(aromatic_rings),
        "hba_count": float(hba),
        "hbd_count": float(hbd),
        "rotatable_bonds": float(rotatable),
        "halogen_count": float(sum(element_counts[h] for h in HALOGENS)),
        "heteroatom_count": float(
            sum(1 for a in heavy if a.element != "C")
        ),
        "net_formal_charge": float(sum(a.formal_charge for a in atoms)),
        "fraction_aromatic_atoms": (
            aromatic_atoms / heavy_count if heavy_count else 0.0
        ),
        "max_ring_size": float(max((len(r) for r in rings), default=0)),
        "double_bond_count": float(
            sum(1 for b in graph.bonds if b.order == DOUBLE)
        ),
        "triple_bond_count": float(
            sum(1 for b in graph.bonds if b.order == TRIPLE)
        ),
        "component_count": float(len(graph.components())),
    }
    for el, count in element_counts.items():
        values[f"n_{el}"] = float(count)

    return np.array([values[name] for name in DESCRIPTOR_NAMES], dtype=np.float64)
