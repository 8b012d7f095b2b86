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

from ..molgraph import DOUBLE, SINGLE, TRIPLE, MolecularGraph

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
    """Descriptor vector aligned to :data:`DESCRIPTOR_NAMES`, from one walk
    over the atoms and one over the bonds."""
    masses = atomic_masses()
    atoms = graph.atoms
    tally: dict[str, int] = {}  # atoms per element, explicit H atoms too
    hydrogens = hbd = aromatic_atoms = charge = 0
    for atom in atoms:
        element = atom.element
        tally[element] = tally.get(element, 0) + 1
        hydrogens += atom.hydrogens
        charge += atom.formal_charge
        aromatic_atoms += atom.aromatic  # hydrogen is never aromatic
        if atom.hydrogens and element in ("N", "O"):
            hbd += 1
    heavy_count = len(atoms) - tally.get("H", 0)
    element_counts = [tally.get(el, 0) for el in ("C", "N", "O", "S", "P", "F", "Cl", "Br", "I")]
    # Add the hydrogens to the integer tally first so the weight is a
    # fixed-order sum, byte-identical for any atom ordering of the molecule.
    tally["H"] = tally.get("H", 0) + hydrogens
    weight = sum(count * masses[el] for el, count in sorted(tally.items()))

    # A ring edge joins two ring atoms, so only a bond between two ring
    # atoms is looked up among the ring edges.
    in_ring = graph.rings.ring_membership
    ring_edges = graph.rings.ring_edges
    rotatable = double = triple = 0
    for a, b, order in graph.bonds:
        if order == DOUBLE:
            double += 1
        elif order == TRIPLE:
            triple += 1
        elif order == SINGLE and atoms[a].degree >= 2 and atoms[b].degree >= 2:
            if not (in_ring[a] and in_ring[b] and frozenset((a, b)) in ring_edges):
                rotatable += 1

    rings = graph.rings.rings
    return np.array(
        [
            heavy_count,
            weight,
            len(rings),
            sum(1 for ring in rings if all(atoms[i].aromatic for i in ring)),
            tally.get("N", 0) + tally.get("O", 0),  # hba_count
            hbd,
            rotatable,
            sum(tally.get(el, 0) for el in HALOGENS),
            heavy_count - tally.get("C", 0),  # heteroatom_count
            charge,
            aromatic_atoms / heavy_count if heavy_count else 0.0,
            max((len(ring) for ring in rings), default=0),
            double,
            triple,
            *element_counts,
            # The SSSR holds as many rings as the cyclomatic number
            # bonds - atoms + components (see molgraph.rings).
            len(atoms) - len(graph.bonds) + len(rings),
        ],
        dtype=np.float64,
    )
