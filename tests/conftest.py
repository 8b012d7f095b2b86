import random
from pathlib import Path

import pytest

import molscreen
from molscreen import dataio
from molscreen.molgraph import AtomSpec, MolecularGraph
from molscreen.scaffold import load_registry

DATA_DIR = Path(molscreen.__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def dataset24():
    return dataio.load_dataset(DATA_DIR / "additives24.csv")


@pytest.fixture(scope="session")
def registry9():
    return load_registry(DATA_DIR / "scaffold_groups.csv")


def neighbour_lists(n_atoms: int, edges) -> list[list[int]]:
    """Each atom's neighbours in increasing order, as ``find_sssr`` reads
    them, built from the edges alone."""
    neighbours: list[list[int]] = [[] for _ in range(n_atoms)]
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    return [sorted(row) for row in neighbours]


def permute_graph(graph: MolecularGraph, order: list[int]) -> MolecularGraph:
    """Rebuild a graph with atoms relabelled by ``order`` (old -> position)."""
    inverse = {old: new for new, old in enumerate(order)}
    specs: list[AtomSpec | None] = [None] * len(order)
    for old, new in inverse.items():
        atom = graph.atoms[old]
        specs[new] = AtomSpec(
            element=atom.element,
            aromatic=atom.aromatic,
            formal_charge=atom.formal_charge,
            explicit_h=atom.explicit_h,
        )
    bonds = [(inverse[b.a], inverse[b.b], b.order) for b in graph.bonds]
    return MolecularGraph.from_spec(specs, bonds)


POOL_TEMPLATES = [
    "{a}c1ccc({b})cc1", "{a}c1cc({b})ccc1", "{a}c1c({b})cccc1",
    "{a}c1cc({b})ncc1", "{a}c1ccc({b})nc1",
    "{a}c1cc({b})cs1", "{a}c1csc({b})n1", "{a}c1cc({b})co1", "{a}c1cc({b})c[nH]1",
    "{a}c1ccc2cc({b})ccc2c1",
    "{a}C1CCN({b})CC1", "{a}C1CC({b})NCC1",
    "{a}C1CCC({b})CC1", "{a}C1CC({b})CCC1",
    "{a}C1CC({b})CO1", "{a}C1COC({b})CO1",
]

POOL_SUBSTITUENTS = [
    "N", "O", "C", "CC", "CCC", "CCCC", "CCO", "CCN", "CCS", "OC", "OCC",
    "NC", "NCC", "SC", "C(=O)O", "C(=O)N", "C#N", "Cl", "F", "CN(C)C",
    "OCCO", "COC", "CNC", "CCCCC", "OCCN", "CC(C)C", "CCOC", "NCCO",
]


def synthetic_pool_rows(limit: int | None = None) -> list[str]:
    """Substituted-scaffold SMILES covering every registry group, plus a few
    planted rows exercising the vocabulary/novel-scaffold/parse drop paths
    and canonical-duplicate merging."""
    rows = []
    for template in POOL_TEMPLATES:
        for a in POOL_SUBSTITUENTS:
            for b in POOL_SUBSTITUENTS:
                rows.append(template.format(a=a, b=b))
    if limit is not None:
        rows = rows[:limit]
    rows += [
        "C[Se]C", "CC[Se]CC",              # vocabulary drops
        "C1CCCCCC1", "c1ccc2cc3ccccc3cc2c1",  # novel scaffolds
        "C1CC",                            # unparseable
        "OCC", "CCO",                      # duplicate spellings
    ]
    return rows


_CAPACITY = {"C": 4, "N": 3, "O": 2, "S": 2, "F": 1, "Cl": 1}


def random_molecule(rng: random.Random, max_atoms: int = 10) -> MolecularGraph:
    """Valence-safe random aliphatic molecule (tree plus optional ring)."""
    n = rng.randint(1, max_atoms)
    elements = ["C"]
    for _ in range(n - 1):
        elements.append(rng.choice(["C", "C", "C", "N", "O", "S", "F", "Cl"]))
    spare = [_CAPACITY[e] for e in elements]
    bonds: list[tuple[int, int, str]] = []
    for i in range(1, n):
        parents = [j for j in range(i) if spare[j] >= 1]
        if not parents:
            spare[i] = 0  # isolated atom, forms its own component
            continue
        j = rng.choice(parents)
        if spare[i] >= 2 and spare[j] >= 2 and rng.random() < 0.15:
            order, cost = "double", 2
        else:
            order, cost = "single", 1
        bonds.append((j, i, order))
        spare[i] -= cost
        spare[j] -= cost
    # occasionally close one ring
    if n >= 3 and rng.random() < 0.5:
        adjacent = {frozenset((a, b)) for a, b, _ in bonds}
        candidates = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if spare[a] >= 1 and spare[b] >= 1 and frozenset((a, b)) not in adjacent
        ]
        if candidates:
            a, b = rng.choice(candidates)
            bonds.append((a, b, "single"))
    specs = [AtomSpec(element=e) for e in elements]
    return MolecularGraph.from_spec(specs, bonds)
