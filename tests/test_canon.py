import random
import time

import networkx as nx
import pytest

from molscreen.molgraph import MolGraphError, canonical_smiles, parse_smiles
from molscreen.molgraph import canon
from molscreen.molgraph.canon import _atom_token, _Search, initial_invariants
from molscreen.molgraph.model import (
    AROMATIC,
    DOUBLE,
    ORGANIC_SUBSET,
    SINGLE,
    TRIPLE,
    MolecularGraph,
    _bare_hydrogens,
)

from conftest import permute_graph, random_molecule, synthetic_pool_rows

AROMATIC_SAMPLES = [
    "c1ccccc1",
    "Cc1ccccc1",
    "Nc1ccncc1",
    "OC(=O)c1csc(Cl)n1",
    "c1ccc2ccccc2c1",
    "c1ccc(-c2ccccc2)cc1",
    "c1cc[nH]c1",
    "O=C1CCCCC1",
    "[NH3+]Cc1cccc2ccccc12",
]


def to_networkx(graph) -> nx.Graph:
    g = nx.Graph()
    for i, atom in enumerate(graph.atoms):
        g.add_node(
            i,
            element=atom.element,
            aromatic=atom.aromatic,
            charge=atom.formal_charge,
            hydrogens=atom.hydrogens,
        )
    for bond in graph.bonds:
        g.add_edge(bond.a, bond.b, order=bond.order)
    return g


def isomorphic(a, b) -> bool:
    return nx.is_isomorphic(
        to_networkx(a),
        to_networkx(b),
        node_match=lambda x, y: (
            x["element"] == y["element"]
            and x["aromatic"] == y["aromatic"]
            and x["charge"] == y["charge"]
            and x["hydrogens"] == y["hydrogens"]
        ),
        edge_match=lambda x, y: x["order"] == y["order"],
    )


def test_same_molecule_same_string():
    assert canonical_smiles(parse_smiles("OCC")) == canonical_smiles(parse_smiles("CCO"))


def test_canonical_cached_on_graph(monkeypatch):
    calls = []
    original = canon.canonical_smiles
    monkeypatch.setattr(canon, "canonical_smiles", lambda g: calls.append(g) or original(g))
    graph = parse_smiles("OC(=O)c1ccccc1")
    assert graph.canonical == original(graph)
    assert graph.canonical is graph.canonical
    assert calls == [graph]


def test_single_atom():
    assert canonical_smiles(parse_smiles("C")) == "C"


def test_bracket_atom_forms():
    assert canonical_smiles(parse_smiles("[NH4+]")) == "[NH4+]"
    assert canonical_smiles(parse_smiles("[CH4]")) == "C"


def test_round_trip_is_isomorphic_on_bundled_dataset(dataset24):
    for record in dataset24.records:
        canon = canonical_smiles(record.graph)
        reparsed = parse_smiles(canon)
        assert isomorphic(record.graph, reparsed), record.smiles


def test_idempotence_on_bundled_dataset(dataset24):
    for record in dataset24.records:
        canon = canonical_smiles(record.graph)
        assert canonical_smiles(parse_smiles(canon)) == canon, record.smiles


def test_idempotence_on_synthetic_pool():
    # screening.run_funnel relies on it: rows keyed by a pool molecule's
    # canonical string reuse that molecule's graph without parsing
    for smiles in synthetic_pool_rows():
        try:
            canon = parse_smiles(smiles).canonical
        except MolGraphError:
            continue
        assert parse_smiles(canon).canonical == canon, smiles


def test_permutation_invariance_500_cases(dataset24):
    rng = random.Random(77)
    cases = 0
    pool = [r.graph for r in dataset24.records]
    pool += [parse_smiles(s) for s in AROMATIC_SAMPLES]
    while cases < 250:
        graph = pool[cases % len(pool)]
        base = canonical_smiles(graph)
        order = list(range(len(graph.atoms)))
        rng.shuffle(order)
        assert canonical_smiles(permute_graph(graph, order)) == base
        cases += 1
    while cases < 500:
        graph = random_molecule(rng, max_atoms=10)
        base = canonical_smiles(graph)
        order = list(range(len(graph.atoms)))
        rng.shuffle(order)
        assert canonical_smiles(permute_graph(graph, order)) == base
        assert canonical_smiles(parse_smiles(base)) == base
        cases += 1


def test_symmetric_molecules():
    # highly symmetric cases exercise the tie-individualization search
    for smiles in ("CC(C)(C)C", "c1ccccc1", "C1CCCCC1", "FC(F)(F)F", "O=C=O"):
        graph = parse_smiles(smiles)
        base = canonical_smiles(graph)
        rng = random.Random(5)
        for _ in range(10):
            order = list(range(len(graph.atoms)))
            rng.shuffle(order)
            assert canonical_smiles(permute_graph(graph, order)) == base


# --- exhaustive reference -------------------------------------------------
#
# The search without automorphism pruning: every leaf of the
# individualisation tree is expanded and emitted, and the smallest string
# wins. Its cost grows with the symmetry group, so it serves only as an
# oracle for the pruned search in the package.

_BOND_RANK = {SINGLE: 0, AROMATIC: 1, DOUBLE: 2, TRIPLE: 3}
_BOND_TOKEN = {SINGLE: "", AROMATIC: "", DOUBLE: "=", TRIPLE: "#"}


def exhaustive_strings(graph) -> set[str]:
    return {_emit(graph, ranks) for ranks in _discrete_rankings(graph)}


def _dense_ranks(keys: list) -> list[int]:
    order = sorted(set(keys))
    mapping = {k: r for r, k in enumerate(order)}
    return [mapping[k] for k in keys]


def _refine(graph, ranks: list[int]) -> list[int]:
    while True:
        keys = []
        for idx in range(len(graph.atoms)):
            nbr_sig = sorted(
                (_BOND_RANK[bond.order], ranks[j])
                for j, bond in graph.adjacency[idx]
            )
            keys.append((ranks[idx], tuple(nbr_sig)))
        new_ranks = _dense_ranks(keys)
        if new_ranks == ranks:
            return ranks
        ranks = new_ranks


def _discrete_rankings(graph):
    """Yield every fully discrete ranking reachable by tie individualisation."""
    n = len(graph.atoms)

    def rec(ranks: list[int]):
        ranks = _refine(graph, ranks)
        cells: dict[int, list[int]] = {}
        for idx, r in enumerate(ranks):
            cells.setdefault(r, []).append(idx)
        tied = [r for r, members in cells.items() if len(members) > 1]
        if not tied:
            yield ranks
            return
        target = min(tied)
        for chosen in cells[target]:
            keys = [(ranks[i], 0 if i == chosen else 1) for i in range(n)]
            yield from rec(_dense_ranks(keys))

    yield from rec(_dense_ranks(initial_invariants(graph)))


def _emit(graph, ranks: list[int]) -> str:
    pieces = [_emit_component(graph, ranks, comp) for comp in graph.components()]
    pieces.sort()
    return ".".join(pieces)


def _emit_component(graph, ranks: list[int], comp: list[int]) -> str:
    root = min(comp, key=lambda i: ranks[i])
    visited = {root}
    tree_children: dict[int, list[int]] = {i: [] for i in comp}
    closures: dict[int, list[int]] = {i: [] for i in comp}
    closure_edges: set[frozenset[int]] = set()

    def explore(u: int, parent: int) -> None:
        for v, _bond in sorted(graph.adjacency[u], key=lambda t: ranks[t[0]]):
            if v not in visited:
                visited.add(v)
                tree_children[u].append(v)
                explore(v, u)
            elif v != parent and frozenset((u, v)) not in closure_edges:
                closure_edges.add(frozenset((u, v)))
                closures[u].append(v)
                closures[v].append(u)

    explore(root, -1)
    for u in comp:
        closures[u].sort(key=lambda v: ranks[v])

    digit_of: dict[frozenset[int], int] = {}
    next_digit = [1]
    out: list[str] = []

    def ring_tokens(u: int) -> str:
        toks = []
        for v in closures[u]:
            edge = frozenset((u, v))
            bond = _bond_between(graph, u, v)
            if edge not in digit_of:
                digit_of[edge] = next_digit[0]
                next_digit[0] += 1
                toks.append(_bond_token(graph, bond) + _digit(digit_of[edge]))
            else:
                toks.append(_digit(digit_of[edge]))
        return "".join(toks)

    def walk(u: int) -> None:
        out.append(_atom_token(graph, u))
        out.append(ring_tokens(u))
        children = tree_children[u]
        for child in children[:-1]:
            out.append("(")
            out.append(_bond_token(graph, _bond_between(graph, u, child)))
            walk(child)
            out.append(")")
        if children:
            child = children[-1]
            out.append(_bond_token(graph, _bond_between(graph, u, child)))
            walk(child)

    walk(root)
    return "".join(out)


def _digit(number: int) -> str:
    return str(number) if number <= 9 else f"%{number:02d}"


def _bond_between(graph, u: int, v: int):
    for w, bond in graph.adjacency[u]:
        if w == v:
            return bond
    raise KeyError((u, v))


def _bond_token(graph, bond) -> str:
    if bond.order == SINGLE:
        both_aromatic = graph.atoms[bond.a].aromatic and graph.atoms[bond.b].aromatic
        return "-" if both_aromatic else ""
    return _BOND_TOKEN[bond.order]


# Symmetric molecules whose automorphism groups make the exhaustive search
# expensive: one symmetry layer per branching level multiplies its leaves.
SYMMETRIC_TIMED = [
    "CC(C)(C)C",  # neopentane
    "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C",
    "CC(C)(C)c1cc(C(C)(C)C)cc(C(C)(C)C)c1",  # 1,3,5-tri-tert-butylbenzene
    "CC(C)C(C(C)C)(C(C)C)C(C)C",  # tetra-isopropyl methane
    # pentaerythritol tetra(neopentyl ether): 31,104 exhaustive leaves
    "C(COCC(C)(C)C)(COCC(C)(C)C)(COCC(C)(C)C)COCC(C)(C)C",
]

# Cores carrying tert-butyl, neopentyl or isopropyl groups, cages, and
# salts and repeated components.
SYMMETRIC = SYMMETRIC_TIMED + [
    "CC(C)(C)c1ccc(C(C)(C)C)cc1",
    "CC(C)(C)Cc1ccc(CC(C)(C)C)cc1",
    "CC(C)c1ccc(C(C)C)cc1",
    "CC(C)(C)Cc1cc(CC(C)(C)C)cc(CC(C)(C)C)c1",
    "CC(C)c1cc(C(C)C)cc(C(C)C)c1",
    "CC(C)(C)C1CCC(C(C)(C)C)CC1",
    "CC(C)(C)CC1CCC(CC(C)(C)C)CC1",
    "CC(C)C1CCC(C(C)C)CC1",
    "CC(C)(C)C(C(C)(C)C)C(C)(C)C",
    "CC(C)(C)CC(CC(C)(C)C)CC(C)(C)C",
    "CC(C)C(C(C)C)C(C)C",
    "CC(C)(C)N(C(C)(C)C)C(C)(C)C",
    "CC(C)(C)CN(CC(C)(C)C)CC(C)(C)C",
    "CC(C)N(C(C)C)C(C)C",
    "CC(C)(C)OC(C)(C)C",
    "CC(C)(C)COCC(C)(C)C",
    "CC(C)OC(C)C",
    "CC(C)(C)CCC(C)(C)C",
    "CC(C)(C)CCCCC(C)(C)C",
    "CC(C)CCC(C)C",
    "C12C3C4C1C5C2C3C45",  # cubane
    "C1CC2CCC1CC2",  # bicyclo[2.2.2]octane
    "C1CCC2(CC1)CCCCC2",  # spiro[5.5]undecane
    "c1ccc2cc3ccccc3cc2c1",
    "[NH4+].[NH4+].[O-]S(=O)(=O)[O-]",
    "CC.CC.CC",
    # Two copies of a cage whose refinement leaves ties that are not orbits:
    # the exhaustive search emits several distinct strings, so a subtree
    # pruned without a true automorphism behind it loses some of them.
    "C12C3C1C4C5C2C4C35.C12C3C1C4C5C2C4C35",
    "C12(C34C1(CC3)CC4)CC2.C12(C34C1(CC3)CC4)CC2",
]


def assert_matches_exhaustive(graph) -> None:
    # Sound pruning skips only subtrees that repeat explored ones, so the
    # leaves it explores emit every string the exhaustive search emits, not
    # just the smallest.
    everything = exhaustive_strings(graph)
    search = _Search(graph)
    assert search.run() == canonical_smiles(graph) == min(everything)
    assert set(search.leaves) == everything


def test_matches_exhaustive_search_on_bundled_dataset(dataset24):
    for record in dataset24.records:
        assert_matches_exhaustive(record.graph)


def test_matches_exhaustive_search_on_aromatic_samples():
    for smiles in AROMATIC_SAMPLES:
        assert_matches_exhaustive(parse_smiles(smiles))


def test_matches_exhaustive_search_on_random_molecules():
    rng = random.Random(2015)
    for _ in range(200):
        assert_matches_exhaustive(random_molecule(rng, max_atoms=12))


@pytest.mark.parametrize("smiles", SYMMETRIC)
def test_matches_exhaustive_search_on_symmetric_molecules(smiles):
    graph = parse_smiles(smiles)
    assert_matches_exhaustive(graph)
    base = canonical_smiles(graph)
    assert isomorphic(graph, parse_smiles(base))
    rng = random.Random(len(smiles))
    for _ in range(10):
        order = list(range(len(graph.atoms)))
        rng.shuffle(order)
        assert canonical_smiles(permute_graph(graph, order)) == base


@pytest.mark.parametrize("smiles", SYMMETRIC_TIMED)
def test_symmetric_molecules_canonicalize_within_a_second(smiles):
    graph = parse_smiles(smiles)
    start = time.perf_counter()
    canonical_smiles(graph)
    assert time.perf_counter() - start < 1.0


# --- the search as it stood before leaf checks ----------------------------
#
# ``_Search`` and ``_Emitter`` from before automorphic leaves were recognised
# ahead of emission and refinement re-signed only tied cells: every leaf
# emitted its string, and every atom computed a signature in every round.
# Verbatim copies, with helpers renamed; ``_dense_ranks`` and ``_digit`` are
# the exhaustive reference's above, which have the same code. The package
# must give the same string for every molecule.

_BOND_VALUE = {SINGLE: 1, AROMATIC: 1, DOUBLE: 2, TRIPLE: 3}


def _parent_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _parent_find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


class _ParentSearch:
    """Individualisation-refinement search with automorphism pruning."""

    def __init__(self, graph: MolecularGraph):
        self.graph = graph
        n = self.n = len(graph.atoms)
        # Neighbour signature terms are (bond rank, neighbour rank) pairs,
        # packed as bond_rank * n + rank: ranks are below n, so the packed
        # integers sort exactly as the pairs do.
        self.nbrs = [
            [(_BOND_RANK[bond.order] * n, j) for j, bond in graph.adjacency[i]]
            for i in range(n)
        ]
        self.labels = [
            (a.element, a.aromatic, a.formal_charge, a.hydrogens) for a in graph.atoms
        ]
        self.orders = {_parent_edge(b.a, b.b): b.order for b in graph.bonds}
        self.emitter = _ParentEmitter(graph)
        # Emitted string -> (ranking, path) of the first leaf that emitted it.
        self.leaves: dict[str, tuple[list[int], tuple[int, ...]]] = {}
        self.generators: list[list[int]] = []

    def run(self) -> str:
        start = self.refine(_dense_ranks(initial_invariants(self.graph)))
        self.visit(start, ())
        return min(self.leaves)

    def refine(self, ranks: list[int]) -> list[int]:
        n, nbrs = self.n, self.nbrs
        while max(ranks) < n - 1:
            keys = [
                (ranks[i], tuple(sorted([b + ranks[j] for b, j in nbrs[i]])))
                for i in range(n)
            ]
            new_ranks = _dense_ranks(keys)
            if new_ranks == ranks:
                break
            ranks = new_ranks
        return ranks

    def visit(self, ranks: list[int], path: tuple[int, ...]) -> int | None:
        """Explore the node reached by individualising ``path``.

        Returns None when done, or the depth of the ancestor to resume at
        when a found automorphism shows the rest of this subtree repeats
        one already explored.
        """
        cells: dict[int, list[int]] = {}
        for idx, r in enumerate(ranks):
            cells.setdefault(r, []).append(idx)
        tied = [r for r, members in cells.items() if len(members) > 1]
        if not tied:
            return self.leaf(ranks, path)
        target = min(tied)
        depth = len(path)
        orbits = list(range(self.n))
        absorbed = 0
        explored: list[int] = []
        for chosen in cells[target]:
            absorbed = self.absorb(orbits, absorbed, path)
            root = _parent_find(orbits, chosen)
            if any(_parent_find(orbits, done) == root for done in explored):
                continue
            explored.append(chosen)
            child = [
                r + 1 if r > target or (r == target and i != chosen) else r
                for i, r in enumerate(ranks)
            ]
            resume = self.visit(self.refine(child), path + (chosen,))
            if resume is not None and resume < depth:
                return resume
        return None

    def absorb(self, orbits: list[int], start: int, path: tuple[int, ...]) -> int:
        """Merge into ``orbits`` the generators found since ``start`` that
        fix every atom of ``path``; returns the new count of generators."""
        for perm in self.generators[start:]:
            if all(perm[p] == p for p in path):
                for a, b in enumerate(perm):
                    ra, rb = _parent_find(orbits, a), _parent_find(orbits, b)
                    if ra != rb:
                        orbits[max(ra, rb)] = min(ra, rb)
        return len(self.generators)

    def leaf(self, ranks: list[int], path: tuple[int, ...]) -> int | None:
        text = self.emitter.emit(ranks)
        earlier = self.leaves.get(text)
        if earlier is None:
            self.leaves[text] = (ranks, path)
            return None
        earlier_ranks, earlier_path = earlier
        atom_at = [0] * self.n
        for atom, r in enumerate(earlier_ranks):
            atom_at[r] = atom
        perm = [atom_at[r] for r in ranks]
        if not self.is_automorphism(perm):
            return None
        self.generators.append(perm)
        # The automorphism maps this path onto the earlier one atom by atom,
        # so it fixes their common prefix and maps the child taken at the
        # first divergence onto a sibling explored before it.
        depth = 0
        while path[depth] == earlier_path[depth]:
            depth += 1
        return depth

    def is_automorphism(self, perm: list[int]) -> bool:
        labels = self.labels
        if any(labels[a] != labels[b] for a, b in enumerate(perm)):
            return False
        orders = self.orders
        return all(
            orders.get(_parent_edge(perm[bond.a], perm[bond.b])) == bond.order
            for bond in self.graph.bonds
        )


class _ParentEmitter:
    """SMILES writer for a fixed graph under any discrete ranking.

    Atom and bond tokens do not depend on the ranking and are built once.
    """

    def __init__(self, graph: MolecularGraph):
        n = len(graph.atoms)
        self.components = graph.components()
        self.adj = [[j for j, _ in graph.adjacency[i]] for i in range(n)]
        self.atom_tokens = [_parent_atom_token(graph, i) for i in range(n)]
        self.bond_tokens = {
            _parent_edge(b.a, b.b): _parent_bond_token_between(graph, b) for b in graph.bonds
        }

    def emit(self, ranks: list[int]) -> str:
        pieces = [self._component(ranks, comp) for comp in self.components]
        pieces.sort()
        return ".".join(pieces)

    def _component(self, ranks: list[int], comp: list[int]) -> str:
        adj, bond_tokens, atom_tokens = self.adj, self.bond_tokens, self.atom_tokens
        rank_of = ranks.__getitem__
        root = min(comp, key=rank_of)

        # First pass: classify edges into spanning-tree and ring-closure edges
        # with a depth-first walk in canonical-rank order, mirroring emission.
        visited = {root}
        tree_children: dict[int, list[int]] = {i: [] for i in comp}
        closures: dict[int, list[int]] = {i: [] for i in comp}  # atom -> partners
        closure_edges: set[tuple[int, int]] = set()

        def explore(u: int, parent: int) -> None:
            for v in sorted(adj[u], key=rank_of):
                if v not in visited:
                    visited.add(v)
                    tree_children[u].append(v)
                    explore(v, u)
                elif v != parent and _parent_edge(u, v) not in closure_edges:
                    closure_edges.add(_parent_edge(u, v))
                    closures[u].append(v)
                    closures[v].append(u)

        explore(root, -1)
        for partners in closures.values():
            if len(partners) > 1:
                partners.sort(key=rank_of)

        digit_of: dict[tuple[int, int], int] = {}
        out: list[str] = []

        def walk(u: int) -> None:
            out.append(atom_tokens[u])
            for v in closures[u]:
                edge = _parent_edge(u, v)
                if edge not in digit_of:
                    digit_of[edge] = len(digit_of) + 1
                    out.append(bond_tokens[edge])
                out.append(_digit(digit_of[edge]))
            children = tree_children[u]
            for child in children[:-1]:
                out.append("(")
                out.append(bond_tokens[_parent_edge(u, child)])
                walk(child)
                out.append(")")
            if children:
                child = children[-1]
                out.append(bond_tokens[_parent_edge(u, child)])
                walk(child)

        walk(root)
        return "".join(out)


def _parent_bond_token_between(graph: MolecularGraph, bond) -> str:
    if bond.order == SINGLE:
        both_aromatic = (
            graph.atoms[bond.a].aromatic and graph.atoms[bond.b].aromatic
        )
        return "-" if both_aromatic else ""
    return _BOND_TOKEN[bond.order]


def _parent_atom_token(graph: MolecularGraph, idx: int) -> str:
    atom = graph.atoms[idx]
    symbol = atom.element.lower() if atom.aromatic else atom.element

    if atom.formal_charge == 0 and atom.element in ORGANIC_SUBSET:
        order_sum = sum(_BOND_VALUE[bond.order] for _, bond in graph.adjacency[idx])
        try:
            default_h = _bare_hydrogens(atom.element, atom.aromatic, order_sum, -1)
        except ValueError:
            default_h = -1
        if atom.hydrogens == default_h:
            return symbol

    parts = ["[", symbol]
    if atom.hydrogens == 1:
        parts.append("H")
    elif atom.hydrogens > 1:
        parts.append(f"H{atom.hydrogens}")
    charge = atom.formal_charge
    if charge == 1:
        parts.append("+")
    elif charge == -1:
        parts.append("-")
    elif charge > 1:
        parts.append(f"+{charge}")
    elif charge < -1:
        parts.append(f"-{-charge}")
    parts.append("]")
    return "".join(parts)


# Bracket atoms whose hydrogens differ from the default count keep their
# brackets; those with the default count lose them.
BRACKET_SAMPLES = [
    "[CH2]=C",
    "C[CH]C",
    "[CH3]",
    "[NH]1CC1",
    "C[N]C",
    "[OH]C",
    "O=[SH2]",
    "[CH4]",
    "C[CH2]C",
    "[NH4+].[Cl-]",
    "[O-]C(=O)C.[K+]",
]


def assert_matches_parent(graph) -> None:
    assert canonical_smiles(graph) == _ParentSearch(graph).run()


@pytest.fixture(scope="module")
def pool_graphs():
    graphs = []
    for smiles in synthetic_pool_rows():
        try:
            graphs.append(parse_smiles(smiles))
        except MolGraphError:
            continue
    return graphs


def test_matches_parent_on_synthetic_pool(pool_graphs):
    assert len(pool_graphs) > 12_000
    for graph in pool_graphs:
        assert_matches_parent(graph)


def test_matches_parent_on_random_molecules():
    rng = random.Random(3003)
    for _ in range(300):
        assert_matches_parent(random_molecule(rng, max_atoms=16))


@pytest.mark.parametrize("smiles", SYMMETRIC + AROMATIC_SAMPLES + BRACKET_SAMPLES)
def test_matches_parent_under_permutation(smiles):
    graph = parse_smiles(smiles)
    assert_matches_parent(graph)
    rng = random.Random(len(smiles) + 1)
    for _ in range(6):
        order = list(range(len(graph.atoms)))
        rng.shuffle(order)
        assert_matches_parent(permute_graph(graph, order))


def test_matches_parent_on_bundled_dataset(dataset24):
    for record in dataset24.records:
        assert_matches_parent(record.graph)


def test_bracket_atoms_off_the_default_count_keep_their_brackets():
    assert canonical_smiles(parse_smiles("C[CH]C")) == "[CH](C)C"
    assert canonical_smiles(parse_smiles("C[N]C")) == "C[N]C"
    assert canonical_smiles(parse_smiles("O=[SH2]")) == "O=[SH2]"
    assert canonical_smiles(parse_smiles("c1cc[nH]c1")) == "c1cc[nH]c1"
    assert canonical_smiles(parse_smiles("[CH2]=C")) == "C=C"


def emissions(monkeypatch, graph) -> tuple[int, int]:
    """(emitted strings, distinct leaf strings) of one search."""
    calls = []
    emit = canon._Emitter.emit
    with monkeypatch.context() as patch:
        patch.setattr(canon._Emitter, "emit",
                      lambda self, ranks: calls.append(ranks) or emit(self, ranks))
        search = _Search(graph)
        search.run()
    return len(calls), len(search.leaves)


TERT_BUTYL = [s for s in SYMMETRIC if "C(C)(C)C" in s]


@pytest.mark.parametrize("smiles", ["c1ccccc1"] + TERT_BUTYL)
def test_one_emission_per_distinct_leaf_string(smiles, monkeypatch):
    graph = parse_smiles(smiles)
    assert emissions(monkeypatch, graph) == (1, 1)
    order = list(range(len(graph.atoms)))
    random.Random(11).shuffle(order)
    assert emissions(monkeypatch, permute_graph(graph, order)) == (1, 1)


def test_one_emission_per_distinct_leaf_string_on_pool_sample(pool_graphs, monkeypatch):
    for graph in pool_graphs[::97]:
        emitted, distinct = emissions(monkeypatch, graph)
        assert emitted == distinct, graph.source



# --- depth costs no recursion ------------------------------------------------


@pytest.mark.parametrize("smiles, atoms", [
    ("C" * 5000, 5000),  # a 5,000-atom chain
    ("C(" * 2000 + "C" + ")" * 2000, 2001),  # branches nested 2,000 deep
    ("OC(" * 1000 + "C" + ")" * 1000, 2001),  # a 1,000-deep nest of branch points
], ids=["chain-5000", "nest-2000", "branch-points-1000"])
def test_deep_molecules_canonicalize(smiles, atoms):
    graph = parse_smiles(smiles)
    assert len(graph.atoms) == atoms
    canon = canonical_smiles(graph)
    again = parse_smiles(canon)
    assert len(again.atoms) == atoms and again.canonical == canon
