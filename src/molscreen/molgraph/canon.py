"""Canonical atom ranking and canonical SMILES emission.

Ranking uses iterative neighbourhood refinement seeded with local atom
invariants (element, aromaticity, charge, hydrogens, degree, ring
membership). Remaining ties are resolved by a search tree: each node
individualises one atom of its first tied class and refines again, each
leaf is a fully discrete ranking, and the output is the lexicographically
smallest string emitted at any leaf, so it is invariant under any
permutation of the input atom order.

The search is pruned with the automorphisms it finds on the way (McKay &
Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 2014). When a
leaf emits a string an earlier leaf already emitted, the map sending each
atom to the atom of equal rank in that earlier leaf is checked explicitly:
it must preserve element, aromatic flag, charge and hydrogens, and map
every bond onto a bond of the same order. A map that passes is an
automorphism, so

* the subtree being explored, below the node where the two leaves' paths
  part, is the image of one already explored, and the search returns to
  that node;
* at every node, a tied atom is skipped when an automorphism that fixes the
  node's individualised atoms maps it onto a sibling already explored.

Pruned subtrees are images of explored ones and emit the same strings, so
the result is byte-identical to the exhaustive search. The number of leaves
explored grows with the size of the molecule instead of with the size of
its symmetry group (31,104 leaves before pruning, 12 after, for
pentaerythritol tetra(neopentyl ether)).
"""

from __future__ import annotations

from .model import (
    AROMATIC,
    DOUBLE,
    ORGANIC_SUBSET,
    SINGLE,
    TRIPLE,
    MolecularGraph,
    _bare_hydrogens,
)

_BOND_RANK = {SINGLE: 0, AROMATIC: 1, DOUBLE: 2, TRIPLE: 3}
_BOND_TOKEN = {SINGLE: "", AROMATIC: "", DOUBLE: "=", TRIPLE: "#"}
_BOND_VALUE = {SINGLE: 1, AROMATIC: 1, DOUBLE: 2, TRIPLE: 3}


def canonical_smiles(graph: MolecularGraph) -> str:
    """Deterministic SMILES, invariant under atom-order permutation."""
    return _Search(graph).run()


def initial_invariants(graph: MolecularGraph) -> list[tuple]:
    inv = []
    for idx, atom in enumerate(graph.atoms):
        inv.append(
            (
                atom.element,
                atom.aromatic,
                atom.formal_charge,
                atom.hydrogens,
                len(graph.adjacency[idx]),
                graph.rings.ring_membership[idx],
            )
        )
    return inv


def _dense_ranks(keys: list) -> list[int]:
    order = sorted(set(keys))
    mapping = {k: r for r, k in enumerate(order)}
    return [mapping[k] for k in keys]


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


class _Search:
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
        self.orders = {_edge(b.a, b.b): b.order for b in graph.bonds}
        self.emitter = _Emitter(graph)
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
            root = _find(orbits, chosen)
            if any(_find(orbits, done) == root for done in explored):
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
                    ra, rb = _find(orbits, a), _find(orbits, b)
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
            orders.get(_edge(perm[bond.a], perm[bond.b])) == bond.order
            for bond in self.graph.bonds
        )


class _Emitter:
    """SMILES writer for a fixed graph under any discrete ranking.

    Atom and bond tokens do not depend on the ranking and are built once.
    """

    def __init__(self, graph: MolecularGraph):
        n = len(graph.atoms)
        self.components = graph.components()
        self.adj = [[j for j, _ in graph.adjacency[i]] for i in range(n)]
        self.atom_tokens = [_atom_token(graph, i) for i in range(n)]
        self.bond_tokens = {
            _edge(b.a, b.b): _bond_token_between(graph, b) for b in graph.bonds
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
                elif v != parent and _edge(u, v) not in closure_edges:
                    closure_edges.add(_edge(u, v))
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
                edge = _edge(u, v)
                if edge not in digit_of:
                    digit_of[edge] = len(digit_of) + 1
                    out.append(bond_tokens[edge])
                out.append(_digit(digit_of[edge]))
            children = tree_children[u]
            for child in children[:-1]:
                out.append("(")
                out.append(bond_tokens[_edge(u, child)])
                walk(child)
                out.append(")")
            if children:
                child = children[-1]
                out.append(bond_tokens[_edge(u, child)])
                walk(child)

        walk(root)
        return "".join(out)


def _digit(number: int) -> str:
    return str(number) if number <= 9 else f"%{number:02d}"


def _bond_token_between(graph: MolecularGraph, bond) -> str:
    if bond.order == SINGLE:
        both_aromatic = (
            graph.atoms[bond.a].aromatic and graph.atoms[bond.b].aromatic
        )
        return "-" if both_aromatic else ""
    return _BOND_TOKEN[bond.order]


def _atom_token(graph: MolecularGraph, idx: int) -> str:
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
