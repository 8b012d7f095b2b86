"""Canonical atom ranking and canonical SMILES emission.

Ranking uses iterative neighbourhood refinement seeded with local atom
invariants (element, aromaticity, charge, hydrogens, degree, ring
membership). Remaining ties are resolved by a search tree: each node
individualises one atom of its first tied class and refines again, each
leaf is a fully discrete ranking, and the output is the lexicographically
smallest string emitted at any leaf, so it is invariant under any
permutation of the input atom order.

The search is pruned with the automorphisms it finds on the way (McKay &
Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 2014). At
every leaf after the first, the map sending each atom to the atom of equal
rank in the first leaf is checked explicitly: it must preserve element,
aromatic flag, charge and hydrogens, and map every bond onto a bond of the
same order. A map that passes is an automorphism, so

* the leaf would emit the first leaf's string, so it is not emitted:
  SMILES emission reads only atom labels, bond orders and components,
  which an automorphism preserves;
* the subtree being explored, below the node where the two leaves' paths
  part, is the image of one already explored, and the search returns to
  that node;
* at every node, a tied atom is skipped when an automorphism that fixes the
  node's individualised atoms maps it onto a sibling already explored.

A leaf that fails the check is emitted; if its string repeats an earlier
leaf's, the map onto that leaf is checked the same way. Pruned subtrees are
images of explored ones and emit the same strings, so the result is
byte-identical to the exhaustive search. The number of leaves explored
grows with the size of the molecule instead of with the size of its
symmetry group (31,104 leaves before pruning, 12 after, for
pentaerythritol tetra(neopentyl ether)), and a molecule whose leaves all
emit one string is emitted once.

What a canonicalization costs: one refinement per search node, in which
only atoms of tied cells compute a neighbour signature (singleton cells
keep their place); one label-and-bond check per leaf after the first;
and one emission for the first leaf and for each leaf that fails its
check (that leaf is checked once more if its string repeats an earlier
leaf's other than the first). Tokens, neighbour lists and components
are built once per molecule.
"""

from __future__ import annotations

from .model import (
    AROMATIC,
    DOUBLE,
    ORDER_VALUE,
    ORGANIC_SUBSET,
    SINGLE,
    TRIPLE,
    MolecularGraph,
    _bare_hydrogens,
)

_BOND_RANK = {SINGLE: 0, AROMATIC: 1, DOUBLE: 2, TRIPLE: 3}
_BOND_TOKEN = {SINGLE: "", AROMATIC: "", DOUBLE: "=", TRIPLE: "#"}


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


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


class _Search:
    """Individualisation-refinement search with automorphism pruning.

    A partition is held as its cells, the atoms of each rank in rank order
    (each cell in increasing atom order), together with each atom's rank.
    """

    def __init__(self, graph: MolecularGraph):
        self.graph = graph
        n = self.n = len(graph.atoms)
        # Neighbour signature terms are (bond rank, neighbour rank) pairs,
        # packed as bond_rank * n + rank: ranks are below n, so the packed
        # integers sort exactly as the pairs do. The emitter walks the same
        # lists.
        self.nbrs = [
            [(_BOND_RANK[bond.order] * n, j) for j, bond in graph.adjacency[i]]
            for i in range(n)
        ]
        self.labels = [
            (a.element, a.aromatic, a.formal_charge, a.hydrogens) for a in graph.atoms
        ]
        self.emitter = _Emitter(graph, self.nbrs)
        # Emitted string -> (atom of each rank, path) of the first leaf that
        # emitted it; ``first`` is the entry of the first leaf of all.
        self.leaves: dict[str, tuple[list[int], tuple[int, ...]]] = {}
        self.first: tuple[list[int], tuple[int, ...]] | None = None
        # Bond order keyed u * n + v, both ways round; built on first use.
        self.orders: dict[int, str] | None = None
        # Each automorphism found, with the (atom, image) pairs it moves.
        self.generators: list[tuple[list[int], list[tuple[int, int]]]] = []

    def run(self) -> str:
        classes: dict[tuple, list[int]] = {}
        for atom, key in enumerate(initial_invariants(self.graph)):
            classes.setdefault(key, []).append(atom)
        self.visit(*self.refine([classes[key] for key in sorted(classes)]), ())
        return min(self.leaves)

    def refine(self, cells: list[list[int]]) -> tuple[list[int], list[list[int]]]:
        """Split tied cells by neighbour signature until none splits.

        Each round ranks the atoms of every tied cell by their sorted
        (bond rank, neighbour rank) terms under the previous round's ranks,
        visiting cells in rank order; that gives the dense ranks of
        (rank, signature) over all atoms, and a singleton cell needs no
        signature. Returns the ranks and the cells.
        """
        n, nbrs = self.n, self.nbrs
        ranks = [0] * n
        for r, members in enumerate(cells):
            for i in members:
                ranks[i] = r
        while len(cells) < n:
            split: list[list[int]] = []
            renumber = -1
            for members in cells:
                if len(members) == 1:
                    split.append(members)
                    continue
                groups: dict[tuple[int, ...], list[int]] = {}
                for i in members:
                    key = tuple(sorted([b + ranks[j] for b, j in nbrs[i]]))
                    group = groups.get(key)
                    if group is None:
                        groups[key] = [i]
                    else:
                        group.append(i)
                if len(groups) == 1:
                    split.append(members)
                    continue
                if renumber < 0:
                    renumber = len(split)
                split.extend([groups[key] for key in sorted(groups)])
            if renumber < 0:
                break
            cells = split
            # Cells before the first split keep their ranks.
            for r in range(renumber, len(cells)):
                for i in cells[r]:
                    ranks[i] = r
        return ranks, cells

    def visit(
        self, ranks: list[int], cells: list[list[int]], path: tuple[int, ...]
    ) -> int | None:
        """Explore the node reached by individualising ``path``.

        Returns None when done, or the depth of the ancestor to resume at
        when a found automorphism shows the rest of this subtree repeats
        one already explored.
        """
        if len(cells) == self.n:
            return self.leaf(ranks, path)
        target = next(r for r, members in enumerate(cells) if len(members) > 1)
        tied = cells[target]
        before, after = cells[:target], cells[target + 1 :]
        depth = len(path)
        orbits = list(range(self.n))
        absorbed = 0
        explored: list[int] = []
        for chosen in tied:
            absorbed = self.absorb(orbits, absorbed, path)
            root = _find(orbits, chosen)
            if any(_find(orbits, done) == root for done in explored):
                continue
            explored.append(chosen)
            # The chosen atom keeps the cell's rank; the rest follow it.
            rest = [i for i in tied if i != chosen]
            child = self.refine(before + [[chosen], rest] + after)
            resume = self.visit(*child, path + (chosen,))
            if resume is not None and resume < depth:
                return resume
        return None

    def absorb(self, orbits: list[int], start: int, path: tuple[int, ...]) -> int:
        """Merge into ``orbits`` the generators found since ``start`` that
        fix every atom of ``path``; returns the new count of generators."""
        for perm, moved in self.generators[start:]:
            if all(perm[p] == p for p in path):
                for a, b in moved:
                    ra, rb = _find(orbits, a), _find(orbits, b)
                    if ra != rb:
                        orbits[max(ra, rb)] = min(ra, rb)
        return len(self.generators)

    def leaf(self, ranks: list[int], path: tuple[int, ...]) -> int | None:
        first = self.first
        if first is not None:
            # An automorphism onto the first leaf carries this ranking onto
            # that leaf's, so this leaf would emit the same string.
            depth = self.match(first, ranks, path)
            if depth is not None:
                return depth
        text = self.emitter.emit(ranks)
        earlier = self.leaves.get(text)
        if earlier is None:
            atom_at = [0] * self.n
            for atom, r in enumerate(ranks):
                atom_at[r] = atom
            self.leaves[text] = entry = (atom_at, path)
            if first is None:
                self.first = entry
            return None
        if earlier is first:
            return None  # the map onto it failed above
        return self.match(earlier, ranks, path)

    def match(
        self,
        earlier: tuple[list[int], tuple[int, ...]],
        ranks: list[int],
        path: tuple[int, ...],
    ) -> int | None:
        """Record the map sending each atom to the atom of equal rank in an
        earlier leaf when it is an automorphism, and return the depth at
        which the two leaves' paths part; None when it is not."""
        atom_at, earlier_path = earlier
        perm = [atom_at[r] for r in ranks]
        if not self.is_automorphism(perm):
            return None
        self.generators.append(
            (perm, [(a, b) for a, b in enumerate(perm) if a != b])
        )
        # The automorphism maps this path onto the earlier one atom by atom,
        # so it fixes their common prefix and maps the child taken at the
        # first divergence onto a sibling explored before it.
        depth = 0
        while path[depth] == earlier_path[depth]:
            depth += 1
        return depth

    def is_automorphism(self, perm: list[int]) -> bool:
        labels = self.labels
        if [labels[b] for b in perm] != labels:
            return False
        n, bonds, orders = self.n, self.graph.bonds, self.orders
        if orders is None:
            orders = self.orders = {}
            for bond in bonds:
                orders[bond.a * n + bond.b] = orders[bond.b * n + bond.a] = bond.order
        for bond in bonds:
            if orders.get(perm[bond.a] * n + perm[bond.b]) != bond.order:
                return False
        return True


class _Emitter:
    """SMILES writer for a fixed graph under any discrete ranking.

    Atom and bond tokens and the components do not depend on the ranking
    and are built once; ``nbrs`` are the search's neighbour lists.
    """

    def __init__(self, graph: MolecularGraph, nbrs: list[list[tuple[int, int]]]):
        n = self.n = len(graph.atoms)
        self.nbrs = nbrs
        self.components = graph.components()
        self.atom_tokens = [_atom_token(graph, i) for i in range(n)]
        # Bond tokens keyed u * n + v, both ways round; most bonds write none.
        tokens: dict[int, str] = {}
        for bond in graph.bonds:
            token = _bond_token_between(graph, bond)
            if token:
                tokens[bond.a * n + bond.b] = tokens[bond.b * n + bond.a] = token
        self.bond_tokens = tokens

    def emit(self, ranks: list[int]) -> str:
        n, nbrs, atom_tokens = self.n, self.nbrs, self.atom_tokens
        bond_token = self.bond_tokens.get
        # 0 not reached, 1 on the depth-first path, 2 finished.
        state = [0] * n
        tree_children: list[list[int]] = [[] for _ in range(n)]
        closures: list[list[int]] = [[] for _ in range(n)]  # ring-closure partners

        # First pass: classify edges into spanning-tree and ring-closure edges
        # with a depth-first walk in canonical-rank order, mirroring emission.
        # A ring-closure edge is met first from its deeper end, while the
        # other end is still on the path.
        def explore(u: int, parent: int) -> None:
            state[u] = 1
            children = tree_children[u]
            for _, v in sorted([(ranks[j], j) for _, j in nbrs[u]]):
                if not state[v]:
                    children.append(v)
                    explore(v, u)
                elif state[v] == 1 and v != parent:
                    closures[u].append(v)
                    closures[v].append(u)
            state[u] = 2

        def walk(u: int) -> None:
            nonlocal opened
            out.append(atom_tokens[u])
            for v in closures[u]:
                digit = digit_of.pop(u * n + v, None)
                if digit is None:
                    opened += 1
                    digit = digit_of[v * n + u] = _digit(opened)
                    out.append(bond_token(u * n + v, ""))
                out.append(digit)
            children = tree_children[u]
            for child in children[:-1]:
                out.append("(")
                out.append(bond_token(u * n + child, ""))
                walk(child)
                out.append(")")
            if children:
                child = children[-1]
                out.append(bond_token(u * n + child, ""))
                walk(child)

        pieces = []
        for comp in self.components:
            root = min(comp, key=ranks.__getitem__)
            explore(root, -1)
            for u in comp:
                if len(closures[u]) > 1:
                    closures[u].sort(key=ranks.__getitem__)
            digit_of: dict[int, str] = {}
            opened = 0
            out: list[str] = []
            walk(root)
            pieces.append("".join(out))
        pieces.sort()
        return ".".join(pieces)


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
        if atom.explicit_h is None:
            # A bare atom's hydrogens are the default count by construction.
            return symbol
        order_sum = sum(ORDER_VALUE[bond.order] for _, bond in graph.adjacency[idx])
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
