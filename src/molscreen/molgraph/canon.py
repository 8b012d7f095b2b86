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
leaf's other than the first). Signature terms and tokens are built once
per molecule from its bonds; an emission orders every atom's neighbours
by rank in one pass over the ranking and walks without recursion, so a
long chain or a deep branch nest costs stack entries, not interpreter
frames.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable

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
    membership = graph.rings.ring_membership
    return [
        (atom.element, atom.aromatic, atom.formal_charge, atom.hydrogens, len(row), ring)
        for atom, row, ring in zip(graph.atoms, graph.neighbours, membership)
    ]


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
        # integers sort exactly as the pairs do.
        nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for a, b, order in graph.bonds:
            packed = _BOND_RANK[order] * n
            nbrs[a].append((packed, b))
            nbrs[b].append((packed, a))
        self.nbrs = nbrs
        self.emitter = _Emitter(graph)
        # Emitted string -> (atom of each rank, path) of the first leaf that
        # emitted it; ``first`` is the entry of the first leaf of all.
        self.leaves: dict[str, tuple[list[int], tuple[int, ...]]] = {}
        self.first: tuple[list[int], tuple[int, ...]] | None = None
        # Atom labels, and bond order keyed u * n + v both ways round, for
        # the automorphism check; built on first use.
        self.labels: list[tuple] | None = None
        self.orders: dict[int, str] = {}
        # Each automorphism found, with the (atom, image) pairs it moves.
        self.generators: list[tuple[list[int], list[tuple[int, int]]]] = []

    def run(self) -> str:
        classes: dict[tuple, list[int]] = {}
        for atom, key in enumerate(initial_invariants(self.graph)):
            classes.setdefault(key, []).append(atom)
        self.visit(*self.refine([classes[key] for key in sorted(classes)], None), ())
        return min(self.leaves)

    def refine(
        self, cells: list[list[int]], moved: Iterable[int] | None
    ) -> tuple[list[int], list[list[int]]]:
        """Split tied cells by neighbour signature until none splits.

        Each round ranks the atoms of every tied cell by their sorted
        (bond rank, neighbour rank) terms under the previous round's ranks
        and splits the cell into groups of equal terms in increasing order,
        each group in increasing atom order. A rank here is the position of
        the first atom of the atom's cell in the cell order, not the cell's
        index: the two grow together, so the terms of two atoms compare
        alike under either, and a split renumbers only the cell it splits.

        Only cells next to a moved atom are signed. ``moved`` holds the
        atoms that changed part since the members of each input cell last
        had equal terms: below the root, the atom just individualised,
        split off from a partition that no round splits; None at the root,
        where every tied cell is signed in full. A member with no moved
        neighbour sees each part as it saw the part that held it before,
        so all such members of a cell keep equal terms, and one of them is
        signed for all. After each round, the members of every new group
        but the largest of its cell have moved. Returns the ranks and the
        cells.
        """
        n, nbrs = self.n, self.nbrs
        ranks = [0] * n
        cell_at: list[list[int]] = [[]] * n  # each cell at its first position
        hits: dict[int, Collection[int]] = {}  # tied cell -> members to sign
        start = 0
        for members in cells:
            cell_at[start] = members
            for i in members:
                ranks[i] = start
            if moved is None and len(members) > 1:
                hits[start] = members
            start += len(members)
        count = len(cells)
        while count < n:
            if moved is not None:
                hits = {}
                for m in moved:
                    for _, j in nbrs[m]:
                        hit = hits.get(ranks[j])
                        if hit is None:
                            hits[ranks[j]] = {j}
                        else:
                            hit.add(j)
            splits: list[tuple[int, list[list[int]]]] = []
            for start, hit in hits.items():
                members = cell_at[start]
                size = len(members)
                if size == 1:
                    continue
                groups: dict[tuple[int, ...], list[int]] = {}
                partial = len(hit) < size
                if partial:
                    rest = [i for i in members if i not in hit]
                    groups[tuple(sorted([b + ranks[j] for b, j in nbrs[rest[0]]]))] = rest
                    hit = sorted(hit)
                for i in hit:
                    key = tuple(sorted([b + ranks[j] for b, j in nbrs[i]]))
                    group = groups.get(key)
                    if group is None:
                        groups[key] = [i]
                    else:
                        group.append(i)
                if len(groups) == 1:
                    continue
                if partial and len(rest) + len(hit) > size:
                    rest.sort()  # signed members joined the unsigned ones
                splits.append((start, [groups[key] for key in sorted(groups)]))
            if not splits:
                break
            moved = []
            for start, groups in splits:
                largest = max(groups, key=len)
                position = start
                for group in groups:
                    cell_at[position] = group
                    if position != start:
                        for i in group:
                            ranks[i] = position
                    if group is not largest:
                        moved += group
                    position += len(group)
                count += len(groups) - 1
        if count == len(cells):
            return ranks, cells
        cells = []
        start = 0
        while start < n:
            cells.append(cell_at[start])
            start += len(cell_at[start])
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
            child = self.refine(before + [[chosen], rest] + after, (chosen,))
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
        labels, orders = self.labels, self.orders
        if labels is None:
            labels = self.labels = [
                (a.element, a.aromatic, a.formal_charge, a.hydrogens)
                for a in self.graph.atoms
            ]
        if [labels[b] for b in perm] != labels:
            return False
        n, bonds = self.n, self.graph.bonds
        if not orders:
            for a, b, order in bonds:
                orders[a * n + b] = orders[b * n + a] = order
        for a, b, order in bonds:
            if orders.get(perm[a] * n + perm[b]) != order:
                return False
        return True


class _Emitter:
    """SMILES writer for a fixed graph under any discrete ranking.

    Atom and bond tokens do not depend on the ranking and are built once.
    Writing walks each component depth first from its lowest-ranked atom,
    visiting neighbours in rank order, with explicit stacks, so the depth
    of a molecule costs no interpreter recursion.
    """

    def __init__(self, graph: MolecularGraph):
        n = self.n = len(graph.atoms)
        self.neighbours = graph.neighbours
        self.atom_tokens = [_atom_token(graph, i) for i in range(n)]
        # Bond tokens keyed u * n + v, both ways round; most bonds write none.
        atoms = graph.atoms
        tokens: dict[int, str] = {}
        for a, b, order in graph.bonds:
            if order == SINGLE:
                token = "-" if atoms[a].aromatic and atoms[b].aromatic else ""
            else:
                token = _BOND_TOKEN[order]
            if token:
                tokens[a * n + b] = tokens[b * n + a] = token
        self.bond_tokens = tokens

    def emit(self, ranks: list[int]) -> str:
        n, neighbours, atom_tokens = self.n, self.neighbours, self.atom_tokens
        bond_token = self.bond_tokens.get
        atom_at = [0] * n
        for atom, r in enumerate(ranks):
            atom_at[r] = atom
        # Every atom's neighbours in rank order, from one pass over the
        # atoms in rank order.
        ordered: list[list[int]] = [[] for _ in range(n)]
        for u in atom_at:
            for v in neighbours[u]:
                ordered[v].append(u)

        # The depth-first tree: ``parent`` is -2 for an atom not reached
        # and -1 for a component's root. Every other bond closes a ring; its
        # two atoms are an ancestor and a descendant, so the ancestor writes
        # the ring-closure digit first.
        parent = [-2] * n
        pieces = []
        for root in atom_at:  # a component's first atom in rank order
            if parent[root] != -2:
                continue
            parent[root] = -1
            path = [(root, iter(ordered[root]))]
            while path:
                u, rest = path[-1]
                for v in rest:
                    if parent[v] == -2:
                        parent[v] = u
                        path.append((v, iter(ordered[v])))
                        break
                else:
                    path.pop()

            # Write atom by atom; the stack holds atoms still to write and
            # the branch and bond tokens between them, last first.
            digit_of: dict[int, str] = {}
            opened = 0
            out: list[str] = []
            stack: list = [root]
            while stack:
                u = stack.pop()
                if u.__class__ is str:
                    out.append(u)
                    continue
                while True:
                    out.append(atom_tokens[u])
                    up = parent[u]
                    children = []
                    for v in ordered[u]:
                        if parent[v] == u:
                            children.append(v)
                        elif v != up:
                            digit = digit_of.pop(u * n + v, None)
                            if digit is None:
                                opened += 1
                                digit = digit_of[v * n + u] = _digit(opened)
                                out.append(bond_token(u * n + v, ""))
                            out.append(digit)
                    if not children:
                        break
                    last = children.pop()
                    if children:
                        # Branches first, in rank order, then the last child.
                        stack.append(last)
                        stack.append(bond_token(u * n + last, ""))
                        for child in reversed(children):
                            stack.append(")")
                            stack.append(child)
                            stack.append(bond_token(u * n + child, ""))
                            stack.append("(")
                        break
                    out.append(bond_token(u * n + last, ""))
                    u = last
            pieces.append("".join(out))
        pieces.sort()
        return ".".join(pieces)


def _digit(number: int) -> str:
    return str(number) if number <= 9 else f"%{number:02d}"


def _atom_token(graph: MolecularGraph, idx: int) -> str:
    atom = graph.atoms[idx]
    symbol = atom.element.lower() if atom.aromatic else atom.element

    if atom.formal_charge == 0 and atom.element in ORGANIC_SUBSET:
        if atom.explicit_h is None:
            # A bare atom's hydrogens are the default count by construction.
            return symbol
        order_sum = sum(
            ORDER_VALUE[order] for a, b, order in graph.bonds if idx in (a, b)
        )
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
