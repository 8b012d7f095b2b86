"""Smallest-set-of-smallest-rings perception.

Rings are searched on the 2-core of the graph: atoms with at most one
neighbour are stripped, repeatedly, until none is left. A stripped atom lies
on no cycle and is never an inner atom of a shortest path between two core
atoms, so the core holds every candidate ring the whole graph holds; a
cycle rooted at a stripped atom would pass twice through the atom that
attaches it to the core, and the search rejects such cycles anyway.

Each connected component of the core is split at its bridges, the bonds
on no cycle, into ring systems: the 2-edge-connected components, each a
ring or a set of rings sharing atoms. A system whose atoms all have exactly
two neighbours in it is a single simple cycle and is taken as its ring
directly, so rings joined by a linker are traced one by one. Fused, bridged
and spiro systems go through Horton-style candidate enumeration (roots and
edges from the system only) followed by a greedy GF(2) independence pass.
Candidates are ordered by (size, normalized atom tuple), which makes the
selected basis deterministic for a fixed atom ordering and minimal in total
ring size. The number of selected rings always equals the cyclomatic number
``bonds - atoms + components``. Every cycle lies in one ring system, and
ring systems share no edge, so choosing per system selects what one pass
over all candidates would.

A shortest path between two atoms of one ring system never leaves it:
leaving crosses a bridge, and coming back would cross it again. So the
breadth-first trees rooted in a system, and with them its candidates, are
the same whether the search runs on the system or on its whole core
component, and a root outside a system closes no candidate in it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class RingInfo:
    rings: tuple[tuple[int, ...], ...]
    ring_membership: tuple[bool, ...]
    ring_edges: frozenset[frozenset[int]]


def find_sssr(neighbours: Sequence[Sequence[int]]) -> RingInfo:
    """SSSR of the graph whose atom ``i`` is bonded to ``neighbours[i]``,
    each listed in increasing atom order."""
    n_atoms = len(neighbours)
    in_core = two_core(neighbours)
    if not any(in_core):
        return RingInfo(rings=(), ring_membership=(False,) * n_atoms, ring_edges=frozenset())
    core_adj = [
        [v for v in nbrs if in_core[v]] if in_core[u] else []
        for u, nbrs in enumerate(neighbours)
    ]

    chosen: list[tuple[int, ...]] = []
    seen = [False] * n_atoms
    for start in range(n_atoms):
        if not in_core[start] or seen[start]:
            continue
        component = _component(core_adj, start, seen)
        systems = [component]
        if any(len(core_adj[u]) != 2 for u in component):
            _split_at_bridges(core_adj, component)
            systems = _ring_systems(core_adj, component)
        for system in systems:
            if all(len(core_adj[u]) == 2 for u in system):
                chosen.append(_trace_cycle(core_adj, system[0]))
            else:
                chosen.extend(_ring_system_sssr(n_atoms, core_adj, system))

    chosen.sort(key=lambda cyc: (len(cyc), cyc))
    membership = [False] * n_atoms
    ring_edges: set[frozenset[int]] = set()
    for cyc in chosen:
        prev = cyc[-1]
        for atom in cyc:
            membership[atom] = True
            ring_edges.add(frozenset((prev, atom)))
            prev = atom
    return RingInfo(
        rings=tuple(chosen),
        ring_membership=tuple(membership),
        ring_edges=frozenset(ring_edges),
    )


def two_core(adj: list[list[int]]) -> list[bool]:
    """Per atom, whether it is in the 2-core: what is left after atoms with
    at most one remaining neighbour are stripped until none is left."""
    degree = [len(nbrs) for nbrs in adj]
    alive = [d > 1 for d in degree]
    queue = [u for u, d in enumerate(degree) if d <= 1]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if alive[v]:
                degree[v] -= 1
                if degree[v] <= 1:
                    alive[v] = False
                    queue.append(v)
    return alive


def _component(adj: list[list[int]], start: int, seen: list[bool]) -> list[int]:
    seen[start] = True
    comp, stack = [start], [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                comp.append(v)
                stack.append(v)
    return comp


def _split_at_bridges(adj: list[list[int]], component: list[int]) -> None:
    """Remove from ``adj`` every bridge of one connected component: the
    bonds whose removal disconnects it (Tarjan's low-link test on an
    iterative depth-first walk)."""
    order: dict[int, int] = {component[0]: 0}
    low = {component[0]: 0}
    bridges: list[tuple[int, int]] = []
    stack = [(component[0], -1, iter(adj[component[0]]))]
    while stack:
        u, parent, pending = stack[-1]
        for v in pending:
            if v not in order:
                order[v] = low[v] = len(order)
                stack.append((v, u, iter(adj[v])))
                break
            if v != parent and order[v] < low[u]:
                low[u] = order[v]
        else:
            stack.pop()
            if parent >= 0:
                if low[u] < low[parent]:
                    low[parent] = low[u]
                if low[u] > order[parent]:
                    bridges.append((parent, u))
    for a, b in bridges:
        adj[a].remove(b)
        adj[b].remove(a)


def _ring_systems(adj: list[list[int]], component: list[int]) -> list[list[int]]:
    """The connected parts of ``component`` under ``adj`` that hold a
    cycle; an atom that only linked ring systems is left alone."""
    systems = []
    seen = {u: False for u in component}
    for start in component:
        if not seen[start] and adj[start]:
            systems.append(_component(adj, start, seen))
    return systems


def _trace_cycle(adj: list[list[int]], start: int) -> tuple[int, ...]:
    """Walk a component in which every atom has two neighbours."""
    cycle = [start]
    prev, cur = start, adj[start][0]
    while cur != start:
        cycle.append(cur)
        a, b = adj[cur]
        prev, cur = cur, (b if a == prev else a)
    return _normalize_cycle(cycle)


def _ring_system_sssr(
    n_atoms: int, adj: list[list[int]], component: list[int]
) -> list[tuple[int, ...]]:
    """Greedy GF(2) Gaussian elimination over the edge incidence vectors of
    one ring system's Horton candidates."""
    edges = [(u, v) for u in component for v in adj[u] if u < v]
    edge_bit = {edge: 1 << i for i, edge in enumerate(edges)}
    target = len(edges) - len(component) + 1
    basis: list[int] = []
    chosen: list[tuple[int, ...]] = []
    for cyc in sorted(_horton_candidates(n_atoms, adj, component, edges),
                      key=lambda cyc: (len(cyc), cyc)):
        vec = 0
        for i in range(len(cyc)):
            a, b = cyc[i - 1], cyc[i]
            vec |= edge_bit[(a, b) if a < b else (b, a)]
        for row in basis:
            low = row & -row
            if vec & low:
                vec ^= row
        if vec:
            basis.append(vec)
            basis.sort(key=lambda r: r & -r)
            chosen.append(cyc)
            if len(chosen) == target:
                return chosen
    raise RuntimeError(  # pragma: no cover - Horton set always suffices
        "SSSR search failed to reach the cyclomatic number"
    )


def _horton_candidates(
    n_atoms: int,
    adj: list[list[int]],
    component: list[int],
    edges: list[tuple[int, int]],
) -> set[tuple[int, ...]]:
    """All cycles of the form path(v,x) + edge(x,y) + path(y,v), rooted at
    every atom of one ring system and closed by each of its edges.

    The two tree paths from the root meet only at the root exactly when
    ``x`` and ``y`` hang below different children of the root, so each
    atom is labelled with its first hop from the root and an edge closes
    a candidate when its two labels differ. An edge at the root closes
    none: the root's neighbours are its children, and the pair would make
    a two-atom cycle.
    """
    out: set[tuple[int, ...]] = set()
    for root in component:
        parent = [-1] * n_atoms
        hop = [-1] * n_atoms
        hop[root] = root
        queue = [root]
        for u in queue:  # breadth first: the list grows while it is read
            for v in adj[u]:
                if hop[v] < 0:
                    parent[v] = u
                    hop[v] = v if u == root else hop[u]
                    queue.append(v)
        for x, y in edges:
            if hop[x] == hop[y] or x == root or y == root:
                continue
            cycle = []
            while x != root:
                cycle.append(x)
                x = parent[x]
            cycle.append(root)
            cycle.reverse()  # root..x, then y..(just before root)
            while y != root:
                cycle.append(y)
                y = parent[y]
            out.add(_normalize_cycle(cycle))
    return out


def _normalize_cycle(cycle: list[int]) -> tuple[int, ...]:
    """Rotate/reflect so the tuple starts at the smallest atom and is
    lexicographically minimal; purely cosmetic but fixes determinism."""
    start = cycle.index(min(cycle))
    turned = cycle[start:] + cycle[:start]
    # Both directions start at the smallest atom; the atoms after it differ.
    if turned[1] < turned[-1]:
        return tuple(turned)
    return (turned[0],) + tuple(reversed(turned[1:]))
