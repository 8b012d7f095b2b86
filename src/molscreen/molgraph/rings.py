"""Smallest-set-of-smallest-rings perception.

Rings are searched on the 2-core of the graph: atoms with at most one
neighbour are stripped, repeatedly, until none is left. A stripped atom lies
on no cycle and is never an inner atom of a shortest path between two core
atoms, so the core holds every candidate ring the whole graph holds; a
cycle rooted at a stripped atom would pass twice through the atom that
attaches it to the core, and the search rejects such cycles anyway.

Each connected component of the core is one ring system. A component whose
atoms all have exactly two core neighbours is a single simple cycle and is
taken as its ring directly. Fused, bridged, spiro and linked systems go
through Horton-style candidate enumeration (roots and edges from the
component only) followed by a greedy GF(2) independence pass. Candidates
are ordered by (size, normalized atom tuple), which makes the selected basis
deterministic for a fixed atom ordering and minimal in total ring size. The
number of selected rings always equals the cyclomatic number
``bonds - atoms + components``. Ring systems share no edge, so choosing per
component selects what one pass over all candidates would.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque


@dataclass(frozen=True)
class RingInfo:
    rings: tuple[tuple[int, ...], ...]
    ring_membership: tuple[bool, ...]
    ring_edges: frozenset[frozenset[int]]


def find_sssr(n_atoms: int, edges: list[tuple[int, int]]) -> RingInfo:
    adj: list[list[int]] = [[] for _ in range(n_atoms)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    in_core = two_core(adj)
    core_adj = [
        sorted(v for v in nbrs if in_core[v]) if in_core[u] else []
        for u, nbrs in enumerate(adj)
    ]

    chosen: list[tuple[int, ...]] = []
    seen = [False] * n_atoms
    for start in range(n_atoms):
        if not in_core[start] or seen[start]:
            continue
        component = _component(core_adj, start, seen)
        if all(len(core_adj[u]) == 2 for u in component):
            chosen.append(_trace_cycle(core_adj, start))
        else:
            chosen.extend(_ring_system_sssr(n_atoms, core_adj, component))

    chosen.sort(key=lambda cyc: (len(cyc), cyc))
    membership = [False] * n_atoms
    ring_edges: set[frozenset[int]] = set()
    for cyc in chosen:
        for i in range(len(cyc)):
            membership[cyc[i]] = True
            ring_edges.add(frozenset((cyc[i - 1], cyc[i])))
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


def _bfs_parents(n_atoms: int, adj: list[list[int]], root: int) -> list[int]:
    seen = [False] * n_atoms
    parent = [-1] * n_atoms
    seen[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                queue.append(v)
    return parent


def _path_to_root(parent: list[int], node: int) -> list[int]:
    path = [node]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    return path


def _horton_candidates(
    n_atoms: int,
    adj: list[list[int]],
    component: list[int],
    edges: list[tuple[int, int]],
) -> set[tuple[int, ...]]:
    """All cycles of the form path(v,x) + edge(x,y) + path(y,v), rooted at
    every atom of one ring system and closed by each of its edges."""
    out: set[tuple[int, ...]] = set()
    for root in component:
        parent = _bfs_parents(n_atoms, adj, root)
        for x, y in edges:
            px = _path_to_root(parent, x)
            py = _path_to_root(parent, y)
            if set(px) & set(py) != {root}:
                continue
            cycle = px[::-1] + py[:-1]  # root..x, then y..(just before root)
            if len(cycle) < 3 or len(set(cycle)) != len(cycle):
                continue
            out.add(_normalize_cycle(cycle))
    return out


def _normalize_cycle(cycle: list[int]) -> tuple[int, ...]:
    """Rotate/reflect so the tuple starts at the smallest atom and is
    lexicographically minimal; purely cosmetic but fixes determinism."""
    k = len(cycle)
    start = cycle.index(min(cycle))
    fwd = tuple(cycle[(start + i) % k] for i in range(k))
    rev = tuple(cycle[(start - i) % k] for i in range(k))
    return min(fwd, rev)
