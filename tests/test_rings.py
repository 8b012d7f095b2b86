import random
from collections import deque

import pytest

from molscreen.molgraph import MolGraphError, RingInfo, parse_smiles
from molscreen.molgraph.rings import find_sssr as package_sssr

from conftest import neighbour_lists, permute_graph, random_molecule, synthetic_pool_rows

# --- all-atom reference ---------------------------------------------------
#
# Ring perception as it was before the search moved to the 2-core: every
# atom is a BFS root and every edge closes a candidate. It serves as the
# oracle for the package's search, which must return the same rings in the
# same order, the same membership and the same ring edges.


def find_sssr(n_atoms: int, edges: list[tuple[int, int]]) -> RingInfo:
    adj: list[list[int]] = [[] for _ in range(n_atoms)]
    edge_ids: dict[frozenset[int], int] = {}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
        edge_ids[frozenset((a, b))] = len(edge_ids)
    for nbrs in adj:
        nbrs.sort()

    n_components = _count_components(n_atoms, adj)
    target = len(edges) - n_atoms + n_components
    if target <= 0:
        return RingInfo(
            rings=(),
            ring_membership=tuple(False for _ in range(n_atoms)),
            ring_edges=frozenset(),
        )

    candidates = _horton_candidates(n_atoms, edges, adj)
    candidates.sort(key=lambda cyc: (len(cyc), cyc))

    # Greedy GF(2) Gaussian elimination over edge incidence vectors.
    basis: list[int] = []
    chosen: list[tuple[int, ...]] = []
    for cyc in candidates:
        vec = 0
        for i in range(len(cyc)):
            vec |= 1 << edge_ids[frozenset((cyc[i], cyc[(i + 1) % len(cyc)]))]
        for row in basis:
            low = row & -row
            if vec & low:
                vec ^= row
        if vec:
            basis.append(vec)
            basis.sort(key=lambda r: r & -r)
            chosen.append(cyc)
            if len(chosen) == target:
                break
    if len(chosen) != target:  # pragma: no cover - Horton set always suffices
        raise RuntimeError("SSSR search failed to reach the cyclomatic number")

    chosen.sort(key=lambda cyc: (len(cyc), cyc))
    membership = [False] * n_atoms
    ring_edges: set[frozenset[int]] = set()
    paths: list[tuple[int, ...]] = []
    for cyc in chosen:
        for i in range(len(cyc)):
            membership[cyc[i]] = True
            ring_edges.add(frozenset((cyc[i], cyc[(i + 1) % len(cyc)])))
        paths.append(cyc)
    return RingInfo(
        rings=tuple(paths),
        ring_membership=tuple(membership),
        ring_edges=frozenset(ring_edges),
    )


def _count_components(n_atoms: int, adj: list[list[int]]) -> int:
    seen = [False] * n_atoms
    count = 0
    for start in range(n_atoms):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
    return count


def _bfs(n_atoms: int, adj: list[list[int]], root: int) -> tuple[list[int], list[int]]:
    dist = [-1] * n_atoms
    parent = [-1] * n_atoms
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
    return dist, parent


def _path_to_root(parent: list[int], node: int) -> list[int]:
    path = [node]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    return path


def _horton_candidates(
    n_atoms: int, edges: list[tuple[int, int]], adj: list[list[int]]
) -> list[tuple[int, ...]]:
    """All cycles of the form path(v,x) + edge(x,y) + path(y,v)."""
    seen: set[frozenset[frozenset[int]]] = set()
    out: list[tuple[int, ...]] = []
    for root in range(n_atoms):
        dist, parent = _bfs(n_atoms, adj, root)
        for x, y in edges:
            if dist[x] < 0 or dist[y] < 0:
                continue
            px = _path_to_root(parent, x)
            py = _path_to_root(parent, y)
            if set(px) & set(py) != {root}:
                continue
            cycle = px[::-1] + py[:-1]  # root..x, then y..(just before root)
            if len(cycle) < 3 or len(set(cycle)) != len(cycle):
                continue
            edge_set = frozenset(
                frozenset((cycle[i], cycle[(i + 1) % len(cycle)]))
                for i in range(len(cycle))
            )
            if edge_set in seen:
                continue
            seen.add(edge_set)
            out.append(_normalize_cycle(cycle))
    return out


def _normalize_cycle(cycle: list[int]) -> tuple[int, ...]:
    """Rotate/reflect so the tuple starts at the smallest atom and is
    lexicographically minimal; purely cosmetic but fixes determinism."""
    k = len(cycle)
    start = cycle.index(min(cycle))
    fwd = tuple(cycle[(start + i) % k] for i in range(k))
    rev = tuple(cycle[(start - i) % k] for i in range(k))
    return min(fwd, rev)


def reference_rings(graph) -> RingInfo:
    return find_sssr(len(graph.atoms), [(b.a, b.b) for b in graph.bonds])


def assert_matches_reference(graph) -> None:
    edges = [(b.a, b.b) for b in graph.bonds]
    got = package_sssr(neighbour_lists(len(graph.atoms), edges))
    want = reference_rings(graph)
    assert got.rings == want.rings
    assert got.ring_membership == want.ring_membership
    assert got.ring_edges == want.ring_edges
    assert graph.rings == want


# Cages, bridged, spiro, fused and linked ring systems, and a salt with one
# ring in each part. Linked systems keep their linker in the 2-core; the
# search splits that core at its bridges into ring systems.
HARD_RINGS = [
    "C12C3C4C1C5C2C3C45",  # cubane
    "C1C2CC3CC1CC(C2)C3",  # adamantane
    "C1CC2CCC1CC2",  # bicyclo[2.2.2]octane
    "C1CCC2(CC1)CCCC2",  # spiro[4.5]decane
    "c1ccc2cc3ccccc3cc2c1",  # anthracene
    "c1ccc(-c2ccccc2)cc1",  # biphenyl
    "C1CC1C1CC1",  # bicyclopropyl
    "c1ccc(Cc2ccc3ccccc3c2)cc1",  # benzene-CH2-naphthalene
    "[NH3+]C1CCCCC1.[O-]C(=O)c1ccccc1",
] + [
    "c1ccc(cc1)P(c1ccccc1)c1ccccc1",  # triphenylphosphine
    "C1CC1CCCC1CCCC1",  # ring-chain-ring
    "C1CCC2(CC1)CCC(C2)Cc1ccccc1",  # spiro system linked to a ring
    "C1CC2CCC1CC2CC1CCCCC1",  # bridged system linked to a ring
    "c1ccc2ccccc2c1Oc1ccccc1C1CC1",  # fused system, linked ring, linked ring
]

# Rings joined only by linkers: after the split every ring system is one
# simple cycle.
LINKED_RINGS = [
    "c1ccc(-c2ccccc2)cc1",  # biphenyl
    "c1ccc(Oc2ccccc2)cc1",  # diphenyl ether
    "c1ccc(Cc2ccccc2)cc1",  # diphenylmethane
    "c1ccc(cc1)P(c1ccccc1)c1ccccc1",  # triphenylphosphine
    "C1CC1CCCC1CCCC1",  # ring-chain-ring
]


def test_matches_reference_on_synthetic_pool():
    for smiles in synthetic_pool_rows():
        try:
            graph = parse_smiles(smiles)
        except MolGraphError:
            continue  # the planted unparseable row
        assert_matches_reference(graph)


def test_matches_reference_on_random_molecules():
    rng = random.Random(1996)
    for _ in range(500):
        assert_matches_reference(random_molecule(rng, max_atoms=14))


@pytest.mark.parametrize("smiles", HARD_RINGS)
def test_matches_reference_on_hard_ring_systems(smiles):
    graph = parse_smiles(smiles)
    assert graph.rings.rings  # every case has rings
    assert_matches_reference(graph)
    rng = random.Random(len(smiles))
    for _ in range(10):
        order = list(range(len(graph.atoms)))
        rng.shuffle(order)
        assert_matches_reference(permute_graph(graph, order))


@pytest.mark.parametrize("smiles", LINKED_RINGS)
def test_linked_rings_are_traced_one_by_one(smiles, monkeypatch):
    from molscreen.molgraph import rings

    def horton(*args):
        raise AssertionError("a linked ring went through the Horton search")

    monkeypatch.setattr(rings, "_ring_system_sssr", horton)
    graph = parse_smiles(smiles)
    assert len(graph.rings.rings) >= 2
    assert_matches_reference(graph)


def test_fused_system_still_goes_through_horton(monkeypatch):
    from molscreen.molgraph import rings

    calls = []
    search = rings._ring_system_sssr
    monkeypatch.setattr(rings, "_ring_system_sssr",
                        lambda *args: calls.append(args[2]) or search(*args))
    graph = parse_smiles("c1ccc2ccccc2c1Oc1ccccc1")
    assert [sorted(system) for system in calls] == [list(range(10))]  # the naphthalene
    assert_matches_reference(graph)
