"""Seeded input generators for the benchmark.

Everything here is self-contained: the benchmark never imports the test
suite or the package to build its inputs, so editing either cannot shift a
workload. Inputs are cut into numbered chunks whose contents depend only on
the workload and the chunk index; the run seed only chooses the order in
which chunks are visited (``chunk_order``). That keeps one recorded result
digest per chunk valid for every seed.
"""

from __future__ import annotations

import csv
import io
import re

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def derive(seed: int, index: int) -> int:
    """Seed of sub-stream ``index`` (the splitmix64 finalizer of
    ``seed + GAMMA * (index + 1)``)."""
    return _mix((seed + _GAMMA * (index + 1)) & _MASK)


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def below(self, n: int) -> int:
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def sample(self, items: list, k: int) -> list:
        pool = list(items)
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def uniform_block(seed: int, count: int) -> np.ndarray:
    """``count`` splitmix64 draws mapped to [0, 1), vectorised with uint64
    wrap-around arithmetic (identical to ``count`` calls of ``next_u64``)."""
    steps = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK) + steps * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def chunk_order(seed: int, n_chunks: int) -> list[int]:
    """The seed's permutation of the chunk indices: the order a run visits
    chunks in (wrapping around when a run outlasts them)."""
    return SplitMix64(derive(seed, 0)).sample(list(range(n_chunks)), n_chunks)


# --- screening pool -------------------------------------------------------

# 16 substituted templates covering every registry group, 28 substituents
# per position: 16 x 28 x 28 = 12,544 pool rows.
POOL_TEMPLATES = (
    "{a}c1ccc({b})cc1", "{a}c1cc({b})ccc1", "{a}c1c({b})cccc1",
    "{a}c1cc({b})ncc1", "{a}c1ccc({b})nc1",
    "{a}c1cc({b})cs1", "{a}c1csc({b})n1", "{a}c1cc({b})co1", "{a}c1cc({b})c[nH]1",
    "{a}c1ccc2cc({b})ccc2c1",
    "{a}C1CCN({b})CC1", "{a}C1CC({b})NCC1",
    "{a}C1CCC({b})CC1", "{a}C1CC({b})CCC1",
    "{a}C1CC({b})CO1", "{a}C1COC({b})CO1",
)

POOL_SUBSTITUENTS = (
    "N", "O", "C", "CC", "CCC", "CCCC", "CCO", "CCN", "CCS", "OC", "OCC",
    "NC", "NCC", "SC", "C(=O)O", "C(=O)N", "C#N", "Cl", "F", "CN(C)C",
    "OCCO", "COC", "CNC", "CCCCC", "OCCN", "CC(C)C", "CCOC", "NCCO",
)

# Rows every screening chunk carries, with the outcome each must have.
PLANTED_VOCABULARY = ("C[Se]C", "CC[Se]CC")
PLANTED_NOVEL = ("C1CCCCCC1", "c1ccc2cc3ccccc3cc2c1")
PLANTED_UNPARSEABLE = ("C1CC",)
PLANTED_DUPLICATES = ("OCC", "CCO")
PLANTED = PLANTED_VOCABULARY + PLANTED_NOVEL + PLANTED_UNPARSEABLE + PLANTED_DUPLICATES

VOCABULARY = ["C", "N", "O", "S", "P", "F", "Cl", "Br", "I", "B", "Si", "H", "K"]
THRESHOLDS = {"dn_min": 12.0, "dm_min": 1.0, "ha_min": 1}
TOP_FRACTION = 0.01


def pool_universe() -> list[str]:
    """Every template row, in a fixed order (index = row identity)."""
    return [
        t.format(a=a, b=b)
        for t in POOL_TEMPLATES
        for a in POOL_SUBSTITUENTS
        for b in POOL_SUBSTITUENTS
    ]


# Templates whose two positions are equivalent under the ring's symmetry.
SWAP_SYMMETRIC = frozenset({0, 1, 2, 9, 12, 13, 15})


def _prefix_group(sub: str) -> str:
    """The substituent a string spells in front of the ring, written as it
    would be in the branch position. There the ring bonds to the string's
    last atom, so a plain chain reads backwards ("CCO" in front is the
    branch "OCC", ethoxy). The two branched strings read the same both
    ways; the rest have no branch spelling and stay distinct."""
    if sub in ("CN(C)C", "CC(C)C"):
        return sub
    if any(ch in sub for ch in "()=#"):
        return "prefix:" + sub
    return "".join(reversed(re.findall(r"Cl|[A-Z]", sub)))


def distinct_rows() -> list[int]:
    """Universe indices of pairwise different molecules: the first index
    of every group of rows that spell one molecule."""
    k = len(POOL_SUBSTITUENTS)
    seen, rows = set(), []
    for t in range(len(POOL_TEMPLATES)):
        for a in range(k):
            for b in range(k):
                pair = [_prefix_group(POOL_SUBSTITUENTS[a]), POOL_SUBSTITUENTS[b]]
                key = (t, *(sorted(pair) if t in SWAP_SYMMETRIC else pair))
                if key not in seen:
                    seen.add(key)
                    rows.append((t * k + a) * k + b)
    return rows


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def stratified_draw(rng: SplitMix64, candidates: list[int], rows: int) -> list[int]:
    """``rows`` universe indices drawn without replacement, the same number
    from every template (the first ``rows % 16`` templates give one more),
    so chunks are alike in cost."""
    per_template = len(POOL_SUBSTITUENTS) ** 2
    by_template: list[list[int]] = [[] for _ in POOL_TEMPLATES]
    for index in candidates:
        by_template[index // per_template].append(index)
    picks = []
    for t, members in enumerate(by_template):
        count = rows // len(POOL_TEMPLATES) + (t < rows % len(POOL_TEMPLATES))
        picks.extend(rng.sample(members, count))
    return picks


def screen_chunk(chunk: int, rows: int) -> dict[str, str]:
    """Pool, property-table and CAS-table CSV texts for one screening chunk.

    ``rows`` template rows are drawn by ``stratified_draw``, then the
    planted rows are appended. Table values follow each row's universe
    index, so a molecule gets the same properties in every chunk; roughly
    one row in eleven has no donor number and one in three no CAS code.
    """
    universe = pool_universe()
    picks = stratified_draw(SplitMix64(derive(chunk, 1)), list(range(len(universe))), rows)
    pool = [universe[i] for i in picks] + list(PLANTED)
    props, cas = [], []
    for i in picks:
        dn = "" if i % 11 == 0 else f"{8 + (i % 35)}"
        props.append([universe[i], dn, f"{(i % 50) / 10:.1f}", ""])
        if i % 3 != 0:
            cas.append([universe[i], f"{1000 + i}-{10 + i % 80}-{i % 9}"])
    return {
        "pool.csv": _csv_text(["smiles"], ([s] for s in pool)),
        "properties.csv": _csv_text(
            ["smiles", "donor_number", "dipole_moment", "hba"], props
        ),
        "cas.csv": _csv_text(["smiles", "cas"], cas),
    }


# --- symmetric branched family --------------------------------------------

# Groups as small graphs: (elements, bonds, attachment atom). Bonds are
# single except between two aromatic atoms.
_GROUPS = {
    "tBu": (["C", "C", "C", "C"], [(0, 1), (0, 2), (0, 3)], 0),
    "neopentyl": (["C", "C", "C", "C", "C"], [(0, 1), (1, 2), (1, 3), (1, 4)], 0),
    "iPr": (["C", "C", "C"], [(0, 1), (0, 2)], 0),
}

_RING6 = [(i, (i + 1) % 6) for i in range(6)]
# core name -> (elements, bonds, attachment slots); lower case = aromatic
_CORES = {
    "benzene-1,4": (["c"] * 6, _RING6, (0, 3)),
    "benzene-1,3,5": (["c"] * 6, _RING6, (0, 2, 4)),
    "cyclohexane-1,4": (["C"] * 6, _RING6, (0, 3)),
    "methine": (["C"], [], (0, 0, 0)),
    "amine": (["N"], [], (0, 0, 0)),
    "ether": (["O"], [], (0, 0)),
    "ethylene": (["C", "C"], [(0, 1)], (0, 1)),
    "quaternary": (["C"], [], (0, 0, 0, 0)),
}

# Every core x group pair except the quaternary core with tert-butyl or
# neopentyl groups: those take about 8 s each to canonicalize at the commit
# that introduced the benchmark and would swamp a timed chunk. The slowest
# member kept, tri-neopentylbenzene, takes about 0.4 s.
FAMILY = tuple(
    (core, group)
    for core in _CORES
    for group in _GROUPS
    if not (core == "quaternary" and group != "iPr")
)


def family_graph(core: str, group: str):
    """(element symbols, bonds) of a core carrying one group per slot;
    aromatic atoms have lower-case symbols."""
    elements, bonds, slots = _CORES[core]
    elements, bonds = list(elements), list(bonds)
    g_elements, g_bonds, g_anchor = _GROUPS[group]
    for slot in slots:
        base = len(elements)
        elements.extend(g_elements)
        bonds.extend((base + a, base + b) for a, b in g_bonds)
        bonds.append((slot, base + g_anchor))
    return elements, bonds


def write_smiles(elements: list[str], bonds: list[tuple[int, int]], seed: int) -> str:
    """A SMILES spelling of a connected graph from a seeded depth-first walk
    (random root and neighbour order), with ring-closure digits for back
    edges. Only single and aromatic bonds occur, so no bond symbols, and
    at most nine rings, so single-digit closures."""
    rng = SplitMix64(seed)
    n = len(elements)
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in bonds:
        adj[a].append(b)
        adj[b].append(a)
    for nbrs in adj:
        nbrs[:] = rng.sample(nbrs, len(nbrs))
    root = rng.below(n)

    # Walk once to find tree edges and back edges, then emit.
    visited, order, parent = [False] * n, [], [-1] * n
    back: list[tuple[int, int]] = []
    visited[root] = True
    tree_children: list[list[int]] = [[] for _ in range(n)]

    def visit(u: int) -> None:
        order.append(u)
        for v in adj[u]:
            if v == parent[u]:
                continue
            if visited[v]:
                if order.index(v) < order.index(u):
                    back.append((v, u))
                continue
            visited[v] = True
            parent[v] = u
            tree_children[u].append(v)
            visit(v)

    visit(root)

    if len(back) > 9:
        raise ValueError("more ring closures than single digits")
    closures: dict[int, list[str]] = {i: [] for i in range(n)}
    for label, (a, b) in enumerate(back, start=1):
        closures[a].append(str(label))
        closures[b].append(str(label))

    def emit(u: int) -> str:
        text = elements[u] + "".join(closures[u])
        kids = tree_children[u]
        for v in kids[:-1]:
            text += "(" + emit(v) + ")"
        if kids:
            text += emit(kids[-1])
        return text

    return emit(root)


def family_smiles(chunk: int) -> list[str]:
    """Every family member, each spelled by its own seeded walk."""
    return [
        write_smiles(*family_graph(core, group), derive(chunk, 100 + k))
        for k, (core, group) in enumerate(FAMILY)
    ]


def featurize_chunk(chunk: int, pool_rows: int) -> tuple[str, int]:
    """Dataset CSV for one featurize chunk and its count of symmetric rows.

    ``pool_rows`` distinct pool molecules (featurize rejects duplicate
    structures) drawn by ``stratified_draw``, plus the whole symmetric
    family: its members' cost varies by two orders of magnitude, so every
    chunk carries all of it to keep chunks alike in cost.
    """
    universe = pool_universe()
    picks = stratified_draw(SplitMix64(derive(chunk, 2)), distinct_rows(), pool_rows)
    family = family_smiles(chunk)
    rows = [universe[i] for i in picks] + family
    order = SplitMix64(derive(chunk, 3)).sample(rows, len(rows))
    return _csv_text(["smiles"], ([s] for s in order)), len(family)


# --- regression -----------------------------------------------------------


def regression(chunk: int, n: int, n_test: int, p: int) -> tuple[np.ndarray, ...]:
    """Seeded regression problem ``(X_train, y_train, X_test)``.

    Half of the columns are small integers (0..7), like the count
    descriptors, so split search meets many tied values; the rest are
    uniform reals. The target mixes linear, threshold and interaction terms
    plus noise.
    """
    rows = n + n_test
    u = uniform_block(derive(chunk, 4), rows * p + rows).reshape(rows, p + 1)
    X = u[:, :p].copy()
    half = p // 2
    X[:, :half] = np.floor(X[:, :half] * 8.0)
    weights = np.linspace(-1.0, 1.0, p)
    y = (
        X @ weights * 0.5
        + 2.0 * (X[:, 0] > 3)
        + np.sin(3.0 * X[:, half])
        + X[:, 1] * X[:, half + 1]
        + 0.5 * (u[:, p] - 0.5)
    )
    return X[:n], y[:n], X[n:]
