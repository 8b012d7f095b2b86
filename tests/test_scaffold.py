import random

import pytest

from molscreen.molgraph import (
    DOUBLE,
    TRIPLE,
    AtomSpec,
    MolecularGraph,
    MolGraphError,
    canonical_smiles,
    parse_smiles,
)
from molscreen.molgraph.rings import find_sssr
from molscreen.scaffold import (
    DuplicateScaffold,
    NonFixedPointScaffold,
    NovelScaffoldInDataset,
    ScaffoldError,
    UnparseableScaffold,
    classify,
    extract_scaffold,
    group_dataset,
    load_registry,
)
from molscreen import scaffold as scaffold_module
from molscreen.scaffold import _framework, _framework_key, _kept_atoms

from conftest import neighbour_lists, permute_graph, random_molecule, synthetic_pool_rows
from test_canon import SYMMETRIC


def canon(smiles: str) -> str:
    return canonical_smiles(parse_smiles(smiles))


class TestExtract:
    def test_acyclic_is_empty(self):
        assert extract_scaffold(parse_smiles("CCCCCl")).canonical == ""

    def test_aminopyridine_reduces_to_pyridine(self):
        got = extract_scaffold(parse_smiles("Nc1ccncc1"))
        assert got.canonical == canon("c1ccncc1")

    def test_thiazole_acid_reduces_to_thiazole(self):
        got = extract_scaffold(parse_smiles("OC(=O)c1csc(Cl)n1"))
        assert got.canonical == canon("c1cscn1")

    def test_biphenyl_is_its_own_scaffold(self):
        smiles = "c1ccc(-c2ccccc2)cc1"
        assert extract_scaffold(parse_smiles(smiles)).canonical == canon(smiles)

    def test_linker_atoms_retained(self):
        got = extract_scaffold(parse_smiles("c1ccccc1CCc1ccncc1"))
        assert got.canonical == canon("c1ccccc1CCc1ccncc1")

    def test_exocyclic_double_bond_retained(self):
        got = extract_scaffold(parse_smiles("CCC1CCC(=O)CC1"))
        assert got.canonical == canon("O=C1CCCCC1")

    def test_chain_carbonyl_not_retained(self):
        # the C=O sits in the side chain, not on the framework
        got = extract_scaffold(parse_smiles("O=CCc1ccccc1"))
        assert got.canonical == canon("c1ccccc1")


class TestScaffoldProperties:
    def test_fixed_point(self):
        rng = random.Random(99)
        checked = 0
        while checked < 250:
            graph = random_molecule(rng, max_atoms=12)
            first = extract_scaffold(graph)
            if first.canonical == "":
                second = ""
            else:
                second = extract_scaffold(parse_smiles(first.canonical)).canonical
            assert second == first.canonical
            checked += 1

    def test_side_chain_invariance(self, registry9):
        rng = random.Random(4242)
        scaffolds = [s for s in registry9.entries if s]
        checked = 0
        while checked < 250:
            base = parse_smiles(scaffolds[checked % len(scaffolds)])
            grafted = _graft_chain(base, rng)
            if grafted is None:
                checked += 1
                continue
            assert extract_scaffold(grafted).canonical == canonical_smiles(base)
            checked += 1

    def test_classify_invariant_under_respelling(self, dataset24, registry9):
        for record in dataset24.records:
            direct = classify(record.graph, registry9)
            respelled = classify(parse_smiles(record.canonical), registry9)
            assert direct.known == respelled.known
            assert direct.group_id == respelled.group_id


def _graft_chain(graph, rng):
    """Append a random acyclic singly-bonded substituent to a scaffold atom."""
    anchors = [i for i, a in enumerate(graph.atoms) if a.hydrogens >= 1]
    if not anchors:
        return None
    anchor = rng.choice(anchors)
    specs = [
        AtomSpec(a.element, a.aromatic, a.formal_charge, a.explicit_h)
        for a in graph.atoms
    ]
    bonds = [(b.a, b.b, b.order) for b in graph.bonds]
    length = rng.randint(1, 4)
    previous = anchor
    for step in range(length):
        terminal = step == length - 1
        element = rng.choice(["C", "O", "N"] + (["Cl", "F"] if terminal else []))
        specs.append(AtomSpec(element))
        bonds.append((previous, len(specs) - 1, "single"))
        previous = len(specs) - 1
    return MolecularGraph.from_spec(specs, bonds)


class TestRegistry:
    def test_bundled_registry(self, registry9):
        assert registry9.group_count == 9
        assert sorted(registry9.group_names) == list(range(1, 10))
        assert "" in registry9.entries  # the acyclic group is explicit

    def test_small_registry(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "scaffold_smiles,group_id,group_name\n"
            "c1ccccc1,1,arenes\n"
            "c1ccncc1,1,arenes\n"
            "C1CCNCC1,2,amines\n"
        )
        registry = load_registry(path)
        assert len(registry) == 3
        assert registry.group_count == 2

    def test_duplicate_scaffold_rejected(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "scaffold_smiles,group_id,group_name\n"
            "c1ccccc1,1,a\n"
            "C1=CC=CC=C1,1,a\n"  # same ring written differently is fine
        )
        # kekulized benzene is a distinct graph in this pipeline, so the
        # duplicate must be literal
        load_registry(path)
        path.write_text(
            "scaffold_smiles,group_id,group_name\n"
            "c1ccccc1,1,a\n"
            "c1ccccc1,2,b\n"
        )
        with pytest.raises(DuplicateScaffold):
            load_registry(path)

    def test_non_fixed_point_rejected(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "scaffold_smiles,group_id,group_name\nCc1ccccc1,1,a\n"
        )
        with pytest.raises(NonFixedPointScaffold):
            load_registry(path)

    def test_unparseable_rejected(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("scaffold_smiles,group_id,group_name\nC1CC,1,a\n")
        with pytest.raises(UnparseableScaffold, match=r"^row 2 \('C1CC'\): unclosed"):
            load_registry(path)

    def test_gapped_group_ids_rejected(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "scaffold_smiles,group_id,group_name\nc1ccccc1,1,a\nC1CC1,3,c\n"
        )
        with pytest.raises(ScaffoldError):
            load_registry(path)


class TestClassify:
    def test_toluene_is_known_via_benzene(self, registry9):
        result = classify(parse_smiles("Cc1ccccc1"), registry9)
        assert result.known
        assert registry9.entries[canon("c1ccccc1")] == result.group_id

    def test_acyclic_without_empty_scaffold_is_novel(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("scaffold_smiles,group_id,group_name\nc1ccccc1,1,a\n")
        registry = load_registry(path)
        assert not classify(parse_smiles("CCCCCl"), registry).known

    def test_every_bundled_molecule_is_known(self, dataset24, registry9):
        for record in dataset24.records:
            assert classify(record.graph, registry9).known, record.smiles


class TestGroupDataset:
    def test_partition(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "scaffold_smiles,group_id,group_name\nc1ccccc1,1,a\nc1ccncc1,2,b\n"
        )
        registry = load_registry(path)
        molecules = [
            parse_smiles(s)
            for s in ("Cc1ccccc1", "CCc1ccccc1", "Oc1ccccc1", "Nc1ccncc1", "Cc1ccncc1")
        ]
        groups = group_dataset(molecules, registry)
        assert groups == {1: [0, 1, 2], 2: [3, 4]}

    def test_empty_dataset(self, registry9):
        assert group_dataset([], registry9) == {}

    def test_novel_molecule_names_index(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("scaffold_smiles,group_id,group_name\nc1ccccc1,1,a\n")
        registry = load_registry(path)
        molecules = [parse_smiles("Cc1ccccc1"), parse_smiles("CCCC")]
        with pytest.raises(NovelScaffoldInDataset) as err:
            group_dataset(molecules, registry)
        assert err.value.index == 1

    def test_bundled_grouping(self, dataset24, registry9):
        groups = group_dataset(dataset24.graphs(), registry9)
        sizes = {gid: len(v) for gid, v in groups.items()}
        assert sum(sizes.values()) == 24
        all_indices = sorted(i for v in groups.values() for i in v)
        assert all_indices == list(range(24))


# --- framework built from the parent's rings -------------------------------


def rebuilt_framework(graph) -> MolecularGraph:
    """The framework as built before it took its parent's rings: terminal
    atoms pruned by rescanning, then a fresh graph with its own ring
    perception."""
    membership = graph.rings.ring_membership
    kept = set(range(len(graph.atoms)))
    degree = {i: len(graph.adjacency[i]) for i in kept}
    changed = True
    while changed:
        changed = False
        for idx in sorted(kept):
            if membership[idx] or degree[idx] > 1:
                continue
            kept.discard(idx)
            changed = True
            for j, _ in graph.adjacency[idx]:
                if j in kept:
                    degree[j] -= 1

    for bond in graph.bonds:
        if bond.order not in (DOUBLE, TRIPLE):
            continue
        a_in, b_in = bond.a in kept, bond.b in kept
        if a_in != b_in:
            kept.add(bond.a if b_in else bond.b)

    order = sorted(kept)
    remap = {old: new for new, old in enumerate(order)}
    specs = [
        AtomSpec(
            element=graph.atoms[i].element,
            aromatic=graph.atoms[i].aromatic,
            formal_charge=graph.atoms[i].formal_charge,
            explicit_h=graph.atoms[i].explicit_h,
        )
        for i in order
    ]
    bonds = [
        (remap[b.a], remap[b.b], b.order)
        for b in graph.bonds
        if b.a in kept and b.b in kept
    ]
    return MolecularGraph.from_spec(specs, bonds)


def build_framework(graph) -> MolecularGraph:
    order = _kept_atoms(graph)
    return _framework(graph, order, _framework_key(graph, order))


def pool_graphs(limit: int | None = None) -> list[MolecularGraph]:
    graphs = []
    for smiles in synthetic_pool_rows(limit):
        try:
            graphs.append(parse_smiles(smiles))
        except MolGraphError:
            pass  # the planted unparseable row
    return graphs


class TestFramework:
    def test_equals_rebuild_with_own_ring_perception(self, registry9):
        rng = random.Random(1996)
        graphs = pool_graphs()
        graphs += [random_molecule(rng, max_atoms=14) for _ in range(400)]
        graphs += [parse_smiles(s) for s in registry9.entries if s]
        graphs = [g for g in graphs if any(g.rings.ring_membership)]
        assert len(graphs) > 12000
        for graph in graphs:
            framework = build_framework(graph)
            rebuilt = rebuilt_framework(graph)
            assert framework.atoms == rebuilt.atoms
            assert framework.bonds == rebuilt.bonds
            assert framework.rings == rebuilt.rings
            edges = [(b.a, b.b) for b in framework.bonds]
            neighbours = neighbour_lists(len(framework.atoms), edges)
            assert find_sssr(neighbours) == framework.rings

    def test_no_ring_perception(self, dataset24, registry9, monkeypatch):
        from molscreen.molgraph import rings

        graphs = pool_graphs(300) + dataset24.graphs()
        calls = []
        find_sssr = rings.find_sssr
        monkeypatch.setattr(rings, "find_sssr", lambda *a: calls.append(a) or find_sssr(*a))
        for graph in graphs:
            extract_scaffold(graph)
            classify(graph, registry9)
        assert calls == []


# --- one canonicalization per distinct framework ----------------------------


def scaffolds(graphs, memo=None) -> list[str]:
    return [extract_scaffold(g, memo=memo).canonical for g in graphs]


def assert_memo_agrees(graphs) -> dict:
    """Scaffold strings through one shared memo equal those without it."""
    memo: dict = {}
    assert scaffolds(graphs, memo) == scaffolds(graphs)
    return memo


def count_builds(monkeypatch) -> list:
    builds = []
    build = scaffold_module._framework
    monkeypatch.setattr(
        scaffold_module, "_framework", lambda *a: builds.append(a) or build(*a)
    )
    return builds


class TestFrameworkMemo:
    def test_synthetic_pool(self, monkeypatch):
        graphs = pool_graphs()
        builds = count_builds(monkeypatch)
        memo = assert_memo_agrees(graphs)
        # the pool's 16 templates renumber to a handful of frameworks, and
        # only the run without the memo builds one per molecule
        assert len(memo) < 20
        framed = sum(
            1
            for g in graphs
            if any(g.rings.ring_membership) and len(_kept_atoms(g)) < len(g.atoms)
        )
        assert len(builds) == len(memo) + framed

    def test_random_molecules(self):
        rng = random.Random(2024)
        graphs = [random_molecule(rng, max_atoms=14) for _ in range(3000)]
        assert sum(1 for g in graphs if any(g.rings.ring_membership)) > 1000
        assert_memo_agrees(graphs)

    def test_symmetric_family_and_cages_under_permutation(self):
        rng = random.Random(77)
        graphs = []
        for smiles in SYMMETRIC:
            graph = parse_smiles(smiles)
            for _ in range(10):
                order = list(range(len(graph.atoms)))
                rng.shuffle(order)
                graphs.append(permute_graph(graph, order))
        assert_memo_agrees(graphs)
        # a relabelled molecule keeps its scaffold
        for smiles, start in zip(SYMMETRIC, range(0, len(graphs), 10)):
            expected = extract_scaffold(parse_smiles(smiles)).canonical
            assert set(scaffolds(graphs[start:start + 10])) == {expected}

    # Each pair's frameworks differ only in the named field, after a methyl
    # side chain is pruned, so a key that drops the field hands the second
    # molecule the first one's string.
    @pytest.mark.parametrize(
        "first, second",
        [
            ("CC1CCCCC1", "CC1=CCCCC1"),  # bond order
            ("CC1CC[NH]CC1", "CC1CC[NH+]CC1"),  # formal charge
            ("CC1CCNCC1", "CC1CC[N]CC1"),  # explicit hydrogens
            ("CC1CCCCC1", "Cc1-c-c-c-c-c-1"),  # aromatic flag
        ],
    )
    def test_key_separates_frameworks_differing_in_one_field(self, first, second):
        graphs = [parse_smiles(first), parse_smiles(second)]
        alone = scaffolds(graphs)
        assert alone[0] != alone[1]
        memo = assert_memo_agrees(graphs)
        assert len(memo) == 2

    def test_own_scaffold_reuses_its_canonical_string(self, registry9, monkeypatch):
        graphs = [parse_smiles(s) for s in registry9.entries if s]
        for graph in graphs:
            assert _kept_atoms(graph) == list(range(len(graph.atoms)))
            assert build_framework(graph).canonical == graph.canonical
        builds = count_builds(monkeypatch)
        assert scaffolds(graphs) == [g.canonical for g in graphs]
        assert builds == []

    def test_no_memo_keeps_no_state(self, monkeypatch):
        graph = parse_smiles("CC1CCCCC1")
        builds = count_builds(monkeypatch)
        extract_scaffold(graph)
        extract_scaffold(graph)
        assert len(builds) == 2
        memo: dict = {}
        extract_scaffold(graph, memo=memo)
        extract_scaffold(graph, memo=memo)
        assert len(builds) == 3

    def test_group_dataset_builds_each_framework_once(self, dataset24, registry9, monkeypatch):
        graphs = dataset24.graphs() * 3
        builds = count_builds(monkeypatch)
        group_dataset(graphs, registry9)
        assert 0 < len(builds) == len({key for _, _, key in builds})
