import csv
import random
from pathlib import Path

import numpy as np
import pytest

from molscreen.features import (
    DESCRIPTOR_NAMES,
    DimensionMismatch,
    DuplicateKey,
    FeatureError,
    FeatureMatrix,
    MissingLatent,
    PatternTooLarge,
    UnparseableSMILES,
    assemble,
    atomic_masses,
    default_keyset,
    descriptors,
    fingerprint,
    load_latents,
    match_pattern,
)
from molscreen.features.patterns import (
    MAX_PATTERN_ATOMS,
    KeySet,
    PatternAtom,
    PatternBond,
    PatternError,
    PatternKey,
    keyset_from_entries,
)
from molscreen.features.descriptors import HALOGENS
from molscreen.molgraph import DOUBLE, SINGLE, TRIPLE, parse_smiles

from conftest import random_molecule, synthetic_pool_rows
from test_canon import SYMMETRIC


def desc(smiles: str) -> dict:
    return dict(zip(DESCRIPTOR_NAMES, descriptors(parse_smiles(smiles))))


def key(atoms, bonds, min_count=1, label="test"):
    return PatternKey(id=0, label=label, atoms=tuple(atoms), bonds=tuple(bonds),
                      min_count=min_count)


class TestMatchPattern:
    def test_carbonyl_on_acetamide(self):
        pattern = key([PatternAtom("O"), PatternAtom("C")],
                      [PatternBond(0, 1, "double")])
        assert match_pattern(parse_smiles("CC(N)=O"), pattern) == 1

    def test_aromatic_nitrogen_on_aminopyridine(self):
        pattern = key([PatternAtom("N", aromatic=True)], [])
        assert match_pattern(parse_smiles("Nc1ccncc1"), pattern) == 1

    def test_no_match(self):
        pattern = key([PatternAtom("S"), PatternAtom("S")], [PatternBond(0, 1)])
        assert match_pattern(parse_smiles("C"), pattern) == 0

    def test_counts_images_not_mappings(self):
        # a 6-cycle pattern has 12 automorphisms but one image in benzene
        atoms = [PatternAtom(aromatic=True)] * 6
        bonds = [PatternBond(i, (i + 1) % 6, "aromatic") for i in range(6)]
        assert match_pattern(parse_smiles("c1ccccc1"), key(atoms, bonds)) == 1

    def test_symmetric_pattern_distinct_images(self):
        pattern = key([PatternAtom("C"), PatternAtom("C")], [PatternBond(0, 1)])
        assert match_pattern(parse_smiles("CCC"), pattern) == 2

    def test_too_large(self):
        atoms = [PatternAtom("C")] * 9
        bonds = [PatternBond(i, i + 1) for i in range(8)]
        with pytest.raises(PatternTooLarge):
            match_pattern(parse_smiles("CCCCCCCCCC"), key(atoms, bonds))

    def test_substructure_semantics(self):
        # a 4-path matches inside a ring even though the ring has extra bonds
        atoms = [PatternAtom("C", aromatic=None)] * 4
        bonds = [PatternBond(i, i + 1) for i in range(3)]
        assert match_pattern(parse_smiles("C1CCC1"), key(atoms, bonds)) >= 1


class TestFingerprint:
    def test_benzene_bits(self):
        ks = default_keyset()
        bits = fingerprint(parse_smiles("c1ccccc1"), ks)
        labels = {k.label for k, b in zip(ks.keys, bits) if b}
        assert "arom_ring6" in labels
        assert "el_S" not in labels

    def test_single_carbon(self):
        ks = default_keyset()
        bits = fingerprint(parse_smiles("C"), ks)
        labels = {k.label for k, b in zip(ks.keys, bits) if b}
        assert labels == {"el_C"}

    def test_spelling_invariance(self):
        ks = default_keyset()
        a = fingerprint(parse_smiles("CC(N)=O"), ks)
        b = fingerprint(parse_smiles("NC(=O)C"), ks)
        assert (a == b).all()

    def test_presence_bit_monotone_under_growth(self):
        # grafting atoms onto a molecule never clears a min_count=1 bit
        ks = default_keyset()
        presence = [k for k in ks.keys if k.min_count == 1]
        base = parse_smiles("NC(=O)c1ccccc1")
        grown = parse_smiles("NC(=O)c1ccc(CCOCl)cc1")
        for k in presence:
            if match_pattern(base, k) >= 1:
                assert match_pattern(grown, k) >= 1, k.label

    def test_bits_agree_with_full_counts(self, dataset24):
        # fingerprint stops counting at min_count; the bits must be those of
        # the full image count
        ks = default_keyset()
        rng = random.Random(64)
        graphs = dataset24.graphs() + [random_molecule(rng, 12) for _ in range(40)]
        for graph in graphs:
            expected = [int(match_pattern(graph, k) >= k.min_count) for k in ks.keys]
            assert fingerprint(graph, ks).tolist() == expected


class TestDescriptors:
    def test_acetamide(self):
        d = desc("CC(N)=O")
        assert d["heavy_atom_count"] == 4
        assert d["hba_count"] == 2
        assert d["hbd_count"] == 1  # NH2 counts once as a donor atom
        assert abs(d["molecular_weight"] - 59.068) <= 0.01

    def test_thiazole_acid(self):
        d = desc("OC(=O)c1csc(Cl)n1")
        assert d["hba_count"] == 3
        assert d["halogen_count"] == 1
        assert d["ring_count"] == 1

    def test_single_carbon(self):
        d = desc("C")
        assert d["ring_count"] == 0
        assert d["fraction_aromatic_atoms"] == 0

    def test_rotatable_bonds(self):
        assert desc("CCCC")["rotatable_bonds"] == 1
        assert desc("C1CCCCC1")["rotatable_bonds"] == 0
        assert desc("c1ccccc1CCc1ccccc1")["rotatable_bonds"] == 3

    def test_hbd_bounded_by_n_plus_o(self):
        rng = random.Random(11)
        for _ in range(100):
            graph = random_molecule(rng)
            d = dict(zip(DESCRIPTOR_NAMES, descriptors(graph)))
            assert d["hbd_count"] <= d["n_N"] + d["n_O"]

    def test_determinism(self):
        a = descriptors(parse_smiles("NC(=O)c1ccccc1"))
        b = descriptors(parse_smiles("NC(=O)c1ccccc1"))
        assert a.tobytes() == b.tobytes()

    def test_component_count_and_charge(self):
        d = desc("[K+].[K+].[O-]C(=O)C([O-])=O")
        assert d["component_count"] == 3
        assert d["net_formal_charge"] == 0

    def test_rotatable_bonds_against_a_key_per_bond(self, dataset24, registry9):
        def rotatable(graph):
            # Each single bond's ring test through its own frozenset key.
            count = 0
            for bond in graph.bonds:
                if bond.order != SINGLE or bond.key() in graph.rings.ring_edges:
                    continue
                if graph.atoms[bond.a].degree >= 2 and graph.atoms[bond.b].degree >= 2:
                    count += 1
            return count

        demo_pool = Path(__file__).resolve().parents[1] / "demo" / "pool.csv"
        rows = synthetic_pool_rows()
        rows += [row["smiles"] for row in csv.DictReader(demo_pool.open())]
        rows += [scaffold for scaffold in registry9.entries if scaffold]
        graphs = [record.graph for record in dataset24.records]
        for smiles in rows:
            try:
                graphs.append(parse_smiles(smiles))
            except ValueError:
                pass
        column = DESCRIPTOR_NAMES.index("rotatable_bonds")
        ring_single = linker = 0
        for graph in graphs:
            assert descriptors(graph)[column] == rotatable(graph)
            for a, b, order in graph.bonds:
                both = graph.rings.ring_membership[a] and graph.rings.ring_membership[b]
                if order == SINGLE and both:
                    if frozenset((a, b)) in graph.rings.ring_edges:
                        ring_single += 1
                    else:
                        linker += 1
        assert len(graphs) > 12_000 and ring_single and linker

    def test_representation_invariance(self, dataset24):
        for record in dataset24.records:
            a = descriptors(record.graph)
            b = descriptors(parse_smiles(record.canonical))
            assert a.tobytes() == b.tobytes()


class TestLatents:
    def write(self, tmp_path, rows, dim=56):
        path = tmp_path / "latents.csv"
        header = "smiles," + ",".join(f"z{i+1}" for i in range(dim))
        path.write_text("\n".join([header] + rows) + "\n")
        return path

    def test_load_d56(self, tmp_path):
        rows = [
            "CCO," + ",".join(str(0.01 * i) for i in range(56)),
            "CCN," + ",".join(str(0.02 * i) for i in range(56)),
            "CCC," + ",".join(str(0.03 * i) for i in range(56)),
        ]
        table = load_latents(self.write(tmp_path, rows))
        assert len(table) == 3
        assert table.dimension == 56

    def test_dimension_mismatch(self, tmp_path):
        rows = ["CCO," + ",".join("0" for _ in range(56)),
                "CCN," + ",".join("0" for _ in range(57))]
        with pytest.raises(DimensionMismatch):
            load_latents(self.write(tmp_path, rows))

    def test_duplicate_key_after_canonicalization(self, tmp_path):
        rows = ["OCC," + ",".join("0" for _ in range(56)),
                "CCO," + ",".join("1" for _ in range(56))]
        with pytest.raises(DuplicateKey):
            load_latents(self.write(tmp_path, rows))

    def test_unparseable(self, tmp_path):
        rows = ["C1CC," + ",".join("0" for _ in range(56))]
        with pytest.raises(UnparseableSMILES, match=r"row 2 \('C1CC'\): unclosed"):
            load_latents(self.write(tmp_path, rows))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "latents.csv"
        path.write_text("")
        table = load_latents(path)
        assert len(table) == 0


class TestAssemble:
    def test_descriptor_block_shape(self, dataset24):
        matrix = assemble(dataset24.graphs(), {"D"})
        assert matrix.values.shape == (24, 24)
        assert set(matrix.blocks) == {"D"}

    def test_widths_add(self, dataset24):
        matrix = assemble(dataset24.graphs()[:5], {"K", "D"}, keyset=default_keyset())
        assert matrix.values.shape[1] == 64 + 24
        # block order is K then D
        assert matrix.blocks[0] == "K" and matrix.blocks[-1] == "D"

    @pytest.mark.parametrize("blocks, width", [({"K"}, 64), ({"D"}, 24), ({"K", "D"}, 88)])
    def test_no_molecules(self, blocks, width):
        matrix = assemble([], blocks, keyset=default_keyset())
        assert matrix.values.shape == (0, width) and len(matrix.names) == width

    def test_missing_latent(self, tmp_path):
        path = tmp_path / "latents.csv"
        path.write_text("smiles,z1,z2\nCCO,0.1,0.2\n")
        table = load_latents(path)
        mols = [parse_smiles("CCO"), parse_smiles("CCN")]
        with pytest.raises(MissingLatent):
            assemble(mols, {"Z"}, latents=table)

    def test_no_blocks_rejected(self, dataset24):
        with pytest.raises(FeatureError):
            assemble(dataset24.graphs(), set())

    def test_external_fingerprints_as_k_block(self, tmp_path):
        path = tmp_path / "fp.csv"
        path.write_text("smiles,bit0,bit1\nCCO,1,0\nCCN,0,1\n")
        table = load_latents(path)
        mols = [parse_smiles("CCO"), parse_smiles("CCN")]
        matrix = assemble(mols, {"K"}, external_k=table)
        assert matrix.names == ("bit0", "bit1")
        assert matrix.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_non_finite_cell_names_first_row_and_column(self):
        values = np.zeros((3, 2))
        values[2, 0] = np.inf
        values[1, 1] = np.nan
        with pytest.raises(FeatureError, match="first at row 'b', column 'D:y'"):
            FeatureMatrix(ids=("a", "b", "c"), blocks=("K", "D"), names=("x", "y"),
                          values=values)


class TestPatternValidation:
    def test_bond_index_out_of_range(self):
        for a, b in ((0, 5), (-1, 0)):
            with pytest.raises(PatternError, match="'bad' has bond"):
                key([PatternAtom("C"), PatternAtom("C")], [PatternBond(a, b)], label="bad")

    def test_too_large_at_construction(self):
        atoms = [PatternAtom("C")] * (MAX_PATTERN_ATOMS + 1)
        bonds = [PatternBond(i, i + 1) for i in range(MAX_PATTERN_ATOMS)]
        with pytest.raises(PatternTooLarge, match="'big' has 9 atoms"):
            key(atoms, bonds, label="big")

    def test_min_count_below_one(self):
        for min_count in (0, -2):
            with pytest.raises(PatternError, match="'zero' has min_count"):
                key([PatternAtom("C")], [], min_count=min_count, label="zero")

    def test_entries_must_be_a_list(self):
        with pytest.raises(PatternError, match="must be a list of keys"):
            keyset_from_entries({"id": 0, "atoms": [{}]}, name="x")

    def test_entry_without_atoms(self):
        with pytest.raises(PatternError, match="key 'k' is missing 'atoms'"):
            keyset_from_entries([{"id": 0, "label": "k"}], name="x")

    def test_entry_without_id(self):
        with pytest.raises(PatternError, match="key 'entry 1' is missing 'id'"):
            keyset_from_entries([{"id": 0, "atoms": [{}]}, {"atoms": [{}]}], name="x")

    def test_entry_that_is_not_an_object(self):
        with pytest.raises(PatternError, match="key 'entry 0' is malformed"):
            keyset_from_entries(["C"], name="x")


# --- oracle ---------------------------------------------------------------
#
# The backtracking search every key ran before keys were counted by shape,
# kept verbatim (its search plan rebuilt here) as the reference for
# ``match_pattern`` and ``fingerprint``.


def _oracle_plan(pattern):
    n_pat = len(pattern.atoms)
    pat_adj = [[] for _ in range(n_pat)]
    for bond in pattern.bonds:
        pat_adj[bond.a].append((bond.b, bond.order))
        pat_adj[bond.b].append((bond.a, bond.order))
    order = [0]
    seen = {0}
    cursor = 0
    while cursor < len(order):
        for nbr, _ in pat_adj[order[cursor]]:
            if nbr not in seen:
                seen.add(nbr)
                order.append(nbr)
        cursor += 1
    depth_of = {p: depth for depth, p in enumerate(order)}
    return tuple(
        (
            p,
            pattern.atoms[p],
            tuple((nbr, want) for nbr, want in pat_adj[p] if depth_of[nbr] < depth),
        )
        for depth, p in enumerate(order)
    )


def _bond_orders(graph):
    """Per atom, the order of the bond to each neighbour."""
    return [{w: bond.order for w, bond in nbrs} for nbrs in graph.adjacency]


def _count_images(graph, bond_orders, pattern, limit=None):
    """Distinct images of ``pattern`` in ``graph``, counted up to ``limit``:
    the search returns as soon as it has seen ``limit`` of them."""
    n_pat = len(pattern.atoms)
    if n_pat > MAX_PATTERN_ATOMS:
        raise PatternTooLarge(
            f"pattern {pattern.label!r} has {n_pat} atoms (limit {MAX_PATTERN_ATOMS})"
        )
    plan = _oracle_plan(pattern)
    atoms = graph.atoms
    images = set()
    image = [0] * n_pat  # molecule atom of each placed pattern atom
    used = set()

    def extend(depth):
        """Place pattern atoms from ``depth`` on; True once ``limit`` images
        are found."""
        if depth == n_pat:
            edge_image = frozenset(
                frozenset((image[b.a], image[b.b])) for b in pattern.bonds
            )
            images.add((frozenset(image), edge_image))
            return limit is not None and len(images) >= limit
        p, spec, bonds_back = plan[depth]
        element, aromatic = spec.element, spec.aromatic
        if depth == 0:
            candidates = range(len(atoms))
        else:
            candidates = bond_orders[image[bonds_back[0][0]]]
        for g in candidates:
            if g in used:
                continue
            atom = atoms[g]
            if (element is not None and atom.element != element) or (
                aromatic is not None and atom.aromatic != aromatic
            ):
                continue
            orders = bond_orders[g]
            for nbr, want in bonds_back:
                got = orders.get(image[nbr])
                if got is None or (want is not None and got != want):
                    break
            else:
                image[p] = g
                used.add(g)
                done = extend(depth + 1)
                used.discard(g)
                if done:
                    return True
        return False

    extend(0)
    return len(images)


def assert_matches_oracle(graphs, keys):
    """Full counts and fingerprint bits equal the oracle's on every pair."""
    keyset = KeySet(keys=tuple(keys))
    for graph in graphs:
        orders = _bond_orders(graph)
        for k in keys:
            expected = _count_images(graph, orders, k)
            assert match_pattern(graph, k) == expected, (graph.source, k)
        expected_bits = [
            int(_count_images(graph, orders, k, k.min_count) >= k.min_count) for k in keys
        ]
        assert fingerprint(graph, keyset).tolist() == expected_bits, graph.source


def ring_pattern(size, **spec):
    atoms = [PatternAtom(**spec)] * size
    bonds = [PatternBond(i, (i + 1) % size) for i in range(size)]
    return key(atoms, bonds, label=f"ring{size}")


C, N, O, ANY = PatternAtom("C"), PatternAtom("N"), PatternAtom("O"), PatternAtom()

# Shapes the shipped keys lack: cycles of every size, patterns with two
# cycles, cycles with tails, paths joining cycles, chords, symmetric one-bond
# keys, self-loops and repeated bonds.
SPECIAL_KEYS = [ring_pattern(n) for n in range(3, MAX_PATTERN_ATOMS + 1)] + [
    ring_pattern(6, aromatic=True),
    ring_pattern(5, element="C", aromatic=False),
    # two triangles joined by a bond
    key([ANY] * 6, [PatternBond(0, 1), PatternBond(1, 2), PatternBond(2, 0),
                    PatternBond(2, 3), PatternBond(3, 4), PatternBond(4, 5),
                    PatternBond(5, 3)], label="dumbbell"),
    # two triangles joined by a one-atom path
    key([ANY] * 7, [PatternBond(0, 1), PatternBond(1, 2), PatternBond(2, 0),
                    PatternBond(2, 3), PatternBond(3, 4), PatternBond(4, 5),
                    PatternBond(5, 6), PatternBond(6, 4)], label="linked_triangles"),
    # two triangles sharing an atom
    key([ANY] * 5, [PatternBond(0, 1), PatternBond(1, 2), PatternBond(2, 0),
                    PatternBond(2, 3), PatternBond(3, 4), PatternBond(4, 2)],
        label="bowtie"),
    # a 6-cycle with a chord: two fused 4-cycles
    key([ANY] * 6, [PatternBond(i, (i + 1) % 6) for i in range(6)] + [PatternBond(0, 3)],
        label="fused_squares"),
    # a 5-cycle with a two-atom tail, the tail first
    key([C, ANY, ANY, ANY, ANY, ANY, ANY],
        [PatternBond(0, 1), PatternBond(1, 2), PatternBond(2, 3), PatternBond(3, 4),
         PatternBond(4, 5), PatternBond(5, 6), PatternBond(6, 2)], label="tailed_ring5"),
    key([C, C], [PatternBond(0, 1)], label="C_C"),
    key([C, C], [PatternBond(1, 0, "single")], min_count=2, label="C_sng_C_reversed"),
    key([N, N], [PatternBond(0, 1)], label="N_N"),
    key([PatternAtom("C", True), PatternAtom("C")], [PatternBond(0, 1)], label="cC"),
    key([ANY, ANY], [PatternBond(0, 1)], min_count=3, label="any_bond"),
    key([O, C], [PatternBond(0, 1), PatternBond(1, 0)], label="O_C_twice"),
    key([O, C], [PatternBond(0, 1, "single"), PatternBond(0, 1, "double")],
        label="O_C_both_orders"),
    key([C, C], [PatternBond(0, 1), PatternBond(0, 0)], label="C_C_marked"),
    key([C], [PatternBond(0, 0, "double")], label="C_loop"),
    key([ANY, C, ANY], [PatternBond(0, 1), PatternBond(1, 2)], min_count=4,
        label="any_C_any"),
]

CAGES_SPIRO_SALTS = [
    "C1CC2CCC1CC2",  # bicyclo[2.2.2]octane: three 6-cycles, two SSSR rings
    "C12C3C4C1C5C2C3C45",  # cubane
    "C1C2CC3CC1CC(C2)C3",  # adamantane
    "C1CC2CCC1C2",  # norbornane: a 6-cycle around two 5-rings
    "C1CC2CCCC2C1",  # bicyclo[3.3.0]octane: an 8-cycle around two 5-rings
    "C1C2C1C2",  # bicyclo[1.1.0]butane
    "C1CCC2(CC1)CCCCC2",  # spiro[5.5]undecane
    "C1CCC2(C1)CCCC2",  # spiro[4.4]nonane
    "C1CC1CC1CC1",
    "C1CC1C1CC1",
    "C1CCCCCCCCCCC1",
    "c1ccc2ccccc2c1",
    "c1ccc2cc3ccccc3cc2c1",
    "c1ccc2[nH]ccc2c1",
    "c1ccc(cc1)-c1ccccc1",
    "O=C(O)c1ccc(cc1)C(=O)NN",
    "[NH4+].[NH4+].[O-]S(=O)(=O)[O-]",
    "[K+].[K+].[O-]C(=O)C([O-])=O",
    "[K+].[Cl-]",
    "CC.CC.CC",
    "NN",
    "CCC",
]


def pool_sample():
    """Every eleventh row of the synthetic pool, which visits every template
    and substituent, plus the planted rows that parse."""
    rows = synthetic_pool_rows()
    graphs = []
    for smiles in rows[::11] + rows[-7:]:
        try:
            graphs.append(parse_smiles(smiles))
        except ValueError:
            pass
    return graphs


_ELEMENTS = ["C", "C", "C", "N", "O", "S", None, None]
_AROMATIC = [True, False, None, None]
_ORDERS = ["single", "single", "double", "aromatic", None, None]


def random_keys(rng, count):
    """Connected patterns of one to five atoms with wildcard elements,
    aromatic flags and orders, min_count 1-4, chords, bonds written in either
    direction, repeated bonds and self-loops."""
    keys = []
    for kid in range(count):
        n = rng.choice([1, 1, 2, 2, 2, 3, 3, 4, 5])
        atoms = [PatternAtom(rng.choice(_ELEMENTS), rng.choice(_AROMATIC)) for _ in range(n)]
        pairs = []
        for i in range(1, n):
            j = rng.randrange(i)
            pairs.append((i, j) if rng.random() < 0.5 else (j, i))
        if n >= 3 and rng.random() < 0.4:
            pairs.append(tuple(rng.sample(range(n), 2)))
        if pairs and rng.random() < 0.15:
            a, b = rng.choice(pairs)
            pairs.append((b, a))
        if rng.random() < 0.1:
            a = rng.randrange(n)
            pairs.append((a, a))
        bonds = [PatternBond(a, b, rng.choice(_ORDERS)) for a, b in pairs]
        keys.append(PatternKey(id=kid, label=f"r{kid}", atoms=tuple(atoms),
                               bonds=tuple(bonds), min_count=rng.randint(1, 4)))
    return keys


class TestOracle:
    def test_shipped_keys_on_pool_rows(self):
        assert_matches_oracle(pool_sample(), default_keyset().keys)

    def test_shipped_keys_on_random_molecules(self):
        rng = random.Random(9)
        graphs = [random_molecule(rng, 14) for _ in range(300)]
        assert_matches_oracle(graphs, default_keyset().keys)

    def test_shipped_keys_on_symmetric_family(self):
        graphs = [parse_smiles(s) for s in SYMMETRIC]
        assert_matches_oracle(graphs, default_keyset().keys)

    def test_shipped_keys_on_cages_spiro_and_salts(self):
        graphs = [parse_smiles(s) for s in CAGES_SPIRO_SALTS]
        assert_matches_oracle(graphs, default_keyset().keys)

    def test_special_keys(self):
        graphs = [parse_smiles(s) for s in CAGES_SPIRO_SALTS]
        graphs += pool_sample()[::8]
        graphs += [parse_smiles(s) for s in SYMMETRIC if len(s) < 40]
        rng = random.Random(17)
        graphs += [random_molecule(rng, 12) for _ in range(60)]
        assert_matches_oracle(graphs, SPECIAL_KEYS)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_keysets(self, seed):
        rng = random.Random(100 + seed)
        keys = random_keys(rng, 40)
        graphs = [parse_smiles(s) for s in CAGES_SPIRO_SALTS]
        graphs += pool_sample()[seed::12]
        graphs += [random_molecule(rng, 12) for _ in range(60)]
        assert_matches_oracle(graphs, keys)

    def test_one_bond_keys_count_each_bond_once(self):
        c_c = key([C, C], [PatternBond(0, 1)])
        assert match_pattern(parse_smiles("CCC"), c_c) == 2
        assert match_pattern(parse_smiles("Cc1ccccc1"), c_c) == 7
        assert match_pattern(parse_smiles("NN"), key([N, N], [PatternBond(0, 1)])) == 1
        o_c = key([O, C], [PatternBond(1, 0, "single")])
        assert match_pattern(parse_smiles("OCCOC"), o_c) == 3

    def test_cycles_that_are_not_sssr_rings(self):
        # bicyclo[2.2.2]octane has three 6-cycles but two SSSR rings;
        # norbornane's 6-cycle runs around both of its 5-rings
        assert match_pattern(parse_smiles("C1CC2CCC1CC2"), ring_pattern(6)) == 3
        assert match_pattern(parse_smiles("C1CC2CCC1C2"), ring_pattern(6)) == 1
        assert match_pattern(parse_smiles("C1CC2CCCC2C1"), ring_pattern(8)) == 1
        assert match_pattern(parse_smiles("C12C3C4C1C5C2C3C45"), ring_pattern(6)) == 16


# --- descriptor oracle ----------------------------------------------------
#
# ``descriptors`` as it was before it walked the atoms and the bonds once
# each, kept verbatim as the reference for the one-walk version.


def oracle_descriptors(graph):
    """Descriptor vector aligned to :data:`DESCRIPTOR_NAMES`."""
    masses = atomic_masses()
    atoms = graph.atoms
    heavy = [a for a in atoms if a.element != "H"]
    heavy_count = len(heavy)

    # Tally integer element counts first so the weight is a fixed-order sum,
    # byte-identical for any atom ordering of the same molecule.
    tally: dict[str, int] = {}
    for a in atoms:
        tally[a.element] = tally.get(a.element, 0) + 1
    tally["H"] = tally.get("H", 0) + sum(a.hydrogens for a in atoms)
    weight = sum(count * masses[el] for el, count in sorted(tally.items()))

    rings = graph.rings.rings
    aromatic_rings = sum(
        1 for ring in rings if all(atoms[i].aromatic for i in ring)
    )

    hba = sum(1 for a in heavy if a.element in ("N", "O"))
    hbd = sum(1 for a in heavy if a.element in ("N", "O") and a.hydrogens >= 1)

    # A ring edge joins two ring atoms, so only a bond between two ring
    # atoms is looked up among the ring edges.
    in_ring = graph.rings.ring_membership
    ring_edges = graph.rings.ring_edges
    rotatable = 0
    for a, b, order in graph.bonds:
        if order != SINGLE:
            continue
        if in_ring[a] and in_ring[b] and frozenset((a, b)) in ring_edges:
            continue
        if atoms[a].degree >= 2 and atoms[b].degree >= 2:
            rotatable += 1

    element_counts = {el: 0 for el in ("C", "N", "O", "S", "P", "F", "Cl", "Br", "I")}
    for a in heavy:
        if a.element in element_counts:
            element_counts[a.element] += 1

    aromatic_atoms = sum(1 for a in heavy if a.aromatic)

    values = {
        "heavy_atom_count": float(heavy_count),
        "molecular_weight": weight,
        "ring_count": float(len(rings)),
        "aromatic_ring_count": float(aromatic_rings),
        "hba_count": float(hba),
        "hbd_count": float(hbd),
        "rotatable_bonds": float(rotatable),
        "halogen_count": float(sum(element_counts[h] for h in HALOGENS)),
        "heteroatom_count": float(
            sum(1 for a in heavy if a.element != "C")
        ),
        "net_formal_charge": float(sum(a.formal_charge for a in atoms)),
        "fraction_aromatic_atoms": (
            aromatic_atoms / heavy_count if heavy_count else 0.0
        ),
        "max_ring_size": float(max((len(r) for r in rings), default=0)),
        "double_bond_count": float(
            sum(1 for b in graph.bonds if b.order == DOUBLE)
        ),
        "triple_bond_count": float(
            sum(1 for b in graph.bonds if b.order == TRIPLE)
        ),
        "component_count": float(len(graph.components())),
    }
    for el, count in element_counts.items():
        values[f"n_{el}"] = float(count)

    return np.array([values[name] for name in DESCRIPTOR_NAMES], dtype=np.float64)


EXPLICIT_H_AND_CHARGES = [
    "[H]C([H])([H])[H]",
    "[H]OC([H])=O",
    "[H]N([H])C(=O)c1ccccc1",
    "[H][H]",
    "[H]Cl",
    "[NH4+].[Cl-]",
    "C[N+](C)(C)C.[Br-]",
    "[O-][N+](=O)c1ccccc1",
    "[O-]C(=O)C[NH3+]",
    "[K+].[K+].[O-]S(=O)(=O)[O-]",
    "[H]c1cc[nH+]cc1.[I-]",
    "[NH2-].[K+]",
]


class TestDescriptorOracle:
    def assert_matches(self, graphs):
        assert graphs
        for graph in graphs:
            assert descriptors(graph).tobytes() == oracle_descriptors(graph).tobytes(), (
                graph.source
            )

    def test_pool_sample(self):
        self.assert_matches(pool_sample())

    def test_additives24(self, dataset24):
        self.assert_matches(dataset24.graphs())

    def test_registry(self, registry9):
        self.assert_matches([parse_smiles(s) for s in registry9.entries if s])

    def test_symmetric_family(self):
        self.assert_matches([parse_smiles(s) for s in SYMMETRIC])

    def test_cages_spiro_and_salts(self):
        self.assert_matches([parse_smiles(s) for s in CAGES_SPIRO_SALTS])

    def test_explicit_hydrogens_and_charges(self):
        graphs = [parse_smiles(s) for s in EXPLICIT_H_AND_CHARGES]
        assert any(a.element == "H" for g in graphs for a in g.atoms)
        assert any(a.formal_charge for g in graphs for a in g.atoms)
        self.assert_matches(graphs)

    def test_random_molecules(self):
        rng = random.Random(26)
        self.assert_matches([random_molecule(rng, 14) for _ in range(300)])
