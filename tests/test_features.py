import random

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
    default_keyset,
    descriptors,
    fingerprint,
    load_latents,
    match_pattern,
)
from molscreen.features.patterns import PatternAtom, PatternBond, PatternKey
from molscreen.molgraph import parse_smiles

from conftest import random_molecule


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
        with pytest.raises(UnparseableSMILES):
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

    def test_select_columns_in_requested_order(self):
        matrix = FeatureMatrix(ids=("a",), blocks=("K", "D", "Z"), names=("x", "y", "z"),
                               values=np.array([[1.0, 2.0, 3.0]]))
        out = matrix.select_columns(["z", "x"])
        assert out.names == ("z", "x") and out.blocks == ("Z", "K")
        assert out.values.tolist() == [[3.0, 1.0]]
        with pytest.raises(FeatureError, match="no such column 'w'"):
            matrix.select_columns(["x", "w"])
