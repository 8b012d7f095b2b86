import random

import pytest

from molscreen.molgraph import (
    AROMATIC,
    DOUBLE,
    EmptyInput,
    SmilesSyntaxError,
    UnbalancedParenthesis,
    UnclosedRingBond,
    UnknownElement,
    ValenceViolation,
    parse_smiles,
)
from molscreen.molgraph.rings import find_sssr

from conftest import random_molecule


class TestParseExamples:
    def test_acetamide_counts(self):
        g = parse_smiles("CC(N)=O")
        assert g.heavy_atom_count() == 4
        assert len(g.bonds) == 3
        assert sum(1 for b in g.bonds if b.order == DOUBLE) == 1

    def test_benzene(self):
        g = parse_smiles("c1ccccc1")
        assert len(g.atoms) == 6
        assert all(a.aromatic for a in g.atoms)
        assert len(g.bonds) == 6
        assert all(b.order == AROMATIC for b in g.bonds)
        assert len(g.rings.rings) == 1

    def test_thiazole_acid(self):
        g = parse_smiles("OC(=O)c1csc(Cl)n1")
        assert g.heavy_atom_count() == 9
        (ring,) = g.rings.rings
        elements = sorted(g.atoms[i].element for i in ring)
        assert elements == ["C", "C", "C", "N", "S"]

    def test_multi_component(self):
        g = parse_smiles("[K+].[K+].[O-]C(=O)C")
        assert len(g.components()) == 3
        assert g.atoms[0].formal_charge == 1

    def test_bracket_features(self):
        g = parse_smiles("[13CH4]")
        assert g.atoms[0].hydrogens == 4  # isotope parsed and ignored
        g = parse_smiles("[NH3+]C")
        assert g.atoms[0].formal_charge == 1
        assert g.atoms[0].hydrogens == 3

    def test_percent_ring_closure(self):
        g = parse_smiles("C%11CCCC%11")
        assert len(g.rings.rings) == 1

    def test_stereo_markers_discarded(self):
        g = parse_smiles("CC(C)(S)[C@@H](N)C(O)=O")
        assert g.heavy_atom_count() == 9
        g2 = parse_smiles("F/C=C/F")
        assert sum(1 for b in g2.bonds if b.order == DOUBLE) == 1


class TestParseErrors:
    def test_unclosed_ring(self):
        with pytest.raises(UnclosedRingBond) as err:
            parse_smiles("C1CC")
        assert err.value.offset == 1

    def test_unbalanced_open(self):
        with pytest.raises(UnbalancedParenthesis) as err:
            parse_smiles("CC(C")
        assert err.value.offset == 2

    def test_unbalanced_close(self):
        with pytest.raises(UnbalancedParenthesis) as err:
            parse_smiles("CC)C")
        assert err.value.offset == 2

    def test_unknown_element(self):
        with pytest.raises(UnknownElement) as err:
            parse_smiles("CQ")
        assert err.value.offset == 1
        with pytest.raises(UnknownElement):
            parse_smiles("[Xe]")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_smiles("")
        with pytest.raises(EmptyInput):
            parse_smiles("   ")

    def test_valence_violation(self):
        with pytest.raises(ValenceViolation):
            parse_smiles("C(C)(C)(C)(C)C")
        with pytest.raises(ValenceViolation):
            parse_smiles("[CH5]")

    def test_syntax_misc(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C=")
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C==C")
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("1CC1")


def sssr(graph):
    return find_sssr(len(graph.atoms), [(b.a, b.b) for b in graph.bonds])


class TestRings:
    def test_benzene_single_ring(self):
        g = parse_smiles("c1ccccc1")
        info = sssr(g)
        assert len(info.rings) == 1
        assert len(info.rings[0]) == 6

    def test_acyclic(self):
        g = parse_smiles("CCCCCl")
        assert sssr(g).rings == ()

    def test_naphthalene_against_bruteforce(self):
        g = parse_smiles("c1ccc2ccccc2c1")
        info = sssr(g)
        # cyclomatic number: 11 bonds - 10 atoms + 1 component = 2
        assert len(info.rings) == 2
        assert sorted(len(r) for r in info.rings) == [6, 6]
        cycles = _all_simple_cycles(g)
        ring_sets = [frozenset(r) for r in info.rings]
        assert all(rs in cycles for rs in ring_sets)
        # the two six-rings are the smallest simple cycles in naphthalene
        assert sorted(len(c) for c in cycles) == [6, 6, 10]

    def test_every_listed_cycle_is_simple(self):
        for smiles in ("C1CC2(CCC2)CC1", "c1ccc2ncccc2c1", "C1CC12CC2"):
            g = parse_smiles(smiles)
            cycles = _all_simple_cycles(g)
            for ring in g.rings.rings:
                assert frozenset(ring) in cycles

    def test_ring_count_equals_cyclomatic_number(self):
        rng = random.Random(20240)
        for _ in range(300):
            g = random_molecule(rng, max_atoms=12)
            n_components = len(g.components())
            cyclomatic = len(g.bonds) - len(g.atoms) + n_components
            assert len(g.rings.rings) == cyclomatic


def _all_simple_cycles(graph) -> set[frozenset[int]]:
    """Brute-force enumeration of simple cycles (independent test oracle)."""
    adjacency = {i: [j for j, _ in graph.adjacency[i]] for i in range(len(graph.atoms))}
    cycles: set[frozenset[int]] = set()

    def walk(start: int, current: int, path: list[int]):
        for nxt in adjacency[current]:
            if nxt == start and len(path) >= 3:
                cycles.add(frozenset(path))
            elif nxt not in path and nxt > start:
                walk(start, nxt, path + [nxt])

    for start in adjacency:
        walk(start, start, [start])
    return cycles


class TestImplicitHydrogens:
    def test_examples(self):
        g = parse_smiles("CC(N)=O")
        assert g.atoms[2].hydrogens == 2  # the amide nitrogen
        g = parse_smiles("C=O")
        assert g.atoms[1].hydrogens == 0
        g = parse_smiles("[NH4+]")
        assert g.atoms[0].hydrogens == 4

    def test_aromatic_conventions(self):
        thiophene = parse_smiles("c1ccsc1")
        s_index = next(i for i, a in enumerate(thiophene.atoms) if a.element == "S")
        assert thiophene.atoms[s_index].hydrogens == 0
        pyridine = parse_smiles("c1ccncc1")
        n_index = next(i for i, a in enumerate(pyridine.atoms) if a.element == "N")
        assert pyridine.atoms[n_index].hydrogens == 0
        pyrrole = parse_smiles("c1cc[nH]c1")
        n_index = next(i for i, a in enumerate(pyrrole.atoms) if a.element == "N")
        assert pyrrole.atoms[n_index].hydrogens == 1

    def test_multivalent_sulfur(self):
        g = parse_smiles("CS(=O)(=O)C")  # bond sum 6 -> no hydrogens
        assert g.atoms[1].hydrogens == 0
        g = parse_smiles("SC")
        assert g.atoms[0].hydrogens == 1


class TestParseTotality:
    def test_all_bundled_molecules_parse(self, dataset24):
        assert len(dataset24) == 24
        for record in dataset24.records:
            assert record.graph.heavy_atom_count() >= 1

    def test_aromatic_atom_requires_ring(self):
        from molscreen.molgraph import AromaticityViolation

        with pytest.raises(AromaticityViolation):
            parse_smiles("cc")

    def test_biaryl_implicit_bond_demoted_to_single(self):
        from molscreen.molgraph import SINGLE, canonical_smiles

        with_dash = parse_smiles("c1ccc(-c2ccccc2)cc1")
        without = parse_smiles("c1ccc(c2ccccc2)cc1")
        linker = [b for b in without.bonds if b.key() not in without.rings.ring_edges]
        assert len(linker) == 1 and linker[0].order == SINGLE
        assert canonical_smiles(with_dash) == canonical_smiles(without)
