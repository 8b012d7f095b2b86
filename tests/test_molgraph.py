import random

import pytest

from molscreen.molgraph import (
    AROMATIC,
    DOUBLE,
    AromaticityViolation,
    AtomSpec,
    EmptyInput,
    MolecularGraph,
    MolGraphError,
    SmilesSyntaxError,
    UnbalancedParenthesis,
    UnclosedRingBond,
    UnknownElement,
    ValenceViolation,
    parse_smiles,
)
from molscreen.molgraph.rings import find_sssr

from conftest import neighbour_lists, random_molecule, synthetic_pool_rows


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
    return find_sssr(neighbour_lists(len(graph.atoms), [(b.a, b.b) for b in graph.bonds]))


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


# --- every parse error, pinned -----------------------------------------------
#
# At least one input for each ``raise`` in parser.py and in
# ``MolecularGraph.from_spec``, with its class, message and offset. The
# screen report and every command's row-level error print these messages,
# so they must not drift.

PARSE_ERRORS = [
    ("", EmptyInput, "empty SMILES input", 0),
    ("   ", EmptyInput, "empty SMILES input", 0),
    (" C", SmilesSyntaxError, "leading or trailing whitespace", 0),
    ("C ", SmilesSyntaxError, "leading or trailing whitespace", 0),
    ("C11", SmilesSyntaxError, "ring bond closes onto its own atom", 2),
    ("C1C1", SmilesSyntaxError, "duplicate bond between the same atoms", 3),
    ("C12CC12", SmilesSyntaxError, "duplicate bond between the same atoms", 6),
    ("=C", SmilesSyntaxError, "bond symbol without a preceding atom", 0),
    ("C.=C", SmilesSyntaxError, "bond symbol without a preceding atom", 2),
    ("(C)C", SmilesSyntaxError, "branch opens before any atom", 0),
    ("C=(C)", SmilesSyntaxError, "bond symbol before a branch opening", 2),
    ("C)C", UnbalancedParenthesis, "unmatched ')'", 1),
    ("C(C=)C", SmilesSyntaxError, "dangling bond symbol before ')'", 3),
    ("C==C", SmilesSyntaxError, "two consecutive bond symbols", 2),
    ("C=.C", SmilesSyntaxError, "bond symbol before '.'", 1),
    ("C%1", SmilesSyntaxError, "'%' needs two digits", 1),
    ("C%", SmilesSyntaxError, "'%' needs two digits", 1),
    ("C%1a", SmilesSyntaxError, "'%' needs two digits", 1),
    ("1CC1", SmilesSyntaxError, "ring closure before any atom", 0),
    ("C=1CC#1", SmilesSyntaxError, "conflicting bond symbols on ring closure 1", 6),
    ("C[NH4+", SmilesSyntaxError, "unclosed bracket atom", 1),
    ("C$C", SmilesSyntaxError, "unexpected character '$'", 1),
    ("C C", SmilesSyntaxError, "unexpected character ' '", 1),
    ("C=", SmilesSyntaxError, "dangling bond symbol at end of input", 1),
    ("CC(C", UnbalancedParenthesis, "unclosed '('", 2),
    ("C1CC", UnclosedRingBond, "unclosed ring-bond digit", 1),
    ("C1CC2", UnclosedRingBond, "unclosed ring-bond digit", 1),
    ("Cc1ccc", UnclosedRingBond, "unclosed ring-bond digit", 2),
    (".", EmptyInput, "no atoms in SMILES input", 0),
    ("..", EmptyInput, "no atoms in SMILES input", 0),
    ("CQ", UnknownElement, "unknown element symbol 'Q'", 1),
    ("Cr", UnknownElement, "unknown element symbol 'r'", 1),
    ("Cé", UnknownElement, "unknown element symbol 'é'", 1),
    ("[]", SmilesSyntaxError, "malformed bracket atom []", 0),
    ("[C+x]", SmilesSyntaxError, "malformed bracket atom [C+x]", 0),
    ("[13CH4+x]", SmilesSyntaxError, "malformed bracket atom [13CH4+x]", 0),
    ("[Xe]", UnknownElement, "unsupported element 'Xe'", 1),
    ("[13Xe]", UnknownElement, "unsupported element 'Xe'", 3),
    ("C1:CCC1", AromaticityViolation, "aromatic bond joins a non-aromatic atom", 0),
    ("cC1:CCC1", AromaticityViolation, "aromatic bond joins a non-aromatic atom", 1),
    ("cc", AromaticityViolation, "aromatic atom 'C' outside any ring", 0),
    ("C(C)(C)(C)(C)c", AromaticityViolation, "aromatic atom 'C' outside any ring", 13),
    ("[CH5]", ValenceViolation, "C with 5H and 0 bonds exceeds valence", 0),
    ("[CH5].C(C)(C)(C)(C)C", ValenceViolation, "C with 5H and 0 bonds exceeds valence", 0),
    ("C(C)(C)(C)(C)C", ValenceViolation,
     "C with bond order sum 5 exceeds maximum valence 4", 0),
    ("C(C)(C)(C)(C)C.[CH5]", ValenceViolation,
     "C with bond order sum 5 exceeds maximum valence 4", 0),
    ("O=O=O", ValenceViolation, "O with bond order sum 4 exceeds maximum valence 2", 2),
]


@pytest.mark.parametrize("smiles, kind, message, offset", PARSE_ERRORS)
def test_parse_error_pinned(smiles, kind, message, offset):
    with pytest.raises(MolGraphError) as err:
        parse_smiles(smiles)
    assert type(err.value) is kind
    assert str(err.value) == f"{message} (offset {offset})"
    assert err.value.offset == offset


C, N = AtomSpec("C"), AtomSpec("N")
SPEC_ERRORS = [
    ([], [], EmptyInput, "molecule has no atoms", -1),
    ([C], [(0, 0, "single")], SmilesSyntaxError, "self-bond on atom 0", -1),
    ([C, C], [(0, 2, "single")], SmilesSyntaxError, "bond endpoint out of range: 0-2", -1),
    ([C, C], [(-1, 1, "single")], SmilesSyntaxError, "bond endpoint out of range: -1-1", -1),
    ([C, C], [(0, 1, "quadruple")], SmilesSyntaxError, "unknown bond order 'quadruple'", -1),
    ([C, C], [(0, 1, "single"), (1, 0, "double")], SmilesSyntaxError,
     "duplicate bond between atoms 1 and 0", -1),
    ([C, AtomSpec("Xx", offset=4)], [(0, 1, "single")], UnknownElement,
     "unsupported element 'Xx' (offset 4)", 4),
    ([AtomSpec("F", aromatic=True, offset=2)], [], AromaticityViolation,
     "element 'F' cannot be aromatic (offset 2)", 2),
    ([AtomSpec("C", offset=0), AtomSpec("C", offset=1), AtomSpec("C", offset=2)],
     [(0, 1, "aromatic"), (1, 2, "aromatic"), (2, 0, "aromatic")], AromaticityViolation,
     "aromatic bond joins a non-aromatic atom (offset 0)", 0),
    ([AtomSpec("C", aromatic=True, offset=5)], [], AromaticityViolation,
     "aromatic atom 'C' outside any ring (offset 5)", 5),
    ([AtomSpec("C", explicit_h=5, offset=7)], [], ValenceViolation,
     "C with 5H and 0 bonds exceeds valence (offset 7)", 7),
    ([AtomSpec("O", offset=1), C, C, N], [(0, 1, "single"), (0, 2, "single"), (0, 3, "single")],
     ValenceViolation, "O with bond order sum 3 exceeds maximum valence 2 (offset 1)", 1),
]


@pytest.mark.parametrize("specs, bonds, kind, message, offset", SPEC_ERRORS)
def test_from_spec_error_pinned(specs, bonds, kind, message, offset):
    with pytest.raises(MolGraphError) as err:
        MolecularGraph.from_spec(specs, bonds)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert err.value.offset == offset


def test_aromatic_bond_outside_rings_is_demoted():
    graph = MolecularGraph.from_spec([C, C], [(0, 1, "aromatic")])
    assert [b.order for b in graph.bonds] == ["single"]
    assert graph.canonical == "CC"


# --- ring-bond digits are ASCII ------------------------------------------------
#
# ``str.isdigit`` and ``\d`` also match digits of other scripts, which
# ``int`` reads or rejects; each of these is a syntax error at its offset.

NON_ASCII_DIGITS = [
    ("C\u00b2", "unexpected character '\u00b2'", 1),  # superscript two
    ("C%1\u00b2", "'%' needs two digits", 1),
    ("C\u0661CC\u0661", "unexpected character '\u0661'", 1),  # Arabic-Indic one
    ("C%\u0661\u0661CC%\u0661\u0661", "'%' needs two digits", 1),
    ("CC\uff11CC\uff11", "unexpected character '\uff11'", 2),  # fullwidth one
    ("[C\u0661]", "malformed bracket atom [C\u0661]", 0),
    ("[\u0661CH4]", "malformed bracket atom [\u0661CH4]", 0),
    ("[CH\u0661]", "malformed bracket atom [CH\u0661]", 0),
    ("[C+\u0661]", "malformed bracket atom [C+\u0661]", 0),
    ("[C:\u0661]", "malformed bracket atom [C:\u0661]", 0),
]


@pytest.mark.parametrize("smiles, message, offset", NON_ASCII_DIGITS)
def test_non_ascii_digit_is_a_syntax_error(smiles, message, offset):
    with pytest.raises(SmilesSyntaxError) as err:
        parse_smiles(smiles)
    assert str(err.value) == f"{message} (offset {offset})"
    assert err.value.offset == offset


# --- both entry paths assemble alike --------------------------------------------


def assert_same_graph(got, want) -> None:
    assert got.atoms == want.atoms
    assert got.bonds == want.bonds
    assert got.rings.rings == want.rings.rings
    assert got.rings.ring_membership == want.rings.ring_membership
    assert got.rings.ring_edges == want.rings.ring_edges
    assert got.neighbours == want.neighbours
    assert got.adjacency == want.adjacency
    assert got.canonical == want.canonical


def test_from_spec_equals_parse_on_synthetic_pool():
    for smiles in synthetic_pool_rows():
        try:
            parsed = parse_smiles(smiles)
        except MolGraphError:
            continue  # the planted unparseable row
        specs = [
            AtomSpec(a.element, a.aromatic, a.formal_charge, a.explicit_h, a.offset)
            for a in parsed.atoms
        ]
        built = MolecularGraph.from_spec(specs, [(b.a, b.b, b.order) for b in parsed.bonds])
        assert_same_graph(built, parsed)


def _smiles_in_atom_order(graph) -> tuple[str, list[int]]:
    """A SMILES that lists the atoms in index order, one component each,
    with every bond written as a ring closure opened at its lower atom;
    and the offset of each atom."""
    closing: dict[int, list[int]] = {i: [] for i in range(len(graph.atoms))}
    opening: dict[int, list[int]] = {i: [] for i in range(len(graph.atoms))}
    for number, bond in enumerate(graph.bonds, start=10):
        opening[bond.a].append(number)
        closing[bond.b].append(number)
    text, offsets = "", []
    for i, atom in enumerate(graph.atoms):
        offsets.append(len(text) + (i > 0))
        text += ("." if i else "") + atom.element
        for number in closing[i]:
            text += f"%{number}"
        for number in opening[i]:
            order = graph.bonds[number - 10].order
            text += {"single": "", "double": "="}[order] + f"%{number}"
    return text, offsets


def test_from_spec_equals_parse_on_random_molecules():
    rng = random.Random(2401)
    for _ in range(300):
        graph = random_molecule(rng, max_atoms=14)
        # The parser adds a ring bond when its second atom is read.
        graph = MolecularGraph.from_spec(
            [AtomSpec(a.element) for a in graph.atoms],
            sorted(((b.a, b.b, b.order) for b in graph.bonds), key=lambda t: t[1]),
        )
        text, offsets = _smiles_in_atom_order(graph)
        parsed = parse_smiles(text)
        specs = [AtomSpec(a.element, offset=at) for a, at in zip(graph.atoms, offsets)]
        built = MolecularGraph.from_spec(specs, [(b.a, b.b, b.order) for b in graph.bonds])
        assert_same_graph(built, parsed)
        assert parsed.canonical == graph.canonical


@pytest.mark.parametrize("record, field", [
    (AtomSpec("C"), "element"),
    (AtomSpec("C"), "offset"),
    (parse_smiles("CO").atoms[0], "hydrogens"),
    (parse_smiles("CO").atoms[1], "element"),
    (parse_smiles("CO").bonds[0], "order"),
    (parse_smiles("CO").bonds[0], "a"),
])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_graph_is_immutable():
    graph = parse_smiles("CO")
    with pytest.raises(AttributeError):
        graph.atoms = ()
    with pytest.raises(TypeError):
        graph.neighbours[0][0] = 1
