import pytest

from molscreen import dataio
from molscreen.cli import main
from molscreen.dataio import DataError, load_dataset, read_molecules
from molscreen.features import FeatureError, load_latents
from molscreen.molgraph import MolecularGraph
from molscreen.scaffold import load_registry
from molscreen.screening import load_cas_table, load_pool, load_property_table


def _featurize(path):
    out = path.with_name(path.stem + "-features.csv")
    assert main(["featurize", "--dataset", str(path), "--out", str(out)]) == 0
    return out.read_text().splitlines()[1:]


# reader name -> (file body, call returning what the reader read)
READERS = {
    "dataset": ("smiles,pce\nOCC,12.5\n",
                lambda p: [r.canonical for r in load_dataset(p).records]),
    "pool": ("smiles,cas\nOCC,64-17-5\n",
             lambda p: [(r.canonical, r.cas) for r in load_pool(p).records]),
    "properties": ("smiles,donor_number,dipole_moment\nOCC,20,1.5\n",
                   lambda p: load_property_table(p)),
    "cas": ("smiles,cas\nOCC,64-17-5\n", lambda p: load_cas_table(p)),
    "latents": ("smiles,z1\nOCC,0.5\n",
                lambda p: {k: v.tolist() for k, v in load_latents(p).vectors.items()}),
    "registry": ("scaffold_smiles,group_id,group_name\nc1ccccc1,1,arenes\n",
                 lambda p: load_registry(p).entries),
    "featurize": ("smiles,pce\nOCC,12.5\n", _featurize),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_leading_comment_lines_are_skipped(tmp_path, name):
    body, read = READERS[name]
    plain = tmp_path / "plain.csv"
    plain.write_text(body)
    commented = tmp_path / "commented.csv"
    commented.write_text('# {"command": "featurize"}\n# second comment\n' + body)
    assert read(commented) == read(plain)
    assert read(plain)


class TestReadMolecules:
    def test_rows_graphs_and_messages(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# echo\nname,smiles\na,  CCO \nb,C1CC\n")
        with read_molecules(path) as (header, rows):
            assert header == ["name", "smiles"]
            (no_a, row_a, graph_a), (no_b, row_b, graph_b) = list(rows)
        assert (no_a, row_a) == (2, {"name": "a", "smiles": "CCO"})
        assert isinstance(graph_a, MolecularGraph) and graph_a.source == "CCO"
        assert (no_b, row_b["smiles"]) == (3, "C1CC")
        assert graph_b == "unclosed ring-bond digit (offset 1)"

    def test_missing_column_names_the_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("smiles\nCCO\n")
        with pytest.raises(FeatureError, match="m.csv misses column.*cas"):
            with read_molecules(path, ("smiles", "cas"), FeatureError):
                pass
        path.write_text("")
        with pytest.raises(DataError, match="m.csv"):
            with read_molecules(path):
                pass

    def test_shared_map_parses_each_spelling_once(self, tmp_path, monkeypatch):
        calls = []
        parse = dataio.parse_smiles
        monkeypatch.setattr(dataio, "parse_smiles", lambda s: calls.append(s) or parse(s))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text("smiles\nCCO\nC1CC\nCCO\n")
        second.write_text("smiles\nC1CC\nOCC\nCCO\n")
        parsed = {}
        graphs = []
        for path in (first, second):
            with read_molecules(path, parsed=parsed) as (_, rows):
                graphs.extend(graph for _, _, graph in rows)
        assert calls == ["CCO", "C1CC", "OCC"]
        assert graphs[0] is graphs[2] is graphs[5]
        # failures are kept as their message, not as the exception
        assert parsed["C1CC"] == graphs[1] == graphs[3] == "unclosed ring-bond digit (offset 1)"

    @pytest.mark.parametrize("header", [True, False], ids=["in-header", "in-row"])
    def test_bytes_that_are_not_utf8(self, tmp_path, header):
        path = tmp_path / "m.csv"
        path.write_bytes(b"smil\xffes\nCCO\n" if header else b"smiles\nCCO\nC\xffC\n")
        with pytest.raises(FeatureError, match=r"m\.csv: not UTF-8 text \(invalid start byte\)"):
            with read_molecules(path, error=FeatureError) as (_, rows):
                list(rows)

    def test_row_the_csv_module_rejects_is_numbered(self, tmp_path):
        # Row 2 spans two lines of the file; rows, not lines, are counted.
        path = tmp_path / "m.csv"
        path.write_text('# echo\nsmiles,note\nCCO,"two\nlines"\n'
                        + "C" * 140_000 + ",x\nCCN,y\n")
        seen = []
        with pytest.raises(DataError, match=r"m\.csv: row 3: field larger than field limit"):
            with read_molecules(path) as (_, rows):
                seen.extend(row_no for row_no, _, _ in rows)
        assert seen == [2]


# field type -> (JSON values it reads, as read; JSON values it rejects)
FIELD_TYPES = {
    dataio.integer: ([(3, 3), (2.0, 2), (-1, -1)], [1.9, True, "2", None, float("inf"), [1]]),
    dataio.number: ([(0.5, 0.5), (2, 2.0), (float("-inf"), float("-inf"))],
                    ["0.5", True, None, float("nan"), {}]),
    dataio.finite_float: ([(0.5, 0.5), (-3, -3.0)],
                          ["0.5", False, float("nan"), float("inf"), [0.5]]),
    dataio.boolean: ([(True, True), (False, False)], ["false", 0, 1, None]),
    dataio.string: ([("C_C", "C_C"), ("", "")], [5, None, ["C"], True]),
    dataio.strings: ([(["C", "N"], ["C", "N"]), ([], [])], ["C", ["C", 7], {"C": 1}]),
    dataio.json_object: ([({"a": 1}, {"a": 1})], [[], "a", None]),
}


@pytest.mark.parametrize("kind", FIELD_TYPES, ids=lambda kind: kind.__name__)
def test_json_field_types(kind):
    good, bad = FIELD_TYPES[kind]
    for value, read in good:
        assert kind(value) == read and type(kind(value)) is type(read)
    for value in bad:
        with pytest.raises((TypeError, ValueError)):
            kind(value)


def test_finite_floats_types_each_element():
    assert dataio.finite_floats([1, 2.5]).tolist() == [1.0, 2.5]
    for value, message in [([1.0, "2"], "expected a number in the list, got '2'"),
                           ([True], "expected a number in the list, got True"),
                           ("1.0", "expected a list of numbers, got '1.0'"),
                           ([1.0, float("nan")], "holds a non-finite number")]:
        with pytest.raises((TypeError, ValueError), match=message):
            dataio.finite_floats(value)


def test_json_field_names_the_path():
    data = {"outer": {"inner": "7"}}
    read = lambda v: dataio.json_field(v, "inner", dataio.integer, DataError)  # noqa: E731
    with pytest.raises(DataError) as caught:
        dataio.json_field(data, "outer", read, DataError)
    assert str(caught.value) == "field 'outer': field 'inner': expected an integer, got '7'"
