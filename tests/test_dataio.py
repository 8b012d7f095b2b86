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
