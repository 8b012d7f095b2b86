import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import molscreen
from molscreen.cli import build_parser, main

from conftest import DATA_DIR

DATASET = str(DATA_DIR / "additives24.csv")
REGISTRY = str(DATA_DIR / "scaffold_groups.csv")
# JSON nested far deeper than json.load recurses.
NESTED = '{"blocks": ' * 100_000 + "1" + "}" * 100_000


def run(*argv) -> int:
    return main(list(argv))


def read_matrix(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")  # embedded config echo
    rows = list(csv.reader(lines[1:]))
    return rows[0], rows[1:]


class TestFeaturize:
    def test_descriptor_matrix_shape(self, tmp_path):
        out = tmp_path / "features.csv"
        assert run("featurize", "--dataset", DATASET, "--blocks", "D",
                   "--out", str(out)) == 0
        header, body = read_matrix(out)
        assert len(body) == 24
        assert len(header) == 1 + 24  # smiles + 24 descriptors
        assert header[1].startswith("D:")

    def test_z_without_latents_is_usage_error(self, tmp_path, capsys):
        code = run("featurize", "--dataset", DATASET, "--blocks", "D,Z",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "latents" in capsys.readouterr().err

    def test_skip_bad(self, tmp_path, capsys):
        dataset = tmp_path / "mixed.csv"
        rows = ["smiles,pce"] + [f"{'C' * (i + 1)},20" for i in range(9)] + ["C1CC,20"]
        dataset.write_text("\n".join(rows) + "\n")
        out = tmp_path / "f.csv"
        code = run("featurize", "--dataset", str(dataset), "--out", str(out))
        assert code == 1  # bad row fails the run by default
        code = run("featurize", "--dataset", str(dataset), "--out", str(out),
                   "--skip-bad")
        assert code == 0
        assert "warning" in capsys.readouterr().err
        _, body = read_matrix(out)
        assert len(body) == 9

    def test_matrix_reads_back_as_input(self, tmp_path):
        keys = tmp_path / "k.csv"
        assert run("featurize", "--dataset", DATASET, "--blocks", "K",
                   "--out", str(keys)) == 0
        again = tmp_path / "k2.csv"
        assert run("featurize", "--dataset", DATASET, "--blocks", "K",
                   "--external-fingerprints", str(keys), "--out", str(again)) == 0
        _, first = read_matrix(keys)
        _, second = read_matrix(again)
        assert second == first
        assert run("train", "--dataset", DATASET, "--model", "svr", "--blocks", "D,Z",
                   "--latents", str(keys), "--out", str(tmp_path / "m.json"),
                   "--pipeline-out", str(tmp_path / "p.json")) == 0

    def test_block_tags_round_trip(self, tmp_path):
        keys = tmp_path / "k.csv"
        assert run("featurize", "--dataset", DATASET, "--blocks", "K",
                   "--out", str(keys)) == 0
        again = tmp_path / "k2.csv"
        assert run("featurize", "--dataset", DATASET, "--blocks", "K",
                   "--external-fingerprints", str(keys), "--out", str(again)) == 0
        assert read_matrix(again) == read_matrix(keys)
        assert read_matrix(keys)[0][1].startswith("K:") and "K:K:" not in again.read_text()

        _, body = read_matrix(keys)
        plain = tmp_path / "z.csv"
        plain.write_text("smiles,z1,z2\n" + "".join(
            f"{row[0]},{i % 5},{i * 0.5}\n" for i, row in enumerate(body)))
        latent = tmp_path / "zm.csv"
        assert run("featurize", "--dataset", DATASET, "--blocks", "Z",
                   "--latents", str(plain), "--out", str(latent)) == 0
        latent_again = tmp_path / "zm2.csv"
        assert run("featurize", "--dataset", DATASET, "--blocks", "Z",
                   "--latents", str(latent), "--out", str(latent_again)) == 0
        assert read_matrix(latent)[0] == ["smiles", "Z:z1", "Z:z2"]
        assert read_matrix(latent_again) == read_matrix(latent)

    def test_latent_name_with_comma_reads_back(self, tmp_path):
        dataset = tmp_path / "two.csv"
        dataset.write_text("smiles,pce\nCCO,10\nCCN,20\n")
        latents = tmp_path / "z.csv"
        latents.write_text('smiles,"z,1",z2\nCCO,1,2\nCCN,3,4\n')
        out = tmp_path / "m.csv"
        assert run("featurize", "--dataset", str(dataset), "--blocks", "Z",
                   "--latents", str(latents), "--out", str(out)) == 0
        header, body = read_matrix(out)
        assert header == ["smiles", "Z:z,1", "Z:z2"]
        assert [len(row) for row in body] == [3, 3]

    def test_bad_blocks_usage_error(self, tmp_path):
        assert run("featurize", "--dataset", DATASET, "--blocks", "Q",
                   "--out", str(tmp_path / "x.csv")) == 2

    def test_duplicate_molecule_names_both_rows(self, tmp_path, capsys):
        dataset = tmp_path / "d.csv"
        dataset.write_text("smiles,pce\nCCO,12\nOCC,14\n")
        assert run("featurize", "--dataset", str(dataset), "--out", str(tmp_path / "f.csv")) == 1
        assert capsys.readouterr().err == "error: row 3: duplicate of row 2 ('OCC')\n"
        assert not (tmp_path / "f.csv").exists()


GOOD_KEY = {"id": 0, "label": "C_C", "atoms": [{"element": "C"}, {"element": "C"}],
            "bonds": [{"a": 0, "b": 1}]}


class TestMalformedKeyset:
    """A bad key-set file is a validation failure (exit 1) with a message
    naming the file and the key, never a traceback."""

    def featurize(self, tmp_path, capsys, content):
        path = tmp_path / "keys.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        code = run("featurize", "--dataset", DATASET, "--blocks", "K", "--keyset", str(path),
                   "--out", str(tmp_path / "f.csv"))
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("b", [5, -1])
    def test_bond_index_out_of_range(self, tmp_path, capsys, b):
        entry = dict(GOOD_KEY, bonds=[{"a": 0, "b": b}])
        code, err = self.featurize(tmp_path, capsys, [entry])
        assert code == 1
        path = tmp_path / "keys.json"
        assert f"error: {path}: key 'C_C' has bond 0-{b} outside its 2 atoms" in err

    def test_missing_atoms(self, tmp_path, capsys):
        entry = {k: v for k, v in GOOD_KEY.items() if k != "atoms"}
        code, err = self.featurize(tmp_path, capsys, [entry])
        assert code == 1
        assert f"error: {tmp_path / 'keys.json'}: key 'C_C' is missing 'atoms'" in err

    def test_object_instead_of_list(self, tmp_path, capsys):
        code, err = self.featurize(tmp_path, capsys, GOOD_KEY)
        assert code == 1
        assert "must be a list of keys, not dict" in err

    def test_pattern_too_large(self, tmp_path, capsys):
        entry = {"id": 0, "label": "long", "atoms": [{"element": "C"}] * 9,
                 "bonds": [{"a": i, "b": i + 1} for i in range(8)]}
        code, err = self.featurize(tmp_path, capsys, [entry])
        assert code == 1
        assert f"error: {tmp_path / 'keys.json'}: key 'long' has 9 atoms (limit 8)" in err

    @pytest.mark.parametrize("min_count", [0, -1])
    def test_min_count_below_one(self, tmp_path, capsys, min_count):
        code, err = self.featurize(tmp_path, capsys, [dict(GOOD_KEY, min_count=min_count)])
        assert code == 1
        assert f"error: {tmp_path / 'keys.json'}: key 'C_C' has min_count {min_count}" in err

    def test_aromatic_flag_not_a_boolean(self, tmp_path, capsys):
        entry = dict(GOOD_KEY, atoms=[{"element": "C", "aromatic": "false"}], bonds=[])
        code, err = self.featurize(tmp_path, capsys, [entry])
        assert code == 1
        assert f"error: {tmp_path / 'keys.json'}: key 'C_C' has aromatic 'false'" in err

    def test_unknown_element(self, tmp_path, capsys):
        entry = dict(GOOD_KEY, atoms=[{"element": "Xx"}], bonds=[])
        code, err = self.featurize(tmp_path, capsys, [entry])
        assert code == 1
        assert f"error: {tmp_path / 'keys.json'}: key 'C_C' has unknown element 'Xx'" in err

    def test_not_json(self, tmp_path, capsys):
        code, err = self.featurize(tmp_path, capsys, "[{")
        assert code == 1
        assert f"error: {tmp_path / 'keys.json'}: not valid JSON" in err

    def test_deeply_nested_json(self, tmp_path, capsys):
        code, err = self.featurize(tmp_path, capsys, NESTED)
        assert code == 1
        assert err == f"error: {tmp_path / 'keys.json'}: JSON nested too deeply to read\n"

    @pytest.mark.parametrize("entry, field, got", [
        (dict(GOOD_KEY, id=1.9), "'id'", "1.9"),
        (dict(GOOD_KEY, bonds=[{"a": True, "b": 1}]), "'a'", "True"),
        (dict(GOOD_KEY, min_count=2.5), "'min_count'", "2.5"),
    ], ids=["id", "bond-end", "min-count"])
    def test_mistyped_integer(self, tmp_path, capsys, entry, field, got):
        # int() took each of these: 1.9 as key 1, True as atom 1.
        code, err = self.featurize(tmp_path, capsys, [entry])
        assert code == 1 and err.count("\n") == 1
        assert err.startswith(f"error: {tmp_path / 'keys.json'}: key ")
        assert f"field {field}: expected an integer, got {got}" in err

    def test_label_not_a_string(self, tmp_path, capsys):
        # str() took it, as the key '5'.
        code, err = self.featurize(tmp_path, capsys, [dict(GOOD_KEY, label=5)])
        assert code == 1 and err.count("\n") == 1
        path = tmp_path / "keys.json"
        assert f"error: {path}: key 'entry 0' field 'label': expected a string, got 5" in err

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "keys.json"
        path.write_bytes(b'[{"id": 0, "label": "\xff", "atoms": [{}]}]')
        code = run("featurize", "--dataset", DATASET, "--blocks", "K", "--keyset", str(path),
                   "--out", str(tmp_path / "f.csv"))
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1
        assert err.startswith(f"error: {path}: not valid JSON: ") and "0xff" in err

    def test_good_keyset(self, tmp_path, capsys):
        code, _ = self.featurize(tmp_path, capsys, [GOOD_KEY])
        assert code == 0
        header, body = read_matrix(tmp_path / "f.csv")
        assert header == ["smiles", "K:C_C"] and len(body) == 24


class TestFeaturizeNoMolecules:
    """With no usable molecule, featurize writes the header alone."""

    WIDTHS = {"K": 64, "D": 24, "K,D": 88}

    @pytest.mark.parametrize("blocks", ["K", "D", "K,D"])
    def test_header_only_dataset(self, tmp_path, blocks):
        dataset = tmp_path / "empty.csv"
        dataset.write_text("smiles,pce\n")
        out = tmp_path / "f.csv"
        assert run("featurize", "--dataset", str(dataset), "--blocks", blocks,
                   "--out", str(out)) == 0
        header, body = read_matrix(out)
        assert len(header) == 1 + self.WIDTHS[blocks] and body == []

    @pytest.mark.parametrize("blocks", ["K", "D", "K,D"])
    def test_every_row_skipped(self, tmp_path, capsys, blocks):
        dataset = tmp_path / "bad.csv"
        dataset.write_text("smiles,pce\nC1CC,20\nC(C,20\n")
        out = tmp_path / "f.csv"
        assert run("featurize", "--dataset", str(dataset), "--blocks", blocks,
                   "--out", str(out), "--skip-bad") == 0
        assert capsys.readouterr().err.count("warning") == 2
        header, body = read_matrix(out)
        assert len(header) == 1 + self.WIDTHS[blocks] and body == []


class TestTrain:
    def test_gb_defaults_write_35_trees(self, tmp_path):
        out = tmp_path / "model.json"
        pipe = tmp_path / "pipe.json"
        assert run("train", "--dataset", DATASET, "--model", "gb",
                   "--out", str(out), "--pipeline-out", str(pipe)) == 0
        model = json.loads(out.read_text())
        assert model["kind"] == "gb"
        assert len(model["trees"]) == 35
        pipeline = json.loads(pipe.read_text())
        assert set(pipeline) >= {"column_max", "kept_columns", "thresholds", "scope"}
        assert pipeline["run_config"]["model"] == "gb"

    def test_rf_defaults_write_55_trees(self, tmp_path):
        out = tmp_path / "model.json"
        assert run("train", "--dataset", DATASET, "--model", "rf",
                   "--out", str(out), "--pipeline-out", str(tmp_path / "p.json")) == 0
        assert len(json.loads(out.read_text())["trees"]) == 55

    def test_svr_table_defaults(self, tmp_path):
        out = tmp_path / "model.json"
        assert run("train", "--dataset", DATASET, "--model", "svr",
                   "--out", str(out), "--pipeline-out", str(tmp_path / "p.json")) == 0
        model = json.loads(out.read_text())
        assert model["C"] == 500.0 and model["epsilon"] == 0.75

    @pytest.mark.parametrize("flags", [["--gamma", "-2"], ["--gamma", "nan"],
                                       ["--svr-c", "0"], ["--svr-epsilon", "-0.5"]])
    def test_malformed_svr_hyperparameter_exits_1(self, tmp_path, capsys, flags):
        out = tmp_path / "model.json"
        assert run("train", "--dataset", DATASET, "--model", "svr", *flags,
                   "--out", str(out), "--pipeline-out", str(tmp_path / "p.json")) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("model, flags, field", [
        ("rf", ["--n-estimators", "0"], "n_estimators"),
        ("rf", ["--n-estimators", "-3"], "n_estimators"),
        ("gb", ["--n-estimators", "-2"], "n_estimators"),
        ("gb", ["--learning-rate", "inf"], "learning_rate"),
        ("gb", ["--learning-rate", "nan"], "learning_rate"),
        ("gb", ["--learning-rate", "0"], "learning_rate"),
        ("gb", ["--learning-rate", "-1"], "learning_rate"),
        ("gb", ["--n-estimators", "0", "--max-depth", "-1"], "max_depth"),
    ])
    def test_broken_tree_hyperparameter_exits_1(self, tmp_path, capsys, model, flags, field):
        out = tmp_path / "model.json"
        assert run("train", "--dataset", DATASET, "--model", model, *flags,
                   "--out", str(out), "--pipeline-out", str(tmp_path / "p.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--pcc-threshold", "nan"],
                                       ["--pcc-threshold", "inf"],
                                       ["--variance-threshold=-inf"]])
    def test_non_finite_threshold_exits_1(self, tmp_path, capsys, flags):
        out = tmp_path / "model.json"
        pipe = tmp_path / "p.json"
        assert run("train", "--dataset", DATASET, "--model", "gb", *flags,
                   "--out", str(out), "--pipeline-out", str(pipe)) == 1
        assert "must be a finite number" in capsys.readouterr().err
        assert not out.exists() and not pipe.exists()

    def test_unknown_model_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run("train", "--dataset", DATASET, "--model", "boost",
                "--out", str(tmp_path / "m.json"),
                "--pipeline-out", str(tmp_path / "p.json"))
        assert err.value.code == 2
        assert "gb" in capsys.readouterr().err  # argparse lists the choices


class TestEvaluate:
    def test_rerun_byte_identical(self, tmp_path):
        args = ["evaluate", "--dataset", DATASET, "--registry", REGISTRY,
                "--splitter", "msc", "--repeats", "5", "--seed", "7",
                "--out-json", str(tmp_path / "r.json"),
                "--out-text", str(tmp_path / "r.txt")]
        assert run(*args) == 0
        first = (tmp_path / "r.json").read_bytes(), (tmp_path / "r.txt").read_bytes()
        assert run(*args) == 0
        second = (tmp_path / "r.json").read_bytes(), (tmp_path / "r.txt").read_bytes()
        assert first == second

    def test_logo_per_group_breakdown(self, tmp_path):
        # a nine-group dataset built from the registry scaffolds, with a
        # target that tracks molecule size so held-out predictions vary
        from molscreen.molgraph import parse_smiles

        per_group = {
            1: ["CCO", "CCN", "CCCCO"],
            2: ["Cc1ccccc1", "OCCc1ccccc1", "Nc1ccncc1"],
            3: ["Cc1cccs1", "CCc1ccco1", "OCCc1cccs1"],
            4: ["Cc1ccc2ccccc2c1", "OCc1ccc2ccccc2c1", "CCCc1ccc2ccccc2c1"],
            5: ["CC1CCCCC1", "OCC1CCCCC1", "NC1CCC1"],
            6: ["CC1CCNCC1", "OCC1CCNCC1", "CCC1CCNC1"],
            7: ["CC1CCOC1", "OCC1CCOCC1", "CCC1CCOC1"],
            8: ["CC1COCCOCCOCCO1", "OCC1COCCOCCOCCO1", "NCC1COCCOCCOCCOCCO1"],
            9: ["CC1CCSC1", "OCC1CCSC1", "CCC1CS1"],
        }
        rows = ["smiles,pce"]
        for gid in sorted(per_group):
            for smiles in per_group[gid]:
                heavy = parse_smiles(smiles).heavy_atom_count()
                rows.append(f"{smiles},{12.0 + 0.8 * heavy + 0.1 * gid}")
        dataset = tmp_path / "nine.csv"
        dataset.write_text("\n".join(rows) + "\n")
        assert run("evaluate", "--dataset", str(dataset), "--registry", REGISTRY,
                   "--splitter", "logo",
                   "--out-json", str(tmp_path / "r.json"),
                   "--out-text", str(tmp_path / "r.txt")) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert len(payload["per_group"]) == 9
        assert [g["group_id"] for g in payload["per_group"]] == list(range(1, 10))
        text = (tmp_path / "r.txt").read_text()
        breakdown_rows = [l for l in text.splitlines() if l.startswith("  group ")]
        assert len(breakdown_rows) == 9

    def test_degenerate_repeats_recorded(self, tmp_path):
        # ceil(24 * 0.01) = 1 test molecule per repeat: Spearman is undefined
        assert run("evaluate", "--dataset", DATASET, "--registry", REGISTRY,
                   "--model", "svr", "--splitter", "random", "--repeats", "3",
                   "--test-fraction", "0.01",
                   "--out-json", str(tmp_path / "e.json"),
                   "--out-text", str(tmp_path / "e.txt")) == 0
        payload = json.loads((tmp_path / "e.json").read_text())
        assert payload["degenerate_repeats"] == 3
        assert payload["spearman"] == {"mean": None, "std": None}
        assert [r["spearman"] for r in payload["per_repeat"]] == [None] * 3
        assert all(r["mae"] >= 0 for r in payload["per_repeat"])
        assert "3 of 3 repeats degenerate" in (tmp_path / "e.txt").read_text()

    def test_svr_report_counts_unconverged_fits(self, tmp_path):
        assert run("evaluate", "--dataset", DATASET, "--registry", REGISTRY,
                   "--model", "svr", "--repeats", "3",
                   "--out-json", str(tmp_path / "e.json"),
                   "--out-text", str(tmp_path / "e.txt")) == 0
        assert json.loads((tmp_path / "e.json").read_text())["unconverged_fits"] == 0
        assert "converge" not in (tmp_path / "e.txt").read_text()

    def test_zero_repeats_usage_error(self, tmp_path):
        assert run("evaluate", "--dataset", DATASET, "--registry", REGISTRY,
                   "--repeats", "0",
                   "--out-json", str(tmp_path / "r.json"),
                   "--out-text", str(tmp_path / "r.txt")) == 2

    def test_msc_without_registry_usage_error(self, tmp_path):
        assert run("evaluate", "--dataset", DATASET,
                   "--out-json", str(tmp_path / "r.json"),
                   "--out-text", str(tmp_path / "r.txt")) == 2

    @pytest.mark.parametrize("splitter", ["msc", "logo", "random"])
    @pytest.mark.parametrize("fraction", ["nan", "inf", "0", "1.5", "-0.1"])
    def test_test_fraction_outside_unit_interval_exits_1(self, tmp_path, capsys, splitter,
                                                          fraction):
        # Every splitter's report records the fraction, so every splitter
        # checks it; a NaN would be written as invalid JSON.
        assert run("evaluate", "--dataset", DATASET, "--registry", REGISTRY,
                   "--splitter", splitter, "--repeats", "2", "--test-fraction", fraction,
                   "--out-json", str(tmp_path / "r.json"),
                   "--out-text", str(tmp_path / "r.txt")) == 1
        err = capsys.readouterr().err
        assert err == f"error: test_fraction must be in (0, 1], got {float(fraction)!r}\n"
        assert not (tmp_path / "r.json").exists()


@pytest.fixture()
def screen_dir(tmp_path):
    assert run("train", "--dataset", DATASET, "--model", "gb", "--seed", "3",
               "--out", str(tmp_path / "model.json"),
               "--pipeline-out", str(tmp_path / "pipeline.json")) == 0
    pool = tmp_path / "pool.csv"
    lines = ["smiles"] + [
        "Cc1ccccc1", "Oc1ccccc1", "Nc1ccccc1", "CCc1ccncc1", "Cc1cccs1",
        "CC1CCNCC1", "CCO", "NCCO", "C[Se]C", "C1CCCCCC1",
    ]
    pool.write_text("\n".join(lines) + "\n")
    (tmp_path / "properties.csv").write_text(
        "smiles,donor_number,dipole_moment,hba\n"
        "Cc1ccccc1,20,2.0,\nOc1ccccc1,25,1.8,\nNc1ccccc1,30,1.5,\n"
        "CCc1ccncc1,33,2.2,\nCc1cccs1,15,0.4,\nCC1CCNCC1,28,1.1,\n"
        "CCO,31,1.7,\nNCCO,29,2.4,\n"
    )
    (tmp_path / "cas.csv").write_text(
        "smiles,cas\nCc1ccccc1,108-88-3\nOc1ccccc1,108-95-2\n"
        "CCc1ccncc1,536-75-4\nCCO,64-17-5\nNCCO,141-43-5\n"
    )
    config = {
        "pool": "pool.csv",
        "registry": REGISTRY,
        "model": "model.json",
        "pipeline": "pipeline.json",
        "blocks": ["D"],
        "vocabulary": {"elements": ["C", "N", "O", "S", "P", "F", "Cl",
                                    "Br", "I", "B", "Si", "H", "K"]},
        "top_fraction": 0.9,
        "thresholds": {"dn_min": 18.0, "dm_min": 1.0, "ha_min": 1},
        "properties": "properties.csv",
        "cas": "cas.csv",
    }
    (tmp_path / "funnel.json").write_text(json.dumps(config, indent=2))
    return tmp_path


class TestMalformedNumbers:
    """A cell that is no number exits 1 with one line naming its row."""

    def check(self, capsys, argv, column):
        assert run(*map(str, argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "row 2" in err and column in err

    def test_dataset_pce(self, tmp_path, capsys):
        dataset = tmp_path / "d.csv"
        dataset.write_text("smiles,pce\nCCO,abc\nCCN,12\nCCC,14\n")
        self.check(capsys, ["train", "--dataset", dataset, "--model", "gb",
                            "--out", tmp_path / "m.json", "--pipeline-out", tmp_path / "p.json"],
                   "pce")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("column, cell", [("donor_number", "x"),
                                              ("dipole_moment", "1,5"),
                                              ("hba", "2.5"),
                                              ("donor_number", "nan"),
                                              ("dipole_moment", "inf")])
    def test_property_table(self, screen_dir, capsys, column, cell):
        values = {"donor_number": "20", "dipole_moment": "2.0", "hba": "1", column: cell}
        (screen_dir / "properties.csv").write_text(
            "smiles,donor_number,dipole_moment,hba\n"
            f"Cc1ccccc1,{values['donor_number']},\"{values['dipole_moment']}\",{values['hba']}\n"
        )
        self.check(capsys, ["screen", "--funnel", screen_dir / "funnel.json",
                            "--out-json", screen_dir / "r.json",
                            "--out-text", screen_dir / "r.txt"], column)
        assert not (screen_dir / "r.json").exists()

    def test_latent_table(self, tmp_path, capsys):
        latents = tmp_path / "z.csv"
        latents.write_text("smiles,z1,z2\nCCO,0.5,1e-3x\n")
        self.check(capsys, ["featurize", "--dataset", DATASET, "--blocks", "Z",
                            "--latents", latents, "--out", tmp_path / "f.csv"], "z2")

    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    def test_non_finite_latent(self, tmp_path, capsys, cell):
        latents = tmp_path / "z.csv"
        latents.write_text(f"smiles,z1,z2\nCCO,0.5,{cell}\n")
        self.check(capsys, ["featurize", "--dataset", DATASET, "--blocks", "Z",
                            "--latents", latents, "--out", tmp_path / "f.csv"], "z2")


class TestUnreadableMoleculeFile:
    """A molecule CSV that is not UTF-8, or that the csv module rejects,
    exits 1 with one line naming the file."""

    CASES = {
        "not-utf8": (b"smiles,pce\nCCO,12\nCC\xffN,14\n", "not UTF-8 text"),
        "huge-cell": (b"smiles,pce\nCCO,12\n" + b"C" * 140_000 + b",14\n",
                      "row 3: field larger than field limit"),
    }

    def check(self, capsys, argv, path, message):
        assert run(*map(str, argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("case", CASES)
    def test_featurize(self, tmp_path, capsys, case):
        content, message = self.CASES[case]
        dataset = tmp_path / "d.csv"
        dataset.write_bytes(content)
        self.check(capsys, ["featurize", "--dataset", dataset, "--blocks", "D",
                            "--out", tmp_path / "f.csv"], dataset, message)
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("case", CASES)
    def test_screen_pool(self, screen_dir, capsys, case):
        content, message = self.CASES[case]
        pool = screen_dir / "pool.csv"
        pool.write_bytes(content)
        self.check(capsys, ["screen", "--funnel", screen_dir / "funnel.json",
                            "--out-json", screen_dir / "r.json",
                            "--out-text", screen_dir / "r.txt"], pool, message)
        assert not (screen_dir / "r.json").exists()


NAN, INF = float("nan"), float("inf")


def first_leaf(node: dict) -> dict:
    while "leaf" not in node:
        node = node["left"]
    return node


def chain(levels: int) -> dict:
    """A tree's root ``levels`` splits deep: each split's right child
    splits again."""
    node = {"leaf": 0.0}
    for level in range(levels):
        node = {"feature": 0, "threshold": float(level), "left": {"leaf": 1.0}, "right": node}
    return node


class TestMalformedArtifacts:
    """A broken pipeline or model file exits 1 with one line naming it."""

    def check(self, screen_dir, capsys, name, text, message):
        (screen_dir / name).write_text(text)
        assert run("screen", "--funnel", str(screen_dir / "funnel.json"),
                   "--out-json", str(screen_dir / "r.json"),
                   "--out-text", str(screen_dir / "r.txt")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {screen_dir / name}") and err.count("\n") == 1
        assert message in err
        assert not (screen_dir / "r.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("kept_columns"), "missing field 'kept_columns'"),
        (lambda d: d.update(kept_columns="n_atoms"), "field 'kept_columns': expected a list"),
        (lambda d: d["thresholds"].pop("pcc"), "missing field 'pcc'"),
        (lambda d: d["column_max"].update(n_atoms="big"), "field 'column_max': "),
        (lambda d: d.update(format_version=99), "unsupported pipeline format version 99"),
    ], ids=["missing", "mistyped", "thresholds", "peak", "version"])
    def test_pipeline_field(self, screen_dir, capsys, edit, message):
        data = json.loads((screen_dir / "pipeline.json").read_text())
        edit(data)
        self.check(screen_dir, capsys, "pipeline.json", json.dumps(data), message)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("trees"), "missing field 'trees'"),
        (lambda d: d["trees"][0].update(root=[]), "field 'trees': field 'root': expected"),
    ], ids=["missing", "nested"])
    def test_model_field(self, screen_dir, capsys, edit, message):
        data = json.loads((screen_dir / "model.json").read_text())
        edit(data)
        self.check(screen_dir, capsys, "model.json", json.dumps(data), message)

    @pytest.mark.parametrize("kind, edit, message", [
        ("svr", lambda d: d["coefficients"].pop(), "values for "),
        ("svr", lambda d: d.update(kernel="poly"), "field 'kernel': unknown kernel 'poly'"),
        ("gb", lambda d: d["trees"][0]["root"].update(feature=99), "feature 99, outside [0, "),
        ("gb", lambda d: d["trees"][0]["root"].update(feature=-1), "feature -1, outside [0, "),
        ("gb", lambda d: d["trees"][0].update(n_features=99), "a tree reads 99 features"),
        ("rf", lambda d: d.update(trees=[]), "a forest needs at least one tree"),
        ("gb", lambda d: d["trees"][0].update(root=chain(300)),
         "field 'trees': a tree 300 levels deep has max_depth 4"),
        ("gb", lambda d: d["trees"][0].update(root=chain(150)),
         "field 'trees': a tree 150 levels deep has max_depth 4"),
        ("rf", lambda d: d["trees"][-1].update(root=chain(11)),
         "field 'trees': a tree 11 levels deep has max_depth 10"),
        ("gb", lambda d: d["trees"][3].update(max_depth=5),
         "field 'trees': tree 3 has max_depth 5, tree 0 has 4"),
        ("rf", lambda d: d["trees"][2].update(min_samples_leaf=2),
         "field 'trees': tree 2 has min_samples_leaf 2, not 1"),
    ], ids=["svr-coefficients", "svr-kernel", "gb-feature-high", "gb-feature-negative",
            "gb-tree-width", "rf-no-trees", "gb-tree-300-levels", "gb-tree-150-levels",
            "rf-tree-one-level-too-deep", "gb-tree-max-depth-differs",
            "rf-tree-min-samples-leaf"])
    def test_model_fields_disagree(self, screen_dir, capsys, kind, edit, message):
        # Each file reads field by field; its fields must also fit together.
        assert run("train", "--dataset", DATASET, "--model", kind, "--seed", "3",
                   "--out", str(screen_dir / "model.json"),
                   "--pipeline-out", str(screen_dir / "pipeline.json")) == 0
        data = json.loads((screen_dir / "model.json").read_text())
        edit(data)
        self.check(screen_dir, capsys, "model.json", json.dumps(data), message)

    @pytest.mark.parametrize("name, kind, edit, message", [
        ("model.json", "gb", lambda d: d["trees"][0]["root"].update(threshold=NAN),
         "field 'threshold': nan is not a finite number"),
        ("model.json", "gb", lambda d: first_leaf(d["trees"][0]["root"]).update(leaf=INF),
         "field 'leaf': inf is not a finite number"),
        ("model.json", "gb", lambda d: d.update(init_value=NAN),
         "field 'init_value': nan is not a finite number"),
        ("model.json", "gb", lambda d: d.update(learning_rate=INF),
         "field 'learning_rate': inf is not a finite number"),
        ("model.json", "svr", lambda d: d["support_vectors"][0].__setitem__(0, NAN),
         "field 'support_vectors': holds a non-finite number"),
        ("model.json", "svr", lambda d: d["coefficients"].__setitem__(0, -INF),
         "field 'coefficients': holds a non-finite number"),
        ("model.json", "svr", lambda d: d.update(bias=NAN),
         "field 'bias': nan is not a finite number"),
        ("model.json", "svr", lambda d: d.update(gamma=INF),
         "field 'gamma': inf is not a finite number"),
        ("model.json", "svr", lambda d: d.update(C=NAN), "field 'C': nan is not a finite number"),
        ("model.json", "svr", lambda d: d.update(epsilon=-INF),
         "field 'epsilon': -inf is not a finite number"),
        ("pipeline.json", "gb",
         lambda d: d["column_max"].update(dict.fromkeys(d["column_max"], NAN)),
         "field 'column_max': nan is not a finite number"),
        ("pipeline.json", "gb", lambda d: d["thresholds"].update(variance=INF),
         "field 'variance': inf is not a finite number"),
        ("pipeline.json", "gb", lambda d: d["thresholds"].update(pcc=NAN),
         "field 'pcc': nan is not a finite number"),
    ], ids=["tree-threshold", "tree-leaf", "gb-init-value", "gb-learning-rate",
            "svr-support-vectors", "svr-coefficients", "svr-bias", "svr-gamma", "svr-C",
            "svr-epsilon", "pipeline-column-max", "pipeline-variance", "pipeline-pcc"])
    def test_non_finite_number(self, screen_dir, capsys, name, kind, edit, message):
        # json reads NaN and Infinity; a model that held one would predict
        # NaN, which the report would write as invalid JSON.
        assert run("train", "--dataset", DATASET, "--model", kind, "--seed", "3",
                   "--out", str(screen_dir / "model.json"),
                   "--pipeline-out", str(screen_dir / "pipeline.json")) == 0
        data = json.loads((screen_dir / name).read_text())
        edit(data)
        self.check(screen_dir, capsys, name, json.dumps(data), message)

    @pytest.mark.parametrize("name, kind, edit, message", [
        ("model.json", "gb", lambda d: d["trees"][0]["root"].update(feature=1.9),
         "field 'root': field 'feature': expected an integer, got 1.9"),
        ("model.json", "gb", lambda d: d.update(n_features="15"),
         "field 'n_features': expected an integer, got '15'"),
        ("model.json", "gb", lambda d: d["trees"][0].update(max_depth=True),
         "field 'max_depth': expected an integer, got True"),
        ("model.json", "rf", lambda d: d.update(tree_seeds=[1.5]),
         "field 'tree_seeds': expected an integer, got 1.5"),
        ("model.json", "svr", lambda d: d.update(converged="false"),
         "field 'converged': expected true or false, got 'false'"),
        ("model.json", "gb", lambda d: d["trees"][0]["root"].update(threshold="0.5"),
         "field 'threshold': expected a number, got '0.5'"),
        ("model.json", "gb", lambda d: d["trees"][0]["root"].update(right={
            "feature": 0, "threshold": 0.5, "left": {"leaf": "x"}, "right": {"leaf": 1.0}}),
         "field 'trees': field 'root': field 'right': field 'left': field 'leaf': "
         "expected a number, got 'x'"),
        ("model.json", "gb", lambda d: d.update(init_value=True),
         "field 'init_value': expected a number, got True"),
        ("model.json", "svr", lambda d: d["coefficients"].__setitem__(0, "1.0"),
         "field 'coefficients': expected a number in the list, got '1.0'"),
        ("pipeline.json", "gb", lambda d: d["thresholds"].update(pcc="0.9"),
         "field 'pcc': expected a number, got '0.9'"),
        ("model.json", "rf", lambda d: d.update(tree_seeds=[]),
         "field 'tree_seeds': 0 seeds for 55 trees"),
        ("model.json", "rf", lambda d: d.update(tree_seeds=[-5, 2**70]),
         "field 'tree_seeds': seed -5 is outside [0, 2**64)"),
    ], ids=["tree-feature", "n-features", "max-depth", "rf-tree-seeds", "svr-converged",
            "tree-threshold", "tree-nested-leaf", "gb-init-value", "svr-coefficients", "pipeline-pcc",
            "rf-no-tree-seeds", "rf-tree-seed-range"])
    def test_mistyped_field(self, screen_dir, capsys, name, kind, edit, message):
        # JSON's numbers are apart from its strings and booleans: each of
        # these read as a number, an integer or a boolean before.
        assert run("train", "--dataset", DATASET, "--model", kind, "--seed", "3",
                   "--out", str(screen_dir / "model.json"),
                   "--pipeline-out", str(screen_dir / "pipeline.json")) == 0
        data = json.loads((screen_dir / name).read_text())
        edit(data)
        self.check(screen_dir, capsys, name, json.dumps(data), message)

    @pytest.mark.parametrize("name", ["pipeline.json", "model.json"])
    @pytest.mark.parametrize("version, message", [
        (True, "expected an integer, got True"),
        ("1", "expected an integer, got '1'"),
        (2, "unsupported {} format version 2"),
    ], ids=["true", "string", "two"])
    def test_format_version(self, screen_dir, capsys, name, version, message):
        # Compared with != alone, true passed as version 1.
        data = json.loads((screen_dir / name).read_text())
        data["format_version"] = version
        message = "field 'format_version': " + message.format(name.removesuffix(".json"))
        self.check(screen_dir, capsys, name, json.dumps(data), message)

    def test_a_deep_tree_within_its_max_depth_reads(self, screen_dir):
        # The tree reader walks nodes with a stack of its own, so a tree
        # as deep as its max_depth says reads at any depth json reads. The
        # trees of a model share one max_depth.
        data = json.loads((screen_dir / "model.json").read_text())
        for tree in data["trees"]:
            tree.update(max_depth=300)
        data["trees"][0].update(root=chain(300))
        (screen_dir / "model.json").write_text(json.dumps(data))
        assert run("screen", "--funnel", str(screen_dir / "funnel.json"),
                   "--out-json", str(screen_dir / "r.json"),
                   "--out-text", str(screen_dir / "r.txt")) == 0

    @pytest.mark.parametrize("name", ["pipeline.json", "model.json"])
    def test_deeply_nested_json(self, screen_dir, capsys, name):
        # json.load recursed past Python's limit and raised RecursionError.
        self.check(screen_dir, capsys, name, NESTED, "JSON nested too deeply to read")

    @pytest.mark.parametrize("name", ["pipeline.json", "model.json"])
    @pytest.mark.parametrize("text, message", [("{", "not valid JSON"),
                                               ("[]", "expected a JSON object")],
                             ids=["truncated", "array"])
    def test_not_a_json_object(self, screen_dir, capsys, name, text, message):
        self.check(screen_dir, capsys, name, text, message)


class TestScreen:
    def test_deeply_nested_funnel_config_exits_1(self, screen_dir, capsys):
        funnel = screen_dir / "funnel.json"
        funnel.write_text(NESTED)
        assert run("screen", "--funnel", str(funnel), "--out-json", str(screen_dir / "r.json"),
                   "--out-text", str(screen_dir / "r.txt")) == 1
        assert capsys.readouterr().err == (
            f"error: funnel config {funnel}: JSON nested too deeply to read\n"
        )

    def test_five_tier_report(self, screen_dir):
        assert run("screen", "--funnel", str(screen_dir / "funnel.json"),
                   "--out-json", str(screen_dir / "report.json"),
                   "--out-text", str(screen_dir / "report.txt")) == 0
        payload = json.loads((screen_dir / "report.json").read_text())
        assert [t["name"] for t in payload["tiers"]] == [
            "vocabulary", "scaffold", "rank", "properties", "cas"
        ]
        assert payload["config"]["top_fraction"] == 0.9

    def test_top_fraction_override_echoed(self, screen_dir):
        assert run("screen", "--funnel", str(screen_dir / "funnel.json"),
                   "--top-fraction", "0.5",
                   "--out-json", str(screen_dir / "report.json"),
                   "--out-text", str(screen_dir / "report.txt")) == 0
        payload = json.loads((screen_dir / "report.json").read_text())
        assert payload["config"]["top_fraction"] == 0.5
        assert payload["run_config"]["top_fraction"] == 0.5

    def test_pool_parse_failures_logged(self, screen_dir, capsys):
        pool = screen_dir / "pool.csv"
        pool.write_text(pool.read_text() + "C1CC\n")
        assert run("screen", "--funnel", str(screen_dir / "funnel.json"),
                   "--out-json", str(screen_dir / "report.json"),
                   "--out-text", str(screen_dir / "report.txt")) == 0
        err = capsys.readouterr().err
        assert err == "warning: row 12 ('C1CC'): unclosed ring-bond digit (offset 1)\n"
        assert json.loads((screen_dir / "report.json").read_text())["parse_failures"] == 1

    def test_failed_rows_listed_in_both_reports(self, screen_dir):
        pool = screen_dir / "pool.csv"
        pool.write_text(pool.read_text() + "C1CC\nCC(C\n")
        assert run("screen", "--funnel", str(screen_dir / "funnel.json"),
                   "--out-json", str(screen_dir / "report.json"),
                   "--out-text", str(screen_dir / "report.txt")) == 0
        payload = json.loads((screen_dir / "report.json").read_text())
        assert payload["parse_failures"] == 2
        rows = payload["failed_rows"]
        assert [(r["row"], r["smiles"]) for r in rows] == [(12, "C1CC"), (13, "CC(C")]
        assert rows[0]["reason"] == "unclosed ring-bond digit (offset 1)"
        assert rows[1]["reason"] == "unclosed '(' (offset 2)"
        text = (screen_dir / "report.txt").read_text().splitlines()
        assert text[0].startswith("pool: 10 unique records (2 unparseable rows")
        assert text[1:3] == [
            f"  row {r['row']} ({r['smiles']!r}): {r['reason']}" for r in rows
        ]
        assert text[3] == ""

    def test_missing_model_aborts(self, screen_dir):
        config = json.loads((screen_dir / "funnel.json").read_text())
        config["model"] = "nope.json"
        (screen_dir / "broken.json").write_text(json.dumps(config))
        assert run("screen", "--funnel", str(screen_dir / "broken.json"),
                   "--out-json", str(screen_dir / "r.json"),
                   "--out-text", str(screen_dir / "r.txt")) == 1
        assert not (screen_dir / "r.json").exists()

    def test_unknown_block_exits_1_before_any_tier(self, screen_dir, capsys):
        # No row reaches the rank tier, which is the first to read blocks.
        config = json.loads((screen_dir / "funnel.json").read_text())
        config.update(blocks=["X"], vocabulary={"elements": ["Xe"]})
        (screen_dir / "funnel.json").write_text(json.dumps(config))
        assert run("screen", "--funnel", str(screen_dir / "funnel.json"),
                   "--out-json", str(screen_dir / "r.json"),
                   "--out-text", str(screen_dir / "r.txt")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: funnel config {screen_dir / 'funnel.json'}: blocks ")
        assert err.count("\n") == 1
        assert not (screen_dir / "r.json").exists()

    def test_rerun_byte_identical(self, screen_dir):
        args = ["screen", "--funnel", str(screen_dir / "funnel.json"),
                "--out-json", str(screen_dir / "report.json"),
                "--out-text", str(screen_dir / "report.txt")]
        assert run(*args) == 0
        first = (screen_dir / "report.json").read_bytes()
        assert run(*args) == 0
        assert (screen_dir / "report.json").read_bytes() == first


class TestNonAsciiDigitRow:
    """A SMILES whose ring-bond digit is not ASCII ('C²') is a parse failure
    of its row: every command that reads a dataset exits 1 naming the row,
    and screen sets the row aside."""

    REASON = "unexpected character '\u00b2' (offset 1)"

    @pytest.fixture
    def dataset(self, tmp_path):
        path = tmp_path / "bad.csv"
        text = Path(DATASET).read_text(encoding="utf-8")
        path.write_text(text + "C\u00b2,20,\n", encoding="utf-8")
        return path  # the bad row is row 26

    @pytest.mark.parametrize("command", [
        ["featurize", "--blocks", "K,D", "--out", "f.csv"],
        ["train", "--model", "gb", "--out", "m.json", "--pipeline-out", "p.json"],
        ["evaluate", "--model", "svr", "--repeats", "2", "--registry", REGISTRY,
         "--out-json", "e.json", "--out-text", "e.txt"],
        ["scaffold", "--registry", REGISTRY, "--out", "s.csv"],
    ], ids=lambda command: command[0])
    def test_command_exits_1_naming_the_row(
        self, dataset, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.chdir(tmp_path)  # outputs, if any were written, land here
        assert run(command[0], "--dataset", str(dataset), *command[1:]) == 1
        # One wording for every command, as featurize's row reporter and
        # screen's warnings word it.
        assert capsys.readouterr().err == f"error: row 26 ('C\u00b2'): {self.REASON}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]

    @pytest.mark.parametrize("command", [
        ["scaffold", "--dataset", DATASET, "--out", "s.csv"],
        ["evaluate", "--dataset", DATASET, "--model", "gb", "--repeats", "2",
         "--out-json", "e.json", "--out-text", "e.txt"],
    ], ids=lambda command: command[0])
    def test_registry_row_worded_alike(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        registry = tmp_path / "registry.csv"
        registry.write_text(Path(REGISTRY).read_text() + "C1CC,2,x\n")  # row 40
        assert run(*command, "--registry", str(registry)) == 1
        assert capsys.readouterr().err == (
            "error: row 40 ('C1CC'): unclosed ring-bond digit (offset 1)\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["registry.csv"]

    def test_screen_sets_the_row_aside(self, screen_dir, capsys):
        pool = screen_dir / "pool.csv"
        pool.write_text(pool.read_text() + "C\u00b2\n", encoding="utf-8")
        assert run("screen", "--funnel", str(screen_dir / "funnel.json"),
                   "--out-json", str(screen_dir / "report.json"),
                   "--out-text", str(screen_dir / "report.txt")) == 0
        assert capsys.readouterr().err == f"warning: row 12 ('C\u00b2'): {self.REASON}\n"
        payload = json.loads((screen_dir / "report.json").read_text())
        assert payload["parse_failures"] == 1
        assert payload["failed_rows"] == [{"row": 12, "smiles": "C\u00b2", "reason": self.REASON}]


class TestScaffoldCommand:
    def test_dump(self, tmp_path):
        out = tmp_path / "scaffolds.csv"
        assert run("scaffold", "--dataset", DATASET, "--registry", REGISTRY,
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "smiles,canonical_smiles,scaffold,group_id,group_name"
        assert len(lines) == 2 + 24
        # acyclic molecules map to the explicit empty-scaffold group
        row = next(l for l in lines if l.startswith("CCCCCl,"))
        assert row.split(",")[2] == "" and row.split(",")[3] == "1"

    def test_novel_marked(self, tmp_path):
        dataset = tmp_path / "d.csv"
        dataset.write_text("smiles,pce\nC1CCCCCC1,15\n")
        out = tmp_path / "s.csv"
        assert run("scaffold", "--dataset", str(dataset), "--registry", REGISTRY,
                   "--out", str(out)) == 0
        assert out.read_text().splitlines()[2].endswith(",,novel")


    def test_group_names_with_commas_and_quotes_read_back(self, tmp_path):
        registry = tmp_path / "groups.csv"
        with registry.open("w", newline="") as fh:
            writer = csv.writer(fh)
            for row in csv.reader(Path(REGISTRY).read_text().splitlines()):
                if row[1] == "1":
                    row[2] = "acyclic, plain"
                elif row[1] == "2":
                    row[2] = 'six-membered "aromatics"'
                writer.writerow(row)
        out = tmp_path / "scaffolds.csv"
        assert run("scaffold", "--dataset", DATASET, "--registry", str(registry),
                   "--out", str(out)) == 0
        header, rows = read_matrix(out)
        assert header == ["smiles", "canonical_smiles", "scaffold", "group_id", "group_name"]
        assert len(rows) == 24
        assert all(len(row) == 5 for row in rows)
        names = {row[3]: row[4] for row in rows}
        assert names["1"] == "acyclic, plain"
        assert names["2"] == 'six-membered "aromatics"'


COMMANDS = ["featurize", "train", "scaffold", "evaluate", "screen"]


def artifact_flags(command: str, screen_dir: Path, out: Path) -> list[str]:
    """Flags that make ``command`` write its artifacts into ``out``."""
    return list(map(str, {
        "featurize": ["--dataset", DATASET, "--blocks", "K,D",
                      "--out", out / "features.csv"],
        "train": ["--dataset", DATASET, "--model", "rf",
                  "--out", out / "model.json", "--pipeline-out", out / "pipeline.json"],
        "scaffold": ["--dataset", DATASET, "--registry", REGISTRY,
                     "--out", out / "scaffolds.csv"],
        "evaluate": ["--dataset", DATASET, "--registry", REGISTRY, "--model", "svr",
                     "--repeats", "20", "--seed", "4",
                     "--out-json", out / "report.json", "--out-text", out / "report.txt"],
        "screen": ["--funnel", screen_dir / "funnel.json",
                   "--out-json", out / "report.json", "--out-text", out / "report.txt"],
    }[command]))


class TestConfigFile:
    def test_config_provides_defaults_cli_wins(self, tmp_path):
        config = tmp_path / "defaults.json"
        config.write_text(json.dumps({"blocks": "D", "repeats": 3, "seed": 11}))
        args = ["evaluate", "--dataset", DATASET, "--registry", REGISTRY,
                "--config", str(config), "--seed", "5",
                "--out-json", str(tmp_path / "r.json"),
                "--out-text", str(tmp_path / "r.txt")]
        assert run(*args) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["repeats"] == 3          # from config file
        assert payload["master_seed"] == 5      # explicit flag wins

    def evaluate(self, tmp_path, config_text, *flags):
        config = tmp_path / "defaults.json"
        config.write_text(config_text)
        return run("evaluate", "--dataset", DATASET, "--registry", REGISTRY,
                   "--model", "svr", "--config", str(config), *flags,
                   "--out-json", str(tmp_path / "r.json"),
                   "--out-text", str(tmp_path / "r.txt"))

    @pytest.mark.parametrize("text, reason", [
        ('{"repeats": "x"}', "argument --repeats: invalid int value: 'x'"),
        ('{"model": "xgb"}', "argument --model: invalid choice: 'xgb'"),
        ('{"repeats": true}', "repeats must be a string or a number"),
        ('{"blocks": ["D"]}', "blocks must be a string or a number"),
        ("[1, 2]", "expected a JSON object, got list"),
        ("{bad", "not valid JSON"),
    ])
    def test_bad_values_are_usage_errors_naming_the_file(self, tmp_path, capsys,
                                                         text, reason):
        assert self.evaluate(tmp_path, text, "--repeats", "2") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --config {tmp_path / 'defaults.json'}: ")
        assert reason in err
        assert not (tmp_path / "r.json").exists()

    def test_deeply_nested_json_is_a_usage_error(self, tmp_path, capsys):
        assert self.evaluate(tmp_path, NESTED, "--repeats", "2") == 2
        err = capsys.readouterr().err
        assert err == (f"usage error: --config {tmp_path / 'defaults.json'}: "
                       "JSON nested too deeply to read\n")

    def test_explicit_flag_equal_to_its_default_wins(self, tmp_path):
        assert self.evaluate(tmp_path, '{"repeats": 3}', "--repeats", "200") == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["repeats"] == 200
        assert len(payload["per_repeat"]) == 200

    def test_flag_values_must_be_booleans(self, tmp_path, capsys):
        config = tmp_path / "defaults.json"
        out = tmp_path / "m.csv"
        for value, code in (('"yes"', 2), ("true", 0), ("false", 0)):
            config.write_text(f'{{"skip_bad": {value}, "blocks": "D"}}')
            assert run("featurize", "--dataset", DATASET, "--config", str(config),
                       "--out", str(out)) == code
        assert "skip_bad must be true or false" in capsys.readouterr().err

    def test_rerun_from_run_config_is_byte_identical(self, screen_dir):
        # A JSON artifact holds run_config as a key, a CSV one on its # line.
        out = screen_dir / "out"
        for command, artifact in (("featurize", "features.csv"), ("train", "model.json"),
                                  ("scaffold", "scaffolds.csv"), ("evaluate", "report.json"),
                                  ("screen", "report.json")):
            assert run(command, *artifact_flags(command, screen_dir, out)) == 0
            written = {path.name: path.read_bytes() for path in out.iterdir()}
            text = written[artifact].decode()
            if artifact.endswith(".csv"):
                run_config = json.loads(text.splitlines()[0].removeprefix("# "))
            else:
                run_config = json.loads(text)["run_config"]
            config = screen_dir / "run_config.json"
            config.write_text(json.dumps(run_config))
            for path in out.iterdir():
                path.unlink()
            assert run(command, "--config", str(config)) == 0, command
            assert {path.name: path.read_bytes() for path in out.iterdir()} == written, command
            for path in out.iterdir():
                path.unlink()


class TestDemo:
    def test_demo_model_and_pipeline_are_todays_train_output(self, tmp_path):
        demo = Path(__file__).resolve().parents[1] / "demo"
        assert run("train", "--dataset", DATASET, "--model", "gb", "--seed", "7",
                   "--out", str(tmp_path / "model.json"),
                   "--pipeline-out", str(tmp_path / "pipeline.json")) == 0
        for name in ("model.json", "pipeline.json"):
            fresh = json.loads((tmp_path / name).read_text())
            shipped = json.loads((demo / name).read_text())
            fresh.pop("run_config")
            shipped.pop("run_config")
            assert fresh == shipped, name


class TestThreadsFlag:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_says_every_command_ignores_it(self, command, capsys):
        with pytest.raises(SystemExit) as stop:
            run(command, "--help")
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "accepted and ignored by every command" in text
        assert "results never depend on it" in text

    @pytest.mark.parametrize("command", COMMANDS)
    def test_artifacts_do_not_depend_on_it(self, command, screen_dir):
        # Artifacts echo their own paths, so both runs write the same ones.
        out = screen_dir / "out"
        flags = artifact_flags(command, screen_dir, out)
        assert run(command, *flags) == 0
        plain = {path.name: path.read_bytes() for path in out.iterdir()}
        assert run(command, *flags, "--threads", "4") == 0
        assert plain and {path.name: path.read_bytes() for path in out.iterdir()} == plain


class TestModuleEntryPoint:
    def test_python_m_molscreen_help(self):
        src = str(Path(molscreen.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "molscreen", "--help"],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "usage: molscreen" in result.stdout


# Each subcommand's options as (dest, default, type, choices). run_config is
# vars() of the parsed options, so a change here changes every artifact.
SHARED = {
    "--config": ("config", None, "Path", None),
    "--seed": ("seed", 0, "int", None),
    "--threads": ("threads", 1, "int", None),
}
FEATURES = {
    "--blocks": ("blocks", "D", None, None),
    "--dataset": ("dataset", None, "Path", None),
    "--keyset": ("keyset", None, "Path", None),
    "--latents": ("latents", None, "Path", None),
}
REPORTS = {
    "--out-json": ("out_json", None, "Path", None),
    "--out-text": ("out_text", None, "Path", None),
}
OPTIONS = {
    "featurize": {
        **SHARED, **FEATURES,
        "--external-fingerprints": ("external_fingerprints", None, "Path", None),
        "--out": ("out", None, "Path", None),
        "--skip-bad": ("skip_bad", False, None, None),
    },
    "train": {
        **SHARED, **FEATURES,
        "--gamma": ("gamma", None, "float", None),
        "--kernel": ("kernel", None, None, ("rbf", "linear")),
        "--learning-rate": ("learning_rate", None, "float", None),
        "--max-depth": ("max_depth", None, "int", None),
        "--model": ("model", None, None, ("gb", "rf", "svr")),
        "--n-estimators": ("n_estimators", None, "int", None),
        "--out": ("out", None, "Path", None),
        "--pcc-threshold": ("pcc_threshold", 0.9, "float", None),
        "--pipeline-out": ("pipeline_out", None, "Path", None),
        "--svr-c": ("svr_c", None, "float", None),
        "--svr-epsilon": ("svr_epsilon", None, "float", None),
        "--variance-threshold": ("variance_threshold", 0.2, "float", None),
    },
    "evaluate": {
        **SHARED, **FEATURES, **REPORTS,
        "--model": ("model", "gb", None, ("gb", "rf", "svr")),
        "--registry": ("registry", None, "Path", None),
        "--repeats": ("repeats", 200, "int", None),
        "--splitter": ("splitter", "msc", None, ("msc", "random", "logo")),
        "--test-fraction": ("test_fraction", 0.1, "float", None),
    },
    "screen": {
        **SHARED, **REPORTS,
        "--funnel": ("funnel", None, "Path", None),
        "--top-fraction": ("top_fraction", None, "float", None),
    },
    "scaffold": {
        **SHARED,
        "--dataset": ("dataset", None, "Path", None),
        "--out": ("out", None, "Path", None),
        "--registry": ("registry", None, "Path", None),
    },
}


class TestOptionTable:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_options_are_unchanged(self, command):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        table = {
            ", ".join(a.option_strings): (
                a.dest, a.default, getattr(a.type, "__name__", None),
                tuple(a.choices) if a.choices else None,
            )
            for a in sub.choices[command]._actions
            if a.dest != "help"
        }
        assert table == OPTIONS[command]
