import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import molscreen
from molscreen.cli import main

from conftest import DATA_DIR

DATASET = str(DATA_DIR / "additives24.csv")
REGISTRY = str(DATA_DIR / "scaffold_groups.csv")


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


GOOD_KEY = {"id": 0, "label": "C_C", "atoms": [{"element": "C"}, {"element": "C"}],
            "bonds": [{"a": 0, "b": 1}]}


class TestMalformedKeyset:
    """A bad key-set file is a validation failure (exit 1) with a message
    naming the key, never a traceback."""

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
        assert f"error: key 'C_C' has bond 0-{b} outside its 2 atoms" in err

    def test_missing_atoms(self, tmp_path, capsys):
        entry = {k: v for k, v in GOOD_KEY.items() if k != "atoms"}
        code, err = self.featurize(tmp_path, capsys, [entry])
        assert code == 1
        assert "error: key 'C_C' is missing 'atoms'" in err

    def test_object_instead_of_list(self, tmp_path, capsys):
        code, err = self.featurize(tmp_path, capsys, GOOD_KEY)
        assert code == 1
        assert "must be a list of keys, not dict" in err

    def test_pattern_too_large(self, tmp_path, capsys):
        entry = {"id": 0, "label": "long", "atoms": [{"element": "C"}] * 9,
                 "bonds": [{"a": i, "b": i + 1} for i in range(8)]}
        code, err = self.featurize(tmp_path, capsys, [entry])
        assert code == 1
        assert "error: key 'long' has 9 atoms (limit 8)" in err

    @pytest.mark.parametrize("min_count", [0, -1])
    def test_min_count_below_one(self, tmp_path, capsys, min_count):
        code, err = self.featurize(tmp_path, capsys, [dict(GOOD_KEY, min_count=min_count)])
        assert code == 1
        assert f"error: key 'C_C' has min_count {min_count}" in err

    def test_aromatic_flag_not_a_boolean(self, tmp_path, capsys):
        entry = dict(GOOD_KEY, atoms=[{"element": "C", "aromatic": "false"}], bonds=[])
        code, err = self.featurize(tmp_path, capsys, [entry])
        assert code == 1
        assert "error: key 'C_C' has aromatic 'false'" in err

    def test_unknown_element(self, tmp_path, capsys):
        entry = dict(GOOD_KEY, atoms=[{"element": "Xx"}], bonds=[])
        code, err = self.featurize(tmp_path, capsys, [entry])
        assert code == 1
        assert "error: key 'C_C' has unknown element 'Xx'" in err

    def test_not_json(self, tmp_path, capsys):
        code, err = self.featurize(tmp_path, capsys, "[{")
        assert code == 1
        assert "is not valid JSON" in err

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


class TestScreen:
    @pytest.fixture()
    def screen_dir(self, tmp_path):
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

    def test_rerun_byte_identical(self, screen_dir):
        args = ["screen", "--funnel", str(screen_dir / "funnel.json"),
                "--out-json", str(screen_dir / "report.json"),
                "--out-text", str(screen_dir / "report.txt")]
        assert run(*args) == 0
        first = (screen_dir / "report.json").read_bytes()
        assert run(*args) == 0
        assert (screen_dir / "report.json").read_bytes() == first


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


class TestThreadsHelp:
    @pytest.mark.parametrize("command", ["evaluate", "screen"])
    def test_help_says_only_evaluate_reads_it(self, command, capsys):
        with pytest.raises(SystemExit) as stop:
            run(command, "--help")
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "worker threads for evaluate's repeats" in text
        assert "ignored by every other command" in text


class TestModuleEntryPoint:
    def test_python_m_molscreen_help(self):
        src = str(Path(molscreen.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "molscreen", "--help"],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "usage: molscreen" in result.stdout
