import csv
import json

import numpy as np
import pytest

from molscreen import dataio, selection
from molscreen.features import assemble
from molscreen.models import TrainConfig, fit_model, model_to_dict
from molscreen.molgraph import parse_smiles
from molscreen.screening import (
    FunnelConfig,
    PoolRecord,
    PropertyThresholds,
    ScreeningError,
    load_cas_table,
    load_pool,
    load_property_table,
    run_funnel,
    tier_cas,
    tier_properties,
    tier_rank,
    tier_scaffold,
    tier_vocab,
    top_count,
)

from conftest import synthetic_pool_rows

ELEMENTS_NO_SE = ["C", "N", "O", "S", "P", "F", "Cl", "Br", "I", "B", "Si", "H", "K"]


def record(smiles: str, cas: str | None = None) -> PoolRecord:
    from molscreen.molgraph import canonical_smiles

    graph = parse_smiles(smiles)
    return PoolRecord(smiles=smiles, canonical=canonical_smiles(graph),
                      graph=graph, cas=cas)


class TestTopCount:
    def test_paper_scale_ceiling(self):
        assert top_count(47800, 0.01) == 478

    def test_small_pool_ceiling(self):
        assert top_count(10, 0.01) == 1  # ceil(0.1)

    def test_full_fraction(self):
        assert top_count(1000, 1.0) == 1000

    def test_exact_thousand(self):
        assert top_count(1000, 0.01) == 10


class TestTierVocab:
    def test_selenium_dropped(self):
        records = [record("C[Se]C"), record("CCO")]
        survivors, drops = tier_vocab(records, frozenset(ELEMENTS_NO_SE))
        assert [r.canonical for r in survivors] == [record("CCO").canonical]
        assert drops == {"element_not_in_vocabulary": 1}

    def test_full_coverage_is_identity(self):
        records = [record("CCO"), record("c1ccccc1")]
        survivors, drops = tier_vocab(records, None)
        assert len(survivors) == 2 and drops == {}

    def test_latent_membership(self, tmp_path):
        from molscreen.features import load_latents

        path = tmp_path / "latents.csv"
        path.write_text("smiles,z1\nCCO,0.5\n")
        latents = load_latents(path)
        records = [record("CCO"), record("CCN")]
        survivors, drops = tier_vocab(records, None, latents, require_latent=True)
        assert len(survivors) == 1
        assert drops == {"missing_latent": 1}


class TestTierScaffold:
    def test_known_vs_novel(self, registry9):
        records = [record("Cc1ccccc1"), record("C1CCCCCC1")]
        survivors, drops = tier_scaffold(records, registry9)
        assert [r.smiles for r in survivors] == ["Cc1ccccc1"]
        assert survivors[0].group_id == 2
        assert drops == {"novel_scaffold": 1}

    def test_empty_registry_behaviour(self, tmp_path):
        from molscreen.scaffold import load_registry

        path = tmp_path / "reg.csv"
        path.write_text("scaffold_smiles,group_id,group_name\nC1CC1,1,x\n")
        registry = load_registry(path)
        survivors, drops = tier_scaffold([record("CCO"), record("c1ccccc1")], registry)
        assert survivors == []
        assert drops == {"novel_scaffold": 2}


def train_tiny_model(dataset24):
    matrix = assemble(dataset24.graphs(), {"D"})
    pipeline = selection.fit(matrix)
    X = selection.apply(pipeline, matrix)
    model = fit_model(X, dataset24.targets(), TrainConfig(kind="gb", seed=1))
    return model, pipeline


class TestTierRank:
    def test_rank_against_bruteforce_sort(self, dataset24, registry9):
        model, pipeline = train_tiny_model(dataset24)
        records = [record(s) for s in (
            "Cc1ccccc1", "Oc1ccccc1", "Nc1ccccc1", "CCc1ccccc1", "COc1ccccc1",
            "CCO", "CCN", "NC(=O)C", "OC(=O)C", "ClCCCl",
        )]
        survivors, drops = tier_rank(records, model, pipeline, ("D",), None, None, 0.3)
        assert len(survivors) == top_count(10, 0.3) == 3
        # brute force: predict all, full sort, take the top 3
        matrix = assemble([r.graph for r in records], ("D",))
        preds = model.predict(selection.apply(pipeline, matrix))
        ranked = sorted(zip(preds, matrix.ids), key=lambda t: (-t[0], t[1]))
        expected = {canon for _, canon in ranked[:3]}
        assert {r.canonical for r in survivors} == expected
        assert drops == {"below_rank_cutoff": 7}

    def test_fraction_one_keeps_all_sorted(self, dataset24):
        model, pipeline = train_tiny_model(dataset24)
        records = [record(s) for s in ("CCO", "CCN", "CCS")]
        survivors, drops = tier_rank(records, model, pipeline, ("D",), None, None, 1.0)
        assert len(survivors) == 3 and drops == {}
        assert all(r.predicted_pce is not None for r in survivors)


class TestTierProperties:
    def test_thresholds(self):
        records = [record("CCO"), record("CCN"), record("CCS")]
        table = {
            records[0].canonical: {"donor_number": 20.0, "dipole_moment": 2.0, "hba": 3},
            records[1].canonical: {"donor_number": 5.0, "dipole_moment": 2.0, "hba": 3},
            # records[2] missing entirely
        }
        thresholds = PropertyThresholds(dn_min=10.0, dm_min=1.0, ha_min=1)
        survivors, drops = tier_properties(records, table, thresholds)
        assert [r.canonical for r in survivors] == [records[0].canonical]
        assert drops == {"below_property_threshold": 1, "missing_property": 1}

    def test_identity_thresholds(self):
        records = [record("CCO")]
        table = {records[0].canonical: {"donor_number": 1.0, "dipole_moment": 0.1, "hba": None}}
        survivors, drops = tier_properties(records, table, PropertyThresholds())
        assert len(survivors) == 1 and drops == {}

    def test_hba_falls_back_to_descriptor(self):
        records = [record("CCO")]  # one oxygen -> computed hba = 1
        table = {records[0].canonical: {"donor_number": 30.0, "dipole_moment": 3.0, "hba": None}}
        survivors, _ = tier_properties(records, table, PropertyThresholds(ha_min=1))
        assert len(survivors) == 1 and survivors[0].hba == 1
        survivors, drops = tier_properties(records, table, PropertyThresholds(ha_min=2))
        assert survivors == [] and drops == {"below_property_threshold": 1}


class TestTierCas:
    def test_empty_table_drops_all(self):
        survivors, drops = tier_cas([record("CCO")], {})
        assert survivors == [] and drops == {"no_cas_code": 1}

    def test_annotation(self):
        rec = record("CCO")
        survivors, drops = tier_cas([rec], {rec.canonical: "64-17-5"})
        assert survivors[0].cas == "64-17-5" and drops == {}

    def test_pool_embedded_cas_used(self):
        rec = record("CCO", cas="64-17-5")
        survivors, _ = tier_cas([rec], {})
        assert survivors[0].cas == "64-17-5"


class TestTables:
    def test_property_table_values(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "smiles,donor_number,dipole_moment,hba\n"
            "CCO,20,1.5,2\n"
            "CCN,,0.5,\n"
        )
        table = load_property_table(path)
        assert table == {
            record("CCO").canonical: {"donor_number": 20.0, "dipole_moment": 1.5, "hba": 2},
            record("CCN").canonical: {"donor_number": None, "dipole_moment": 0.5, "hba": None},
        }

    def test_property_table_missing_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("smiles,donor_number\nCCO,20\n")
        with pytest.raises(ScreeningError, match="p.csv misses column.*dipole_moment"):
            load_property_table(path)

    def test_property_table_unparseable_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("smiles,donor_number,dipole_moment\nCCO,20,1.5\nC1CC,20,1.5\n")
        with pytest.raises(ScreeningError, match="property row 3: 'C1CC'"):
            load_property_table(path)

    def test_property_table_last_row_wins(self, tmp_path):
        # Two spellings of one molecule: the later row's values are kept, so
        # this table's row order matters (the pool's does not).
        path = tmp_path / "p.csv"
        path.write_text("smiles,donor_number,dipole_moment\nOCC,10,1.0\nCCO,30,3.0\n")
        assert load_property_table(path)[record("CCO").canonical]["donor_number"] == 30.0
        path.write_text("smiles,donor_number,dipole_moment\nCCO,30,3.0\nOCC,10,1.0\n")
        assert load_property_table(path)[record("CCO").canonical]["donor_number"] == 10.0

    def test_cas_table_keeps_smallest_code(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("smiles,cas\nOCC,75-00-0\nCCO,64-17-5\nCCN,\n")
        assert load_cas_table(path) == {record("CCO").canonical: "64-17-5"}
        path.write_text("smiles,cas\nCCO,64-17-5\nOCC,75-00-0\n")
        assert load_cas_table(path) == {record("CCO").canonical: "64-17-5"}

    def test_cas_table_missing_column(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("smiles,code\nCCO,64-17-5\n")
        with pytest.raises(ScreeningError, match="c.csv misses column.*cas"):
            load_cas_table(path)

    def test_cas_table_unparseable_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("smiles,cas\nC1CC,\nCCO,64-17-5\nC(C,1-1-1\n")
        # a row without a code is skipped before its SMILES matters
        with pytest.raises(ScreeningError, match="CAS row 4: 'C\\(C'"):
            load_cas_table(path)


def build_pool_csv(path, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles"])
        for s in rows:
            writer.writerow([s])


class TestFunnel:
    @pytest.fixture()
    def funnel_dir(self, tmp_path, dataset24, data_dir):
        model, pipeline = train_tiny_model(dataset24)
        (tmp_path / "model.json").write_text(dataio.dump_json(model_to_dict(model)))
        (tmp_path / "pipeline.json").write_text(dataio.dump_json(pipeline.to_dict()))
        build_pool_csv(tmp_path / "pool.csv", synthetic_pool_rows(1000))

        pool = load_pool(tmp_path / "pool.csv")
        with (tmp_path / "properties.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["smiles", "donor_number", "dipole_moment", "hba"])
            for i, rec in enumerate(pool.records):
                dn = "" if i % 13 == 0 else f"{10 + (i % 30)}"
                dm = f"{(i % 60) / 10:.1f}"
                writer.writerow([rec.canonical, dn, dm, ""])
        with (tmp_path / "cas.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["smiles", "cas"])
            for i, rec in enumerate(pool.records):
                if i % 3 != 0:
                    writer.writerow([rec.canonical, f"{1000 + i}-{10 + i % 80}-{i % 9}"])

        config = {
            "pool": "pool.csv",
            "registry": str(data_dir / "scaffold_groups.csv"),
            "model": "model.json",
            "pipeline": "pipeline.json",
            "blocks": ["D"],
            "vocabulary": {"elements": ELEMENTS_NO_SE, "require_latent": False},
            "top_fraction": 0.1,
            "thresholds": {"dn_min": 12.0, "dm_min": 1.0, "ha_min": 1},
            "properties": "properties.csv",
            "cas": "cas.csv",
        }
        (tmp_path / "funnel.json").write_text(json.dumps(config, indent=2))
        return tmp_path

    def test_nesting_and_accounting(self, funnel_dir):
        report = run_funnel(FunnelConfig.load(funnel_dir / "funnel.json"))
        counts = [t.input_count for t in report.tiers] + [report.tiers[-1].survivor_count]
        assert counts[0] == report.pool_size
        for before, after in zip(counts, counts[1:]):
            assert after <= before
        for tier in report.tiers:
            assert tier.input_count == tier.survivor_count + sum(tier.drops.values())
        total_drops = sum(sum(t.drops.values()) for t in report.tiers)
        assert total_drops + len(report.final) == report.pool_size
        assert report.parse_failures == 1  # the bad row
        assert report.merged_duplicates >= 1  # OCC vs CCO

    def test_rank_tier_uses_ceiling(self, funnel_dir):
        report = run_funnel(FunnelConfig.load(funnel_dir / "funnel.json"))
        rank_tier = report.tiers[2]
        assert rank_tier.name == "rank"
        assert rank_tier.survivor_count == top_count(rank_tier.input_count, 0.1)

    def test_input_order_does_not_matter(self, funnel_dir):
        report_a = run_funnel(FunnelConfig.load(funnel_dir / "funnel.json"))
        rows = list(csv.reader((funnel_dir / "pool.csv").open()))
        header, body = rows[0], rows[1:]
        body.reverse()
        with (funnel_dir / "pool.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(body)
        report_b = run_funnel(FunnelConfig.load(funnel_dir / "funnel.json"))
        a, b = report_a.to_dict(), report_b.to_dict()
        # Failed rows name their row in the file (the header is row 1), and
        # reversing the body moves row r to row len(body) + 3 - r.
        failed_a, failed_b = a.pop("failed_rows"), b.pop("failed_rows")
        assert len(failed_a) == 1
        assert failed_b == [
            {**f, "row": len(body) + 3 - f["row"]} for f in reversed(failed_a)
        ]
        assert a == b

    def test_rerun_identical(self, funnel_dir):
        a = run_funnel(FunnelConfig.load(funnel_dir / "funnel.json"))
        b = run_funnel(FunnelConfig.load(funnel_dir / "funnel.json"))
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_final_sorted_by_prediction(self, funnel_dir):
        report = run_funnel(FunnelConfig.load(funnel_dir / "funnel.json"))
        preds = [r.predicted_pce for r in report.final]
        assert preds == sorted(preds, reverse=True)

    @staticmethod
    def spellings(path, column="smiles"):
        with path.open() as fh:
            return {row[column].strip() for row in csv.DictReader(fh)}

    def test_each_spelling_parsed_once(self, funnel_dir, monkeypatch):
        config = FunnelConfig.load(funnel_dir / "funnel.json")
        pool_canonical = {r.canonical for r in load_pool(config.pool).records}
        # one more property row: ethanol spelled neither as in the pool nor
        # canonically, so it alone among the table rows needs parsing
        with config.properties.open("a", newline="") as fh:
            csv.writer(fh).writerow(["C(O)C", "20", "2.0", ""])
        assert "C(O)C" not in self.spellings(config.pool) | pool_canonical

        calls = []
        parse = dataio.parse_smiles
        monkeypatch.setattr(dataio, "parse_smiles", lambda s: calls.append(s) or parse(s))
        run_funnel(config)

        pool = self.spellings(config.pool)
        tables = self.spellings(config.properties) | self.spellings(config.cas)
        registry = self.spellings(config.registry, "scaffold_smiles")
        # the property and CAS tables are spelled in canonical form: their
        # rows reuse the pool's graphs instead of being parsed again
        assert tables - pool_canonical == {"C(O)C"}
        read = pool | (tables - pool_canonical)
        # the registry is read apart from the pool and its tables
        assert len(calls) == len(read) + len(registry)
        assert set(calls) == read | registry

    def test_rings_perceived_once_per_parsed_spelling(self, funnel_dir, monkeypatch):
        from molscreen.molgraph import rings

        config = FunnelConfig.load(funnel_dir / "funnel.json")
        pool_canonical = {r.canonical for r in load_pool(config.pool).records}
        calls = []
        find_sssr = rings.find_sssr
        monkeypatch.setattr(rings, "find_sssr", lambda *a: calls.append(a) or find_sssr(*a))
        report = run_funnel(config)

        pool = self.spellings(config.pool)
        tables = self.spellings(config.properties) | self.spellings(config.cas)
        registry = self.spellings(config.registry, "scaffold_smiles") - {""}
        # the planted unparseable row fails before ring perception; neither
        # the scaffold tier nor the registry's fixed-point check perceives,
        # and the canonically spelled tables reuse the pool's graphs
        assert report.parse_failures == 1
        assert tables <= pool_canonical
        assert len(calls) == len(pool) - 1 + len(registry)

    def test_missing_model_aborts_before_tiers(self, funnel_dir):
        config = json.loads((funnel_dir / "funnel.json").read_text())
        config["model"] = "missing.json"
        (funnel_dir / "broken.json").write_text(json.dumps(config))
        with pytest.raises(FileNotFoundError):
            run_funnel(FunnelConfig.load(funnel_dir / "broken.json"))


class TestFunnelConfigValidation:
    """A malformed funnel config raises ScreeningError naming the field, so
    ``molscreen screen`` exits 1 with a message instead of a traceback."""

    VALID = {
        "pool": "pool.csv",
        "registry": "registry.csv",
        "model": "model.json",
        "pipeline": "pipeline.json",
        "blocks": ["D"],
        "vocabulary": {"elements": ["C", "Cl", "N", "O"], "require_latent": False},
        "top_fraction": 0.25,
        "thresholds": {"dn_min": 12.0, "dm_min": 1.0, "ha_min": 1},
    }

    @staticmethod
    def write(tmp_path, config) -> str:
        path = tmp_path / "funnel.json"
        path.write_text(json.dumps(config) if not isinstance(config, str) else config)
        return str(path)

    def load(self, tmp_path, **changes):
        return FunnelConfig.load(self.write(tmp_path, {**self.VALID, **changes}))

    def test_valid_config_loads(self, tmp_path):
        config = self.load(tmp_path)
        assert config.top_fraction == 0.25
        assert config.thresholds == PropertyThresholds(dn_min=12.0, dm_min=1.0, ha_min=1)
        assert config.vocabulary_elements == frozenset({"C", "Cl", "N", "O"})
        assert config.blocks == ("D",)
        assert config.pool == (tmp_path / "pool.csv").resolve()

    def test_defaults_and_nulls(self, tmp_path):
        config = self.load(tmp_path, thresholds={"dn_min": None, "ha_min": None},
                           vocabulary={"elements": None})
        assert config.thresholds == PropertyThresholds()
        assert config.vocabulary_elements is None
        assert config.require_latent is False
        bare = {k: v for k, v in self.VALID.items()
                if k not in ("blocks", "vocabulary", "top_fraction", "thresholds")}
        config = FunnelConfig.load(self.write(tmp_path, bare))
        assert (config.blocks, config.top_fraction) == (("D",), 0.01)
        assert config.thresholds == PropertyThresholds()

    def test_integral_float_ha_min_is_an_integer(self, tmp_path):
        config = self.load(tmp_path, thresholds={"ha_min": 2.0})
        assert config.thresholds.ha_min == 2 and isinstance(config.thresholds.ha_min, int)

    @pytest.mark.parametrize("changes, field", [
        ({"thresholds": [1, 2]}, "thresholds"),
        ({"vocabulary": ["C"]}, "vocabulary"),
        ({"top_fraction": "abc"}, "top_fraction"),
        ({"top_fraction": True}, "top_fraction"),
        ({"top_fraction": float("nan")}, "top_fraction"),
        ({"top_fraction": 1.5}, "top_fraction"),
        ({"thresholds": {"dn_min": "x"}}, "thresholds.dn_min"),
        ({"thresholds": {"dn_min": float("nan")}}, "thresholds.dn_min"),
        ({"thresholds": {"dm_min": [1.0]}}, "thresholds.dm_min"),
        ({"thresholds": {"ha_min": 2.7}}, "thresholds.ha_min"),
        ({"thresholds": {"ha_min": "2"}}, "thresholds.ha_min"),
        ({"thresholds": {"ha_min": False}}, "thresholds.ha_min"),
        ({"vocabulary": {"elements": "CClNO"}}, "vocabulary.elements"),
        ({"vocabulary": {"elements": ["C", 7]}}, "vocabulary.elements"),
        ({"vocabulary": {"require_latent": "false"}}, "vocabulary.require_latent"),
        ({"blocks": "D"}, "blocks"),
        ({"pool": 3}, "pool"),
        ({"cas": ["cas.csv"]}, "cas"),
        ({"blocks": []}, "blocks"),
        ({"blocks": ["D", "X"]}, "blocks"),
        ({"blocks": ["D", "Z"]}, "blocks"),
    ])
    def test_malformed_field_is_named(self, tmp_path, changes, field):
        with pytest.raises(ScreeningError, match=field.replace(".", r"\.")):
            self.load(tmp_path, **changes)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '"funnel"'])
    def test_malformed_document(self, tmp_path, text):
        with pytest.raises(ScreeningError, match="funnel config"):
            FunnelConfig.load(self.write(tmp_path, text))

    @pytest.mark.parametrize("changes", [
        {"thresholds": [1, 2]},
        {"vocabulary": ["C"]},
        {"top_fraction": "abc"},
        {"thresholds": {"dn_min": "x"}},
        {"thresholds": {"ha_min": 2.7}},
        {"thresholds": {"dn_min": float("nan")}},
        {"vocabulary": {"elements": "CClNO"}},
    ])
    def test_screen_exits_1_with_the_field(self, tmp_path, capsys, changes):
        from molscreen.cli import main

        path = self.write(tmp_path, {**self.VALID, **changes})
        code = main(["screen", "--funnel", path, "--out-json", str(tmp_path / "r.json"),
                     "--out-text", str(tmp_path / "r.txt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and next(iter(changes)) in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()
