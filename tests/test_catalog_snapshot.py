"""Tests for catalog snapshot persistence (Catalog.save / Catalog.load)."""

import json

import pytest

from repro import bundle
from repro.catalog import Catalog, ResourceKind
from repro.cli import main
from repro.core.formulations import (
    LEAST_UNFAIR_AVG_EMD,
    MOST_UNFAIR_AVG_EMD,
    Formulation,
)
from repro.data.filters import Equals, Not, OneOf
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.errors import BundleError, CatalogError, SessionError
from repro.experiments.workloads import crowdsourcing_marketplace
from repro.marketplace.entities import Job, Marketplace
from repro.metrics.histogram import Binning
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import RankDerivedScorer
from repro.service import FairnessService, QuantifyRequest
from repro.session.engine import FaiRankEngine
from repro.snapshot import SNAPSHOT_FORMAT, SNAPSHOT_VERSION, snapshot_fingerprints


def populated_service() -> FairnessService:
    """A registry covering all four resource kinds (incl. a filtered job)."""
    service = FairnessService()
    service.register_dataset(load_example_table1(), name="table1")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    service.register_marketplace(crowdsourcing_marketplace(size=40, seed=7))
    service.register_formulation(MOST_UNFAIR_AVG_EMD)
    service.register_formulation(LEAST_UNFAIR_AVG_EMD)
    return service


class TestRoundTrip:
    def test_every_resource_kind_round_trips(self, tmp_path):
        catalog = populated_service().catalog
        path = tmp_path / "snap.json"
        catalog.save(path)
        loaded = Catalog.load(path)
        assert len(loaded) == len(catalog)
        for kind in ResourceKind:
            assert loaded.names(kind) == catalog.names(kind)

    def test_fingerprints_are_stable_after_reload(self, tmp_path):
        catalog = populated_service().catalog
        path = tmp_path / "snap.json"
        catalog.save(path)
        loaded = Catalog.load(path)
        for resource in catalog.resources():
            assert (
                loaded.get(resource.kind, resource.name).fingerprint
                == resource.fingerprint
            ), (resource.kind, resource.name)

    def test_snapshot_document_shape(self, tmp_path):
        path = tmp_path / "snap.json"
        document = populated_service().catalog.save(path)
        on_disk = json.loads(path.read_text())
        assert on_disk == document
        assert on_disk["format"] == SNAPSHOT_FORMAT
        assert on_disk["version"] == SNAPSHOT_VERSION
        kinds = {entry["kind"] for entry in on_disk["resources"]}
        assert kinds == {"dataset", "function", "marketplace", "formulation"}

    def test_marketplace_round_trips_jobs_and_filters(self, tmp_path):
        catalog = populated_service().catalog
        path = tmp_path / "snap.json"
        catalog.save(path)
        original = catalog.resolve(ResourceKind.MARKETPLACE, "crowdsourcing-sim")
        reloaded = Catalog.load(path).resolve(ResourceKind.MARKETPLACE, "crowdsourcing-sim")
        assert reloaded.job_titles == original.job_titles
        filtered = reloaded.job("English transcription")
        assert filtered.candidate_filter == Equals("Language", "English")
        reranked = reloaded.job("Content writing").ranking(reloaded.workers)
        ranked = original.job("Content writing").ranking(original.workers)
        assert reranked.uids == ranked.uids
        assert reranked.scores.tolist() == ranked.scores.tolist()

    def test_composed_filters_round_trip(self, tmp_path):
        workers = load_example_table1()
        candidate_filter = Not(Equals("Gender", "Male")) | OneOf(
            "Country", ("India", "Other")
        )
        market = Marketplace(
            name="composed",
            workers=workers,
            jobs=[
                Job(
                    title="picky",
                    function=LinearScoringFunction({"Rating": 1.0}, name="picky"),
                    candidate_filter=candidate_filter,
                )
            ],
        )
        catalog = Catalog()
        catalog.register(market)
        path = tmp_path / "snap.json"
        catalog.save(path)
        reloaded = Catalog.load(path).resolve(ResourceKind.MARKETPLACE, "composed")
        assert reloaded.job("picky").candidate_filter == candidate_filter

    def test_formulation_with_explicit_binning_round_trips(self, tmp_path):
        catalog = Catalog()
        catalog.register(
            Formulation(bins=4, binning=Binning(low=0.0, high=2.0, bins=4)),
            name="wide",
        )
        path = tmp_path / "snap.json"
        catalog.save(path)
        reloaded = Catalog.load(path).resolve(ResourceKind.FORMULATION, "wide")
        assert reloaded.binning == Binning(low=0.0, high=2.0, bins=4)

    def test_frozen_entries_stay_frozen(self, tmp_path):
        catalog = Catalog()
        catalog.register(load_example_table1(), name="pinned", freeze=True)
        path = tmp_path / "snap.json"
        catalog.save(path)
        loaded = Catalog.load(path)
        assert loaded.get(ResourceKind.DATASET, "pinned").frozen is True
        with pytest.raises(CatalogError, match="frozen"):
            loaded.remove(ResourceKind.DATASET, "pinned")

    def test_served_results_are_identical_across_reboot(self, tmp_path):
        service = populated_service()
        path = tmp_path / "snap.json"
        service.catalog.save(path)
        rebooted = FairnessService(catalog=Catalog.load(path))
        request = QuantifyRequest(dataset="table1", function="table1-f")
        assert (
            rebooted.execute(request).canonical()
            == service.execute(request).canonical()
        )


class TestDatasetSources:
    def test_csv_loader_reference(self, tmp_path):
        csv_path = tmp_path / "workers.csv"
        rows = ["Gender,Skill"] + [f"F,{0.2 + 0.05 * i}" for i in range(6)]
        rows += [f"M,{0.6 + 0.05 * i}" for i in range(6)]
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        from repro.data.loaders import load_csv

        dataset = load_csv(csv_path, protected_names=["Gender"], observed_names=["Skill"])
        catalog = Catalog()
        catalog.register(dataset, name="crawl")
        path = tmp_path / "snap.json"
        catalog.save(
            path,
            dataset_sources={
                "crawl": {
                    "loader": "csv",
                    "path": str(csv_path),
                    "protected": ["Gender"],
                    "observed": ["Skill"],
                }
            },
        )
        loaded = Catalog.load(path)
        assert (
            loaded.get(ResourceKind.DATASET, "crawl").fingerprint
            == catalog.get(ResourceKind.DATASET, "crawl").fingerprint
        )

    def test_drifted_source_content_is_rejected(self, tmp_path):
        csv_path = tmp_path / "workers.csv"
        csv_path.write_text("Gender,Skill\nF,0.4\nM,0.9\n", encoding="utf-8")
        from repro.data.loaders import load_csv

        catalog = Catalog()
        catalog.register(
            load_csv(csv_path, protected_names=["Gender"], observed_names=["Skill"]),
            name="crawl",
        )
        path = tmp_path / "snap.json"
        catalog.save(
            path,
            dataset_sources={
                "crawl": {
                    "loader": "csv",
                    "path": str(csv_path),
                    "protected": ["Gender"],
                    "observed": ["Skill"],
                }
            },
        )
        csv_path.write_text("Gender,Skill\nF,0.4\nM,0.1\n", encoding="utf-8")
        with pytest.raises(CatalogError, match="drifted"):
            Catalog.load(path)

    def test_unknown_loader_is_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps(
                {
                    "format": SNAPSHOT_FORMAT,
                    "version": SNAPSHOT_VERSION,
                    "resources": [
                        {
                            "kind": "dataset",
                            "name": "x",
                            "source": {"loader": "teleport"},
                        }
                    ],
                }
            )
        )
        with pytest.raises(
            CatalogError, match="unknown dataset loader 'teleport'.*known loaders: csv$"
        ):
            Catalog.load(path)

    def test_sources_for_unregistered_datasets_are_rejected(self, tmp_path):
        catalog = Catalog()
        catalog.register(load_example_table1(), name="table1")
        with pytest.raises(CatalogError, match="unregistered"):
            catalog.save(
                tmp_path / "snap.json",
                dataset_sources={"nope": {"loader": "csv", "path": "x.csv"}},
            )

    @pytest.mark.parametrize("loader", ["example_table1", "synthetic", None])
    def test_a_source_that_is_not_csv_is_refused_at_save(self, tmp_path, loader):
        catalog = Catalog()
        catalog.register(load_example_table1(), name="table1")
        with pytest.raises(CatalogError, match="known loaders: csv"):
            catalog.save(
                tmp_path / "snap.json", dataset_sources={"table1": {"loader": loader}}
            )
        assert list(tmp_path.iterdir()) == []


def _bundle_dirs(path):
    return sorted(child.name for child in path.with_name(path.name + ".columns").iterdir())


def _region_dataset(region):
    from repro.data.dataset import Dataset
    from repro.data.schema import Schema, observed, protected

    schema = Schema((protected("Region"), observed("Rating", domain=(0.0, 1.0))))
    records = [{"Region": region, "Rating": 0.5}, {"Region": "us", "Rating": 0.2}]
    return Dataset.from_records(schema, records, name="regions")


class TestColumnBundles:
    """Every dataset and every marketplace's workers is saved as a column bundle."""

    def test_marketplace_and_its_workers_dataset_share_one_directory(self, tmp_path):
        catalog = populated_service().catalog
        path = tmp_path / "snap.json"
        document = catalog.save(path)
        entries = {(e["kind"], e["name"]): e for e in document["resources"]}
        workers = entries[("dataset", "crowdsourcing-sim")]["columns"]
        market = entries[("marketplace", "crowdsourcing-sim")]["marketplace"]
        assert market["workers"] == workers
        table1 = entries[("dataset", "table1")]["columns"]
        assert set(table1) == {"dir", "name", "schema"}
        assert _bundle_dirs(path) == sorted(
            entry["dir"].rsplit("/", 1)[1] for entry in (table1, workers)
        )
        # No entry holds row values: 40 workers inline would be ~8 kB.
        for entry in document["resources"]:
            assert "individuals" not in json.dumps(entry)
            assert "dataset" not in entry and "source" not in entry
            assert len(json.dumps(entry)) < 4000, entry["name"]
        loaded = Catalog.load(path)
        for resource in catalog.resources():
            assert (
                loaded.get(resource.kind, resource.name).fingerprint
                == resource.fingerprint
            )

    @pytest.mark.parametrize(
        "region", [("eu", "west"), complex(1, 2)], ids=["tuple", "complex"]
    )
    def test_a_value_json_cannot_hold_is_refused_before_anything_is_written(
        self, tmp_path, region
    ):
        path = tmp_path / "snap.json"
        catalog = Catalog()
        catalog.register(load_example_table1(), name="table1")
        catalog.save(path)
        before = (path.read_bytes(), _bundle_dirs(path))

        catalog.register(_region_dataset(region), name="regions")
        with pytest.raises(CatalogError, match="dataset 'regions'.*column 'Region'"):
            catalog.save(path)
        assert (path.read_bytes(), _bundle_dirs(path)) == before
        assert Catalog.load(path).names(ResourceKind.DATASET) == ("table1",)

        fresh = tmp_path / "fresh.json"
        with pytest.raises(CatalogError, match="column 'Region'"):
            catalog.save(fresh)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snap.json", "snap.json.columns"
        ]

    def test_a_write_failure_is_a_catalog_error(self, tmp_path):
        path = tmp_path / "snap.json"
        (tmp_path / "snap.json.columns").write_text("not a directory")
        catalog = Catalog()
        catalog.register(load_example_table1(), name="table1")
        with pytest.raises(
            CatalogError, match="cannot write the column bundle of dataset 'table1'"
        ):
            catalog.save(path)
        assert not path.exists()
        (tmp_path / "snap.json.columns").unlink()
        path.mkdir()
        with pytest.raises(CatalogError, match="cannot write catalog snapshot"):
            catalog.save(path)

    def test_re_save_keeps_only_referenced_bundles(self, tmp_path):
        path = tmp_path / "snap.json"
        catalog = Catalog()
        catalog.register(load_example_table1(), name="table1")
        catalog.register(_region_dataset("eu"), name="regions")
        catalog.save(path)
        assert len(_bundle_dirs(path)) == 2
        stray = path.with_name("snap.json.columns") / "notes.txt"
        stray.write_text("kept")
        loaded_before = Catalog.load(path)

        catalog.remove(ResourceKind.DATASET, "regions")
        catalog.save(path)
        table1 = catalog.get(ResourceKind.DATASET, "table1").fingerprint[:16]
        assert _bundle_dirs(path) == sorted([table1, "notes.txt"])
        assert Catalog.load(path).names(ResourceKind.DATASET) == ("table1",)
        # The earlier catalog's memory maps outlive their removed directory.
        regions = loaded_before.resolve(ResourceKind.DATASET, "regions")
        assert regions.numeric_column("Rating").tolist() == [0.5, 0.2]
        assert [record["Region"] for record in regions.to_records()] == ["eu", "us"]


class TestColumnarReSave:
    def test_re_saving_a_loaded_columnar_snapshot_in_place(self, tmp_path):
        from repro.experiments.workloads import synthetic_population
        from repro.snapshot import load_catalog

        path = tmp_path / "snap.json"
        catalog = Catalog()
        catalog.register(synthetic_population(size=20_000, seed=7), name="pop")
        catalog.register(LinearScoringFunction(TABLE1_WEIGHTS, name="f"))
        catalog.save(path)
        expected = {(r.kind, r.name): r.fingerprint for r in catalog.resources()}

        # The loaded catalog memory-maps the very files the re-save replaces.
        load_catalog(path).save(path)
        reloaded = load_catalog(path)
        assert {(r.kind, r.name): r.fingerprint for r in reloaded.resources()} == expected


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CatalogError, match="cannot read catalog snapshot"):
            Catalog.load(tmp_path / "absent.json")

    def test_truncated_snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        populated_service().catalog.save(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CatalogError, match="truncated"):
            Catalog.load(path)

    def test_arbitrary_json_is_not_a_snapshot(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"requests": []}))
        with pytest.raises(CatalogError, match="not a catalog snapshot"):
            Catalog.load(path)

    def test_unknown_version_is_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps({"format": SNAPSHOT_FORMAT, "version": 99, "resources": []})
        )
        with pytest.raises(CatalogError, match="unsupported catalog snapshot version 99"):
            Catalog.load(path)

    def test_malformed_entry_is_named(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps(
                {
                    "format": SNAPSHOT_FORMAT,
                    "version": SNAPSHOT_VERSION,
                    "resources": [{"kind": "function"}],
                }
            )
        )
        with pytest.raises(CatalogError, match="entry #1"):
            Catalog.load(path)

    def test_non_linear_functions_cannot_be_saved(self, tmp_path):
        dataset = load_example_table1()
        ranking = LinearScoringFunction(TABLE1_WEIGHTS, name="hidden").rank(dataset)
        catalog = Catalog()
        catalog.register(RankDerivedScorer(ranking, name="from-ranks"))
        with pytest.raises(CatalogError, match="no portable content representation"):
            catalog.save(tmp_path / "snap.json")

    def test_tampered_fingerprint_is_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        populated_service().catalog.save(path)
        document = json.loads(path.read_text())
        document["resources"][0]["fingerprint"] = "0" * 64
        path.write_text(json.dumps(document))
        with pytest.raises(CatalogError, match="drifted"):
            Catalog.load(path)


class TestFingerprintVersion:
    """Version-1 (row-hash fingerprints) and version-2 (inline rows, generator
    loaders) snapshots are refused whole."""

    @staticmethod
    def _old_snapshot(tmp_path, version):
        path = tmp_path / "snap.json"
        populated_service().catalog.save(path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["version"] = version
        path.write_text(json.dumps(document), encoding="utf-8")
        return path

    def test_current_snapshots_are_version_3(self):
        assert SNAPSHOT_VERSION == bundle.SNAPSHOT.version == 3

    def test_version_1_is_a_manifest_bundle_error(self, tmp_path):
        path = self._old_snapshot(tmp_path, 1)
        with pytest.raises(BundleError) as refused:
            bundle.read_document(path, bundle.SNAPSHOT)
        assert refused.value.reason == "manifest"
        assert "version 1" in str(refused.value)
        assert "version 3" in str(refused.value)
        with pytest.raises(CatalogError, match="catalog snapshot version 1") as loading:
            Catalog.load(path)
        cause = loading.value.__cause__
        assert isinstance(cause, BundleError) and cause.reason == "manifest"
        assert "drifted" not in str(loading.value)
        with pytest.raises(CatalogError, match="catalog snapshot version 1"):
            snapshot_fingerprints(path)

    def test_version_2_with_inline_rows_is_a_manifest_bundle_error(self, tmp_path):
        path = tmp_path / "snap.json"
        dataset = load_example_table1()
        path.write_text(json.dumps({
            "format": SNAPSHOT_FORMAT,
            "version": 2,
            "resources": [{
                "kind": "dataset", "name": "table1", "frozen": False,
                "dataset": {
                    "name": dataset.name, "schema": [],
                    "individuals": [
                        {"uid": uid, "values": values}
                        for uid, values in zip(dataset.uids, dataset.to_records(False))
                    ],
                },
            }],
        }), encoding="utf-8")
        with pytest.raises(BundleError) as refused:
            bundle.read_document(path, bundle.SNAPSHOT)
        assert refused.value.reason == "manifest"
        assert "unsupported catalog snapshot version 2" in str(refused.value)
        assert "reads version 3" in str(refused.value)
        with pytest.raises(CatalogError, match="catalog snapshot version 2") as loading:
            Catalog.load(path)
        cause = loading.value.__cause__
        assert isinstance(cause, BundleError) and cause.reason == "manifest"
        with pytest.raises(CatalogError, match="catalog snapshot version 2"):
            snapshot_fingerprints(path)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_serve_exits_non_zero_naming_both_versions(self, tmp_path, capsys, workers):
        path = self._old_snapshot(tmp_path, 1)
        argv = ["serve", "--catalog", str(path), "--port", "0", "--workers", workers]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "unsupported catalog snapshot version 1" in captured.err
        assert "reads version 3" in captured.err
        assert "drifted" not in captured.err
        assert "serving fairness protocol v2" not in captured.out


class TestEngineExport:
    def test_engine_exports_its_registry(self, tmp_path):
        engine = FaiRankEngine()
        engine.register_dataset(load_example_table1(), name="table1")
        engine.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
        path = tmp_path / "session.json"
        engine.save_catalog(path)
        loaded = Catalog.load(path)
        assert loaded.names(ResourceKind.DATASET) == ("table1",)
        assert loaded.names(ResourceKind.FUNCTION) == ("table1-f",)

    def test_engine_export_failure_is_a_session_error(self, tmp_path):
        engine = FaiRankEngine()
        dataset = load_example_table1()
        engine.register_dataset(dataset, name="table1")
        ranking = LinearScoringFunction(TABLE1_WEIGHTS, name="f").rank(dataset)
        engine.register_function(RankDerivedScorer(ranking, name="opaque-ish"))
        with pytest.raises(SessionError, match="no portable content representation"):
            engine.save_catalog(tmp_path / "session.json")

    def test_cli_catalog_save_writes_a_bootable_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "snap.json"
        assert main(["catalog", "--market-size", "40", "--save", str(path)]) == 0
        assert "snapshot written" in capsys.readouterr().out
        loaded = Catalog.load(path)
        assert "table1" in loaded.names(ResourceKind.DATASET)
        assert "crowdsourcing-sim" in loaded.names(ResourceKind.MARKETPLACE)
