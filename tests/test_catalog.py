"""The unified resource registry: typed entries, replace/freeze, addressing."""

from __future__ import annotations

import json

import pytest

from repro.catalog import Catalog, ResourceKind
from repro.core.formulations import LEAST_UNFAIR_AVG_EMD, MOST_UNFAIR_AVG_EMD
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.errors import CatalogError
from repro.scoring.linear import LinearScoringFunction
from repro.service.fingerprint import fingerprint_dataset, fingerprint_function


@pytest.fixture()
def catalog(table1_dataset, table1_function, crowdsourcing_marketplace_fixture):
    catalog = Catalog()
    catalog.register(table1_dataset, name="table1")
    catalog.register(table1_function)
    catalog.register(crowdsourcing_marketplace_fixture)
    catalog.register(MOST_UNFAIR_AVG_EMD)
    return catalog


class TestRegistration:
    def test_kind_is_inferred_from_the_object(self, catalog):
        assert catalog.get(ResourceKind.DATASET, "table1").kind is ResourceKind.DATASET
        assert catalog.get(ResourceKind.FUNCTION, "table1-f").kind is ResourceKind.FUNCTION
        assert (
            catalog.get(ResourceKind.MARKETPLACE, "crowdsourcing-sim").kind
            is ResourceKind.MARKETPLACE
        )
        assert (
            catalog.get(ResourceKind.FORMULATION, MOST_UNFAIR_AVG_EMD.name).kind
            is ResourceKind.FORMULATION
        )

    def test_unknown_type_needs_explicit_kind(self):
        with pytest.raises(CatalogError, match="cannot infer"):
            Catalog().register(object(), name="thing")

    def test_name_defaults_to_the_objects_name(self, table1_function):
        resource = Catalog().register(table1_function)
        assert resource.name == "table1-f"

    def test_empty_name_falls_back_to_the_objects_name(self, table1_dataset):
        resource = Catalog().register(table1_dataset, name="")
        assert resource.name == table1_dataset.name

    def test_nameless_resource_rejected(self):
        from repro.data.dataset import Dataset

        source = load_example_table1()
        nameless = Dataset(source.schema, source.store, name="", validate=False)
        with pytest.raises(CatalogError, match="non-empty name"):
            Catalog().register(nameless, name=None)

    def test_fingerprints_match_the_service_cache_keys(self, catalog, table1_dataset,
                                                       table1_function):
        assert (
            catalog.get(ResourceKind.DATASET, "table1").fingerprint
            == fingerprint_dataset(table1_dataset)
        )
        assert (
            catalog.get(ResourceKind.FUNCTION, "table1-f").fingerprint
            == fingerprint_function(table1_function)
        )

    def test_metadata_carries_rows_and_arity(self, catalog):
        dataset = catalog.get(ResourceKind.DATASET, "table1")
        assert dataset.metadata["rows"] == 10
        function = catalog.get(ResourceKind.FUNCTION, "table1-f")
        assert function.metadata["arity"] == 2
        market = catalog.get(ResourceKind.MARKETPLACE, "crowdsourcing-sim")
        assert market.metadata["jobs"] >= 1 and market.metadata["workers"] == 150


class TestReplaceSemantics:
    def test_identical_content_is_idempotent(self, catalog, table1_dataset):
        # A rebuilt but content-identical object under the same name: no-op.
        again = catalog.register(load_example_table1(), name="table1")
        assert again.value is table1_dataset

    def test_different_content_requires_replace(self, catalog):
        other = LinearScoringFunction({"Rating": 1.0}, name="table1-f")
        with pytest.raises(CatalogError, match="replace=True"):
            catalog.register(other)
        resource = catalog.register(other, replace=True)
        assert resource.value is other

    def test_frozen_entries_cannot_be_replaced(self, catalog):
        catalog.freeze(ResourceKind.FUNCTION, "table1-f")
        other = LinearScoringFunction({"Rating": 1.0}, name="table1-f")
        with pytest.raises(CatalogError, match="frozen"):
            catalog.register(other, replace=True)

    def test_frozen_plus_identical_content_is_still_idempotent(self, catalog):
        catalog.freeze(ResourceKind.FUNCTION, "table1-f")
        again = catalog.register(
            LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f")
        )
        assert again.frozen is True

    def test_register_can_freeze_directly(self):
        catalog = Catalog()
        resource = catalog.register(
            LinearScoringFunction({"Rating": 1.0}, name="pinned"), freeze=True
        )
        assert resource.frozen is True
        with pytest.raises(CatalogError, match="frozen"):
            catalog.register(
                LinearScoringFunction({"Language Test": 1.0}, name="pinned"),
                replace=True,
            )

    def test_frozen_entries_cannot_be_removed(self, catalog):
        catalog.freeze(ResourceKind.DATASET, "table1")
        with pytest.raises(CatalogError, match="frozen"):
            catalog.remove(ResourceKind.DATASET, "table1")

    def test_remove_drops_the_entry(self, catalog):
        catalog.remove(ResourceKind.DATASET, "table1")
        with pytest.raises(CatalogError, match="unknown dataset"):
            catalog.get(ResourceKind.DATASET, "table1")


class TestAddressing:
    def test_lookup_by_name(self, catalog, table1_dataset):
        assert catalog.resolve(ResourceKind.DATASET, "table1") is table1_dataset

    def test_lookup_by_full_fingerprint(self, catalog, table1_dataset):
        fingerprint = fingerprint_dataset(table1_dataset)
        assert catalog.resolve(ResourceKind.DATASET, fingerprint) is table1_dataset

    def test_lookup_by_fingerprint_prefix(self, catalog, table1_dataset):
        prefix = fingerprint_dataset(table1_dataset)[:12]
        assert catalog.resolve(ResourceKind.DATASET, prefix) is table1_dataset

    def test_short_prefixes_do_not_resolve(self, catalog, table1_dataset):
        # Fewer than 8 hex chars could shadow names; treated as an unknown name.
        with pytest.raises(CatalogError, match="unknown dataset"):
            catalog.get(ResourceKind.DATASET, fingerprint_dataset(table1_dataset)[:6])

    def test_ambiguous_prefix_raises(self):
        catalog = Catalog()
        function = LinearScoringFunction({"Rating": 1.0}, name="a")
        catalog.register(function)
        # Same content under a second name: the shared prefix is ambiguous.
        catalog.register(LinearScoringFunction({"Rating": 1.0}, name="b"))
        with pytest.raises(CatalogError, match="ambiguous"):
            catalog.get(ResourceKind.FUNCTION, fingerprint_function(function)[:12])

    def test_unknown_reference_lists_registered_names(self, catalog):
        with pytest.raises(CatalogError, match="registered: table1"):
            catalog.get(ResourceKind.DATASET, "nope")

    def test_contains_protocol(self, catalog):
        assert (ResourceKind.DATASET, "table1") in catalog
        assert (ResourceKind.DATASET, "nope") not in catalog
        assert "table1" not in catalog  # malformed keys are just absent


class TestListings:
    def test_names_and_len(self, catalog):
        # Registering a marketplace through the bare Catalog does not cascade
        # into workers/functions — that composition lives in the service layer.
        assert catalog.names(ResourceKind.DATASET) == ("table1",)
        assert catalog.names(ResourceKind.MARKETPLACE) == ("crowdsourcing-sim",)
        assert len(catalog) == len(catalog.resources()) == 4

    def test_describe_is_json_able(self, catalog):
        listing = catalog.describe()
        assert json.loads(json.dumps(listing)) == listing
        kinds = {entry["kind"] for entry in listing["resources"]}
        assert kinds == {"dataset", "function", "marketplace", "formulation"}
        assert listing["counts"]["dataset"] == 1

    def test_describe_entries_carry_fingerprints(self, catalog, table1_dataset):
        listing = catalog.describe()
        by_name = {
            (entry["kind"], entry["name"]): entry for entry in listing["resources"]
        }
        assert (
            by_name[("dataset", "table1")]["fingerprint"]
            == fingerprint_dataset(table1_dataset)
        )

    def test_iteration_yields_resources(self, catalog):
        names = {resource.name for resource in catalog}
        assert {"table1", "table1-f", "crowdsourcing-sim"} <= names

    def test_formulations_are_first_class(self, catalog):
        catalog.register(LEAST_UNFAIR_AVG_EMD)
        assert catalog.names(ResourceKind.FORMULATION) == (
            MOST_UNFAIR_AVG_EMD.name,
            LEAST_UNFAIR_AVG_EMD.name,
        )
        assert (
            catalog.resolve(ResourceKind.FORMULATION, LEAST_UNFAIR_AVG_EMD.name)
            is LEAST_UNFAIR_AVG_EMD
        )
