"""Tests for repro.data.dataset."""

import numpy as np
import pytest

from repro.data.dataset import Dataset, Individual
from repro.data.schema import Schema, observed, protected
from repro.errors import DataError, EmptyDatasetError, UnknownAttributeError


@pytest.fixture
def schema():
    return Schema((
        protected("Gender", domain=("F", "M")),
        protected("City", domain=("NY", "SF", "LA")),
        observed("Rating", domain=(0.0, 1.0)),
    ))


@pytest.fixture
def records():
    return [
        {"Gender": "F", "City": "NY", "Rating": 0.9},
        {"Gender": "M", "City": "NY", "Rating": 0.4},
        {"Gender": "F", "City": "SF", "Rating": 0.7},
        {"Gender": "M", "City": "LA", "Rating": 0.2},
        {"Gender": "F", "City": "LA", "Rating": 0.6},
    ]


@pytest.fixture
def dataset(schema, records):
    return Dataset.from_records(schema, records, name="toy")


class TestIndividual:
    def test_getitem_and_get(self):
        ind = Individual(uid="w1", values={"Gender": "F"})
        assert ind["Gender"] == "F"
        assert ind.get("Missing", "default") == "default"
        with pytest.raises(UnknownAttributeError):
            ind["Missing"]

    def test_with_values_does_not_mutate_original(self):
        ind = Individual(uid="w1", values={"Gender": "F", "Rating": 0.5})
        updated = ind.with_values(Rating=0.9)
        assert updated["Rating"] == 0.9
        assert ind["Rating"] == 0.5
        assert updated.uid == ind.uid


class TestConstruction:
    def test_from_records_assigns_sequential_uids(self, dataset):
        assert dataset.uids == ("w1", "w2", "w3", "w4", "w5")

    def test_from_records_with_uid_field(self, schema):
        records = [{"id": "alice", "Gender": "F", "City": "NY", "Rating": 0.9}]
        ds = Dataset.from_records(schema, records, uid_field="id")
        assert ds.uids == ("alice",)
        assert "id" not in ds[0].values

    def test_from_records_missing_uid_field(self, schema):
        with pytest.raises(DataError):
            Dataset.from_records(schema, [{"Gender": "F", "City": "NY", "Rating": 0.9}],
                                 uid_field="id")

    def test_from_columns(self, schema):
        ds = Dataset.from_columns(
            schema,
            {"Gender": ["F", "M"], "City": ["NY", "SF"], "Rating": [0.1, 0.2]},
        )
        assert len(ds) == 2
        assert tuple(row["City"] for row in ds) == ("NY", "SF")

    def test_from_columns_inconsistent_lengths(self, schema):
        with pytest.raises(DataError):
            Dataset.from_columns(
                schema, {"Gender": ["F"], "City": ["NY", "SF"], "Rating": [0.1, 0.2]}
            )

    def test_from_columns_wrong_uid_count(self, schema):
        with pytest.raises(DataError):
            Dataset.from_columns(
                schema,
                {"Gender": ["F"], "City": ["NY"], "Rating": [0.1]},
                uids=["a", "b"],
            )

    def test_validation_missing_attribute(self, schema):
        with pytest.raises(DataError):
            Dataset(schema, [Individual("w1", {"Gender": "F", "City": "NY"})])

    def test_validation_invalid_value(self, schema):
        with pytest.raises(DataError):
            Dataset(schema, [Individual("w1", {"Gender": "X", "City": "NY", "Rating": 0.5})])

    def test_validation_duplicate_uid(self, schema):
        rows = [
            Individual("w1", {"Gender": "F", "City": "NY", "Rating": 0.5}),
            Individual("w1", {"Gender": "M", "City": "SF", "Rating": 0.6}),
        ]
        with pytest.raises(DataError):
            Dataset(schema, rows)


class TestAccess:
    def test_len_iter_getitem_bool(self, dataset):
        assert len(dataset) == 5
        assert bool(dataset)
        assert dataset[0].uid == "w1"
        assert sum(1 for _ in dataset) == 5

    def test_by_uid(self, dataset):
        assert dataset.by_uid("w3")["City"] == "SF"
        with pytest.raises(DataError):
            dataset.by_uid("nope")

    def test_column_and_numeric_column(self, dataset):
        assert tuple(row["Gender"] for row in dataset) == ("F", "M", "F", "M", "F")
        ratings = dataset.numeric_column("Rating")
        assert isinstance(ratings, np.ndarray)
        assert ratings.tolist() == [0.9, 0.4, 0.7, 0.2, 0.6]

    def test_numeric_column_rejects_categorical(self, dataset):
        with pytest.raises(DataError):
            dataset.numeric_column("Gender")

    def test_value_counts_and_distinct_values(self, dataset):
        assert dataset.value_counts("Gender") == {"F": 3, "M": 2}
        # Domain order is preserved for categorical attributes.
        assert dataset.distinct_values("City") == ("NY", "SF", "LA")

    def test_unknown_column(self, dataset):
        with pytest.raises(UnknownAttributeError):
            dataset.codes("Nope")


class TestOperations:
    def test_filter(self, dataset):
        females = dataset.filter(lambda ind: ind["Gender"] == "F")
        assert len(females) == 3
        assert all(ind["Gender"] == "F" for ind in females)
        # Original unchanged.
        assert len(dataset) == 5

    def test_select_uids(self, dataset):
        subset = dataset.select_uids(["w1", "w4"])
        assert subset.uids == ("w1", "w4")
        with pytest.raises(DataError):
            dataset.select_uids(["w1", "ghost"])

    def test_project(self, dataset):
        projected = dataset.project(["Gender", "Rating"])
        assert projected.schema.names == ("Gender", "Rating")
        assert "City" not in projected[0].values

    def test_map_column(self, dataset):
        mapped = dataset.map_column("City", lambda c: "COAST" if c in ("SF", "LA") else c)
        assert {row["City"] for row in mapped} == {"NY", "COAST"}
        # Domain is dropped so new values are allowed.
        assert mapped.schema.attribute("City").domain is None

    def test_group_by_single_attribute(self, dataset):
        groups = dataset.group_by(["Gender"])
        assert set(groups) == {("F",), ("M",)}
        assert len(groups[("F",)]) == 3

    def test_group_by_multiple_attributes(self, dataset):
        groups = dataset.group_by(["Gender", "City"])
        assert ("F", "NY") in groups
        assert len(groups[("F", "NY")]) == 1
        total = sum(len(g) for g in groups.values())
        assert total == len(dataset)

    def test_concat(self, schema, dataset):
        other = Dataset.from_records(
            schema, [{"Gender": "M", "City": "SF", "Rating": 0.3}], name="extra",
        )
        # Rename uid to avoid collision.
        renamed = Dataset(schema, [Individual("x1", other[0].values)], name="extra")
        combined = dataset.concat(renamed)
        assert len(combined) == 6

    def test_concat_schema_mismatch(self, dataset):
        other_schema = Schema((protected("Other"), observed("Rating")))
        other = Dataset.from_records(other_schema, [{"Other": "a", "Rating": 0.5}])
        with pytest.raises(DataError):
            dataset.concat(other)

    def test_require_non_empty(self, schema, dataset):
        assert dataset.require_non_empty() is dataset
        empty = Dataset(schema, [])
        with pytest.raises(EmptyDatasetError):
            empty.require_non_empty()

    def test_observed_matrix(self, dataset):
        matrix = dataset.observed_matrix()
        assert matrix.shape == (5, 1)
        assert matrix[:, 0].tolist() == [0.9, 0.4, 0.7, 0.2, 0.6]

    def test_observed_matrix_empty_names(self, dataset):
        matrix = dataset.observed_matrix([])
        assert matrix.shape == (5, 0)

    def test_to_records_roundtrip(self, schema, dataset):
        records = dataset.to_records(include_uid=False)
        rebuilt = Dataset.from_records(schema, records)
        assert [row["Rating"] for row in rebuilt] == [row["Rating"] for row in dataset]

    def test_summary(self, dataset):
        summary = dataset.summary()
        assert summary["size"] == 5
        assert summary["protected_attributes"] == ["Gender", "City"]
        assert summary["protected_cardinalities"]["City"] == 3
