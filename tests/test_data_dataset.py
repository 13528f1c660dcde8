"""Tests for repro.data.dataset."""

import itertools

import numpy as np
import pytest

from repro.core.partition import root_partition
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore
from repro.data.dataset import Dataset
from repro.data.filters import Equals
from repro.data.schema import AttributeType, Schema, observed, protected
from repro.errors import DataError, EmptyDatasetError, UnknownAttributeError
from repro.experiments.workloads import synthetic_population
from repro.scoring.linear import LinearScoringFunction
from scoring_reference import DirectScorer


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


class TestConstruction:
    def test_from_records_assigns_sequential_uids(self, dataset):
        assert dataset.uids == ("w1", "w2", "w3", "w4", "w5")

    def test_from_records_with_uid_field(self, schema):
        records = [{"id": "alice", "Gender": "F", "City": "NY", "Rating": 0.9}]
        ds = Dataset.from_records(schema, records, uid_field="id")
        assert ds.uids == ("alice",)
        assert ds.to_records() == [{"uid": "alice", "Gender": "F", "City": "NY", "Rating": 0.9}]

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
        assert tuple(record["City"] for record in ds.to_records()) == ("NY", "SF")

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
        with pytest.raises(DataError, match="'w1' is missing attribute 'Rating'"):
            Dataset.from_records(schema, [{"Gender": "F", "City": "NY"}])

    def test_validation_invalid_value(self, schema):
        with pytest.raises(DataError):
            Dataset.from_records(schema, [{"Gender": "X", "City": "NY", "Rating": 0.5}])

    def test_validation_duplicate_uid(self, schema):
        records = [
            {"uid": "w1", "Gender": "F", "City": "NY", "Rating": 0.5},
            {"uid": "w1", "Gender": "M", "City": "SF", "Rating": 0.6},
        ]
        with pytest.raises(DataError):
            Dataset.from_records(schema, records, uid_field="uid")


class TestAccess:
    def test_len_and_bool(self, schema, dataset):
        assert len(dataset) == 5
        assert bool(dataset)
        assert not Dataset.from_records(schema, [])

    def test_column_and_numeric_column(self, dataset):
        records = dataset.to_records()
        assert tuple(record["Gender"] for record in records) == ("F", "M", "F", "M", "F")
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
        females = dataset.filter(Equals("Gender", "F"))
        assert len(females) == 3
        assert all(record["Gender"] == "F" for record in females.to_records())
        # Original unchanged.
        assert len(dataset) == 5

    def test_map_column(self, dataset):
        mapped = dataset.map_column("City", lambda c: "COAST" if c in ("SF", "LA") else c)
        assert {record["City"] for record in mapped.to_records()} == {"NY", "COAST"}
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

    def test_require_non_empty(self, schema, dataset):
        assert dataset.require_non_empty() is dataset
        empty = Dataset.from_records(schema, [])
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
        assert rebuilt.to_records(include_uid=False) == records

    def test_summary(self, dataset):
        summary = dataset.summary()
        assert summary["size"] == 5
        assert summary["protected_attributes"] == ["Gender", "City"]
        assert summary["protected_cardinalities"]["City"] == 3


class TestObservedMatrix:
    """One read-only matrix of observed numeric columns per dataset."""

    @pytest.fixture
    def wide(self):
        schema = Schema((
            protected("Gender", domain=("F", "M")),
            observed("Rating", domain=(0.0, 1.0)),
            protected("Age", domain=(18.0, 99.0), atype=AttributeType.NUMERIC),
            observed("Level", domain=("junior", "senior"), atype=AttributeType.CATEGORICAL),
            observed("Language Test", domain=(0.0, 1.0)),
            observed("Speed", domain=(0.0, 1.0)),
        ))
        rng = np.random.default_rng(5)
        size = 200
        columns = {
            "Gender": rng.choice(["F", "M"], size).tolist(),
            "Rating": rng.random(size).tolist(),
            "Age": rng.integers(18, 99, size).astype(float).tolist(),
            "Level": rng.choice(["junior", "senior"], size).tolist(),
            "Language Test": rng.random(size).tolist(),
            "Speed": rng.random(size).round(2).tolist(),
        }
        return Dataset.from_columns(schema, columns, name="wide")

    NUMERIC = ("Rating", "Language Test", "Speed")

    def test_schema_order_request_is_the_cached_matrix_itself(self, dataset, wide):
        full = wide.observed_matrix(self.NUMERIC)
        assert wide.observed_matrix(list(self.NUMERIC)) is full
        assert not full.flags.writeable
        assert full.flags.c_contiguous
        with pytest.raises(ValueError):
            full[0, 0] = 1.0
        # Every observed attribute numeric: the default request is it too.
        assert dataset.observed_matrix() is dataset.observed_matrix(["Rating"])
        assert not dataset.observed_matrix().flags.writeable

    @pytest.mark.parametrize("names", [
        ("Language Test", "Rating"),
        ("Speed", "Rating", "Language Test"),
        ("Rating",),
        ("Speed",),
        ("Rating", "Speed"),
        ("Rating", "Rating"),
    ])
    def test_other_orders_and_subsets_equal_column_stack(self, wide, names):
        got = wide.observed_matrix(names)
        stacked = np.column_stack([wide.numeric_column(name) for name in names])
        assert got.shape == stacked.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == stacked.tobytes()
        assert not np.shares_memory(got, wide.observed_matrix(self.NUMERIC))

    def test_names_outside_the_matrix(self, wide):
        # Numeric but not observed: stacked column by column, as before.
        got = wide.observed_matrix(["Age", "Rating"])
        stacked = np.column_stack([wide.numeric_column("Age"), wide.numeric_column("Rating")])
        assert got.tobytes() == stacked.tobytes()
        with pytest.raises(UnknownAttributeError):
            wide.observed_matrix(["Rating", "Nope"])
        with pytest.raises(DataError, match="attribute 'Level' is not numeric"):
            wide.observed_matrix(["Level"])
        with pytest.raises(DataError, match="attribute 'Level' is not numeric"):
            wide.observed_matrix()

    def test_one_matrix_shared_by_every_store_and_function(self, wide, monkeypatch):
        full = wide.observed_matrix(self.NUMERIC)
        calls = []
        original = Dataset.numeric_column
        monkeypatch.setattr(
            Dataset, "numeric_column",
            lambda self, name: calls.append(name) or original(self, name),
        )
        for weights in ({"Rating": 1.0, "Speed": 2.0}, {"Speed": 1.0, "Language Test": 1.0},
                        {"Rating": 1.0, "Language Test": 1.0, "Speed": 1.0}):
            ScoreStore(wide, LinearScoringFunction(weights)).vector()
        assert calls == []
        assert wide.observed_matrix(self.NUMERIC) is full

    def test_still_one_matrix_after_many_weight_orders(self, wide):
        full = wide.observed_matrix(self.NUMERIC)
        cached = dict(vars(wide))
        for order in itertools.permutations(self.NUMERIC):
            for count in (1, 2, 3):
                names = order[:count]
                function = LinearScoringFunction({name: 1.0 + i for i, name in enumerate(names)})
                function.score_dataset(wide)
        # No cache keyed by the order of the names: nothing new was kept.
        assert wide.observed_matrix(self.NUMERIC) is full
        assert vars(wide).keys() == cached.keys()

    def test_scores_bit_identical_to_direct_scoring(self):
        population = synthetic_population(size=500, seed=3)
        names = population.schema.observed_names
        women = population.filter(Equals("Gender", "Female"), name="women")
        for weights in (dict(zip(names, (0.3, 0.7))), dict(zip(reversed(names), (0.3, 0.7))),
                        {names[-1]: 1.0}):
            function = LinearScoringFunction(weights)
            store = ScoreStore(population, function)
            direct = DirectScorer(function)
            result = quantify(population, function, min_partition_size=20, store=store)
            partitions = [root_partition(population), *result.partitioning,
                          root_partition(women)]
            for partition in partitions:
                members = partition.members
                used = [name for name in weights if weights[name]]
                # The column-stacking formula the cached matrix replaced.
                stacked = np.column_stack([members.numeric_column(name) for name in used])
                expected = stacked @ np.asarray([function.weights[name] for name in used])
                assert store.scores(partition).tobytes() == expected.tobytes()
                assert direct.scores(partition).tobytes() == expected.tobytes()
