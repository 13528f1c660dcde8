"""One dataset backing: every ``Dataset`` is column-backed, derived ones are views.

* every construction route yields a :class:`ColumnStore` backing and the
  same fingerprint, ``codes``, ``distinct_values`` and ``value_counts`` as
  the same content built another way — including a column mixing ``1``,
  ``1.0``, ``True`` and ``"1"``;
* filter, group-by and score-store splits are index views whose provenance
  maps them to root rows at any depth; a private store accepts exactly the
  views drawn from its dataset and refuses a content-equal rebuilt subset;
* a large QUANTIFY never realises a split child's columns;
* row input keeps its duplicate-uid, missing-attribute and invalid-value
  errors.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest

from repro.catalog import Catalog, ResourceKind
from repro.core.partition import Partition, root_partition, split_partition
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore, store_for
from repro.data.columns import ColumnStore
from repro.data.dataset import Dataset, DatasetView, Individual
from repro.data.loaders import load_csv, load_records
from repro.data.schema import Schema, observed, protected
from repro.errors import DataError, PartitioningError
from repro.experiments.workloads import biased_population, synthetic_population
from repro.marketplace.crawler import MarketplaceCrawler
from repro.scoring.linear import LinearScoringFunction
from repro.service import FairnessService
from repro.service.fingerprint import fingerprint_dataset

#: A protected column mixing values equal under ``==`` but of distinct types.
MIXED = [1, "a", 1.0, True, "1", 1, "a", True, 2, "1", 1.0, 2]
CITIES = ["NY", "SF", "NY", "LA", "SF", "NY", "LA", "LA", "NY", "SF", "NY", "LA"]
RATINGS = [0.9, 0.4, 0.7, 0.2, 0.6, 0.5, 0.3, 0.8, 0.1, 0.95, 0.45, 0.65]

FUNCTION = LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="f")


def mixed_schema() -> Schema:
    return Schema((
        protected("Code"),
        protected("City", domain=("NY", "SF", "LA")),
        observed("Rating", domain=(0.0, 1.0)),
    ))


def mixed_records():
    return [
        {"Code": code, "City": city, "Rating": rating}
        for code, city, rating in zip(MIXED, CITIES, RATINGS)
    ]


def typed(values):
    """Values with their exact types, so ``1 == 1.0 == True`` cannot hide drift."""
    return [(type(value), value) for value in values]


def assert_same_content(left: Dataset, right: Dataset) -> None:
    assert isinstance(left.store, ColumnStore)
    assert isinstance(right.store, ColumnStore)
    assert fingerprint_dataset(left) == fingerprint_dataset(right)
    for name in left.schema.names:
        codes, decode, encode = left.codes(name)
        other_codes, other_decode, other_encode = right.codes(name)
        assert codes.tolist() == other_codes.tolist(), name
        assert typed(decode) == typed(other_decode), name
        assert typed(encode) == typed(other_encode) and encode == other_encode, name
        assert typed(left.distinct_values(name)) == typed(right.distinct_values(name))
        left_counts, right_counts = left.value_counts(name), right.value_counts(name)
        assert typed(left_counts) == typed(right_counts) and left_counts == right_counts


def rebuilt_from_rows(dataset: Dataset) -> Dataset:
    """The same content re-ingested through the row constructor."""
    rows = [Individual(uid=row.uid, values=dict(row.values)) for row in dataset]
    return Dataset(dataset.schema, rows, name="rebuilt")


def reload(dataset: Dataset, tmp_path: Path, sidecar: bool) -> Dataset:
    service = FairnessService()
    service.register_dataset(dataset, name="data")
    path = tmp_path / ("sidecar.json" if sidecar else "inline.json")
    service.catalog.save(path, columnar_datasets=True if sidecar else None)
    return Catalog.load(path).resolve(ResourceKind.DATASET, "data")


class TestEveryRouteIsColumnBacked:
    @pytest.fixture
    def reference(self):
        schema = mixed_schema()
        rows = [
            Individual(uid=f"w{index}", values=record)
            for index, record in enumerate(mixed_records(), start=1)
        ]
        return Dataset(schema, rows, name="rows")

    def test_row_constructor_converts_once(self, reference):
        assert isinstance(reference.store, ColumnStore)
        assert reference.__dict__.get("_rows") is None
        assert typed(reference.column("Code")) == typed(MIXED)

    def test_from_records_and_from_columns(self, reference):
        schema = mixed_schema()
        assert_same_content(Dataset.from_records(schema, mixed_records()), reference)
        columns = {"Code": MIXED, "City": CITIES, "Rating": RATINGS}
        assert_same_content(Dataset.from_columns(schema, columns), reference)

    def test_load_records(self):
        records = mixed_records()
        loaded = load_records(records, ["Code", "City"], ["Rating"])
        direct = Dataset.from_records(loaded.schema, records)
        assert_same_content(loaded, direct)

    def test_load_csv(self, tmp_path):
        path = tmp_path / "mixed.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["Code", "City", "Rating"])
            writer.writerows(zip(MIXED, CITIES, RATINGS))
        loaded = load_csv(path, ["Code", "City"], ["Rating"], chunk_rows=5)
        # CSV cells are strings: the same content as string-valued records.
        records = [
            {"Code": str(code), "City": city, "Rating": rating}
            for code, city, rating in zip(MIXED, CITIES, RATINGS)
        ]
        assert_same_content(loaded, Dataset.from_records(loaded.schema, records))

    @pytest.mark.parametrize("sidecar", [False, True], ids=["inline", "sidecar"])
    def test_snapshot_routes(self, reference, tmp_path, sidecar):
        assert_same_content(reload(reference, tmp_path, sidecar), reference)

    @pytest.mark.parametrize("sidecar", [False, True], ids=["inline", "sidecar"])
    def test_generator_without_biases(self, tmp_path, sidecar):
        generated = synthetic_population(300, seed=3)
        assert_same_content(generated, rebuilt_from_rows(generated))
        assert_same_content(reload(generated, tmp_path, sidecar), generated)

    def test_generator_with_biases(self):
        biased, _ = biased_population(300, seed=3)
        assert_same_content(biased, rebuilt_from_rows(biased))

    def test_crawler(self):
        workers = MarketplaceCrawler(seed=5).crawl("fiverr-sim", workers=120).workers
        assert_same_content(workers, rebuilt_from_rows(workers))

    def test_mixed_column_counts_equal_values_together(self, reference):
        # 1, 1.0 and True are one value under ==; "1" is another.
        expected = {}
        for value in MIXED:
            expected[value] = expected.get(value, 0) + 1
        counts = reference.value_counts("Code")
        assert typed(counts) == typed(expected) and counts == expected
        assert list(counts.items()) == [(1, 6), ("a", 2), ("1", 2), (2, 2)]
        codes, decode, _ = reference.codes("Code")
        assert typed(decode) == [(int, 1), (str, "a"), (str, "1"), (int, 2)]
        assert [decode[code] for code in codes.tolist()] == MIXED


class TestViewsAndProvenance:
    @pytest.fixture(scope="class")
    def population(self):
        return synthetic_population(1_500, seed=11)

    def positions(self, population, view):
        where = {uid: position for position, uid in enumerate(population.uids)}
        return [where[uid] for uid in view.uids]

    def test_nested_views_map_to_root_rows_at_every_depth(self, population):
        filtered = population.filter(lambda row: row["Gender"] == "Female")
        language, grouped = next(iter(filtered.group_by(["Language"]).items()))
        store = store_for(population, FUNCTION)
        parent = Partition(
            constraints=(("Gender", "Female"), ("Language", language[0])),
            members=grouped,
        )
        children = split_partition(parent, "Ethnicity", store=store)
        deeper = children[0].members.group_by(["Country"])
        views = [filtered, grouped, *(c.members for c in children), *deeper.values()]
        vector = store.vector()
        for view in views:
            assert isinstance(view, DatasetView)
            expected = self.positions(population, view)
            assert view.indices_in(population).tolist() == expected
            partition = Partition(constraints=(), members=view)
            assert np.array_equal(store.scores(partition), vector[expected])
            # Realised columns hold exactly the root rows' values.
            for name in population.schema.names:
                root = population.column(name)
                assert view.column(name) == tuple(root[i] for i in expected)
        assert store.stats.scoring_passes == 1

    def test_store_children_are_views_of_the_store_dataset(self, population):
        store = ScoreStore(population, FUNCTION)
        for child in split_partition(root_partition(population), "Gender", store=store):
            assert child.members.parent is population
            assert child.members.indices_in(population) is child.members.index

    def test_content_equal_rebuilt_subset_is_refused(self, population):
        grouped = population.group_by(["Gender"])
        subset = next(iter(grouped.values()))
        rebuilt = Dataset(population.schema, list(subset), name="rebuilt")
        assert fingerprint_dataset(rebuilt) == fingerprint_dataset(subset)
        assert rebuilt.indices_in(population) is None
        store = store_for(population, FUNCTION)
        with pytest.raises(PartitioningError):
            store.scores(Partition(constraints=(), members=rebuilt))
        # A view of the rebuilt copy is refused too: its chain ends elsewhere.
        view = rebuilt.select_uids(rebuilt.uids[:10])
        with pytest.raises(PartitioningError):
            store.scores(Partition(constraints=(), members=view))
        assert len(store) == 0

    def test_view_uids_come_from_the_parent_without_realising(self, population):
        view = population.select_uids(population.uids[5:50])
        assert view.uids == population.uids[5:50]
        assert len(view) == 45
        assert view.__dict__.get("_store") is None


class TestLargeQuantifyRealisesNoChild:
    def test_no_split_child_columns_are_realised(self, monkeypatch):
        population = synthetic_population(100_000, seed=3)
        realised = []
        original = DatasetView._realize

        def counting(view):
            realised.append(view.name)
            return original(view)

        monkeypatch.setattr(DatasetView, "_realize", counting)
        result = quantify(population, FUNCTION, min_partition_size=250)
        assert len(result.partitioning) > 1
        assert realised == []
        # The counter sits on the one realisation point: touching a column counts.
        leaf = result.partitioning[0].members
        leaf.column("Gender")
        assert realised == [leaf.name]


class TestRowInputErrors:
    def schema(self):
        return Schema((
            protected("City", domain=("NY", "SF")),
            observed("Rating", domain=(0.0, 1.0)),
        ))

    def test_duplicate_uid(self):
        rows = [
            Individual("a", {"City": "NY", "Rating": 0.5}),
            Individual("a", {"City": "SF", "Rating": 0.6}),
        ]
        with pytest.raises(DataError, match="^duplicate individual id 'a'$"):
            Dataset(self.schema(), rows)

    def test_missing_attribute(self):
        rows = [
            Individual("w1", {"City": "NY", "Rating": 0.5}),
            Individual("w2", {"City": "SF"}),
        ]
        with pytest.raises(DataError, match="^individual 'w2' is missing attribute 'Rating'$"):
            Dataset(self.schema(), rows)
        with pytest.raises(DataError, match="^individual 'w1' is missing attribute 'Rating'$"):
            Dataset.from_columns(self.schema(), {"City": ["NY"]})

    def test_invalid_values(self):
        coded = [
            Individual("w1", {"City": "NY", "Rating": 0.5}),
            Individual("w2", {"City": "Paris", "Rating": 0.6}),
        ]
        with pytest.raises(
            DataError, match="^individual 'w2' has invalid value 'Paris' for attribute 'City'$"
        ):
            Dataset(self.schema(), coded)
        numeric = [
            Individual("w1", {"City": "NY", "Rating": 0.5}),
            Individual("w2", {"City": "SF", "Rating": 1.5}),
        ]
        with pytest.raises(
            DataError, match="^individual 'w2' has invalid value 1.5 for attribute 'Rating'$"
        ):
            Dataset(self.schema(), numeric)
