"""Tests for repro.data.filters."""

import pytest

from repro.data.dataset import Dataset
from repro.data.filters import And, Between, Equals, OneOf, Or, TrueFilter
from repro.data.schema import Schema, observed, protected
from repro.errors import UnknownAttributeError


@pytest.fixture
def dataset():
    schema = Schema((
        protected("Gender", domain=("F", "M")),
        protected("City", domain=("NY", "SF")),
        protected("Age"),
        observed("Rating"),
    ))
    rows = [
        {"Gender": "F", "City": "NY", "Age": 29, "Rating": 0.8},
        {"Gender": "M", "City": "NY", "Age": 41, "Rating": 0.5},
        {"Gender": "F", "City": "SF", "Age": 35, "Rating": 0.6},
        {"Gender": "M", "City": "SF", "Age": 23, "Rating": 0.3},
    ]
    return Dataset.from_records(schema, rows, name="filter-test")


def selected(row_filter, dataset):
    """The positions of the rows ``row_filter``'s mask selects."""
    return [position for position, hit in enumerate(row_filter.mask(dataset)) if hit]


class TestAtomicFilters:
    def test_true_filter_selects_everything(self, dataset):
        assert selected(TrueFilter(), dataset) == [0, 1, 2, 3]
        assert TrueFilter().describe() == "all individuals"

    def test_equals(self, dataset):
        assert selected(Equals("Gender", "F"), dataset) == [0, 2]
        assert selected(Equals("Gender", "X"), dataset) == []
        assert "Gender" in Equals("Gender", "F").describe()

    def test_equals_on_a_float_column(self, dataset):
        assert selected(Equals("Rating", 0.5), dataset) == [1]
        assert selected(Equals("Rating", "0.5"), dataset) == []

    def test_unknown_attribute_raises(self, dataset):
        with pytest.raises(UnknownAttributeError):
            Equals("Missing", None).mask(dataset)

    def test_one_of(self, dataset):
        assert selected(OneOf("City", ["NY", "SF"]), dataset) == [0, 1, 2, 3]
        assert selected(OneOf("City", ["LA"]), dataset) == []
        assert selected(OneOf("Rating", [0.3, 0.8]), dataset) == [0, 3]

    def test_between(self, dataset):
        assert selected(Between("Age", 18, 30), dataset) == [0, 3]
        assert selected(Between("Age", 30, 40), dataset) == [2]
        assert selected(Between("Gender", 0, 1), dataset) == []  # non-numeric values
        assert selected(Between("Rating", 0.5, 0.6), dataset) == [1, 2]

    def test_between_describe(self):
        assert Between("Age", 18, 30).describe() == "18 <= Age <= 30"


class TestCombinators:
    def test_and(self, dataset):
        assert selected(Equals("Gender", "F") & Equals("City", "NY"), dataset) == [0]
        assert selected(Equals("Gender", "F") & Equals("City", "LA"), dataset) == []

    def test_or(self, dataset):
        assert selected(Equals("City", "LA") | Equals("Gender", "F"), dataset) == [0, 2]
        assert selected(Equals("City", "LA") | Equals("Gender", "X"), dataset) == []

    def test_not(self, dataset):
        assert selected(~Equals("Gender", "M"), dataset) == [0, 2]
        assert selected(~TrueFilter(), dataset) == []

    def test_nested_describe_mentions_all_parts(self):
        combined = (Equals("Gender", "F") & Between("Age", 18, 30)) | Equals("City", "LA")
        text = combined.describe()
        assert "Gender" in text and "Age" in text and "City" in text

    def test_empty_and_selects_everything(self, dataset):
        assert selected(And(()), dataset) == [0, 1, 2, 3]
        assert And(()).describe() == "all individuals"

    def test_empty_or_selects_nothing(self, dataset):
        assert selected(Or(()), dataset) == []

    def test_combinator_equality(self):
        a = Equals("Gender", "F") & Equals("City", "NY")
        b = Equals("Gender", "F") & Equals("City", "NY")
        assert a == b
        assert hash(a) == hash(b)


class TestDatasetFilter:
    def test_returns_matching_rows(self, dataset):
        result = dataset.filter(Equals("Gender", "F"))
        assert len(result) == 2
        assert all(record["Gender"] == "F" for record in result.to_records())

    def test_records_description_in_name(self, dataset):
        assert dataset.filter(Equals("City", "NY")).name == "filter-test[City = 'NY']"
        assert dataset.filter(Equals("City", "NY"), name="ny").name == "ny"

    def test_unknown_attribute_raises(self, dataset):
        with pytest.raises(UnknownAttributeError):
            dataset.filter(Equals("Nope", "x"))

    def test_nested_unknown_attribute_raises(self, dataset):
        with pytest.raises(UnknownAttributeError):
            dataset.filter(Equals("Gender", "F") & Equals("Ghost", 1))
        with pytest.raises(UnknownAttributeError):
            dataset.filter(Or((Equals("Gender", "F"), ~Between("Ghost", 0, 1))))

    def test_composed(self, dataset):
        young_women = dataset.filter(Equals("Gender", "F") & Between("Age", 18, 32))
        assert young_women.uids == ("w1",)

    def test_true_filter_keeps_everything(self, dataset):
        assert len(dataset.filter(TrueFilter())) == len(dataset)

    def test_filter_of_a_view_maps_to_the_root(self, dataset):
        women = dataset.filter(Equals("Gender", "F"))
        in_sf = women.filter(Equals("City", "SF"))
        assert in_sf.uids == ("w3",)
        assert in_sf.indices_in(dataset).tolist() == [2]

    def test_a_predicate_is_not_a_filter(self, dataset):
        with pytest.raises(AttributeError):
            dataset.filter(lambda row: True)
