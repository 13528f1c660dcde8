"""Tests for repro.anonymize.kanonymity (the ARX substitute)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymize.hierarchy import SUPPRESSED, CategoricalHierarchy
from repro.anonymize.kanonymity import (
    GlobalRecodingAnonymizer,
    MondrianAnonymizer,
    default_hierarchies,
    equivalence_classes,
    is_k_anonymous,
)
from repro.data.dataset import Dataset
from repro.data.filters import TrueFilter
from repro.data.schema import Schema, observed, protected
from repro.errors import AnonymizationError
from repro.marketplace.generator import CrowdsourcingGenerator

QI = ["Gender", "Country", "Language", "Ethnicity"]


@pytest.fixture(scope="module")
def population():
    return CrowdsourcingGenerator(seed=17).generate(120, name="anon-pop")


class TestEquivalenceClasses:
    def test_class_sizes_sum_to_population(self, population):
        classes = equivalence_classes(population, QI)
        assert sum(classes.values()) == len(population)

    def test_is_k_anonymous_trivial_cases(self, population):
        assert is_k_anonymous(population, QI, 1)
        empty = population.filter(~TrueFilter())
        assert is_k_anonymous(empty, QI, 10)

    def test_raw_population_is_not_strongly_anonymous(self, population):
        # With four quasi-identifiers, some combination is almost surely rare.
        assert not is_k_anonymous(population, QI, 20)


class TestGlobalRecoding:
    def test_k1_returns_data_unchanged(self, population):
        result = GlobalRecodingAnonymizer().anonymize(population, k=1, quasi_identifiers=QI)
        assert result.dataset is population
        assert all(level == 0 for level in result.levels.values())

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_result_is_k_anonymous(self, population, k):
        result = GlobalRecodingAnonymizer().anonymize(population, k=k, quasi_identifiers=QI)
        assert is_k_anonymous(result.dataset, QI, k)
        assert result.k == k

    def test_observed_attributes_untouched(self, population):
        result = GlobalRecodingAnonymizer().anonymize(population, k=5, quasi_identifiers=QI)
        kept = {record["uid"]: record for record in result.dataset.to_records()}
        for record in population.to_records():
            if record["uid"] in kept:
                assert kept[record["uid"]]["Rating"] == record["Rating"]
                assert kept[record["uid"]]["Language Test"] == record["Language Test"]

    def test_suppression_bounded(self, population):
        anonymizer = GlobalRecodingAnonymizer(max_suppression_rate=0.05)
        result = anonymizer.anonymize(population, k=5, quasi_identifiers=QI)
        assert result.suppression_rate <= 0.05 + 1e-9

    def test_levels_increase_with_k(self, population):
        anonymizer = GlobalRecodingAnonymizer()
        low = anonymizer.anonymize(population, k=2, quasi_identifiers=QI)
        high = anonymizer.anonymize(population, k=20, quasi_identifiers=QI)
        assert sum(high.levels.values()) >= sum(low.levels.values())

    def test_custom_hierarchy_is_used(self, population):
        hierarchy = CategoricalHierarchy(
            attribute="Country",
            ladders={"America": ("Western",), "Other": ("Western",), "India": ("Asian",)},
        )
        anonymizer = GlobalRecodingAnonymizer(hierarchies={"Country": hierarchy})
        result = anonymizer.anonymize(population, k=30, quasi_identifiers=["Country", "Gender"])
        values = {record["Country"] for record in result.dataset.to_records()}
        assert values <= {"America", "India", "Other", "Western", "Asian", SUPPRESSED}

    def test_invalid_parameters(self, population):
        with pytest.raises(AnonymizationError):
            GlobalRecodingAnonymizer(max_suppression_rate=2.0)
        with pytest.raises(AnonymizationError):
            GlobalRecodingAnonymizer().anonymize(population, k=0)

    def test_impossible_k_raises(self):
        schema = Schema((protected("G", domain=("a", "b")), observed("S")))
        rows = [{"G": "a", "S": 0.5}, {"G": "b", "S": 0.6}, {"G": "a", "S": 0.7}]
        tiny = Dataset.from_records(schema, rows)
        with pytest.raises(AnonymizationError):
            GlobalRecodingAnonymizer(max_suppression_rate=0.0).anonymize(tiny, k=5)

    def test_summary(self, population):
        result = GlobalRecodingAnonymizer().anonymize(population, k=5, quasi_identifiers=QI)
        summary = result.summary()
        assert summary["k"] == 5
        assert summary["method"] == "global-recoding"
        assert summary["size"] == len(result.dataset)


class TestMondrian:
    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_result_is_k_anonymous(self, population, k):
        result = MondrianAnonymizer().anonymize(population, k=k, quasi_identifiers=QI)
        assert is_k_anonymous(result.dataset, QI, k)

    def test_no_records_dropped(self, population):
        result = MondrianAnonymizer().anonymize(population, k=5, quasi_identifiers=QI)
        assert len(result.dataset) == len(population)
        assert result.suppressed_uids == ()

    def test_row_order_preserved(self, population):
        result = MondrianAnonymizer().anonymize(population, k=5, quasi_identifiers=QI)
        assert result.dataset.uids == population.uids

    def test_numeric_quasi_identifier_becomes_interval(self, population):
        result = MondrianAnonymizer().anonymize(
            population, k=10, quasi_identifiers=["Year of Birth", "Gender"]
        )
        values = {record["Year of Birth"] for record in result.dataset.to_records()}
        assert any(isinstance(v, str) and v.startswith("[") for v in values)

    def test_dataset_smaller_than_k_rejected(self):
        schema = Schema((protected("G", domain=("a", "b")), observed("S")))
        rows = [{"G": "a", "S": 0.5}, {"G": "b", "S": 0.6}]
        tiny = Dataset.from_records(schema, rows)
        with pytest.raises(AnonymizationError):
            MondrianAnonymizer().anonymize(tiny, k=5)

    def test_empty_dataset_gives_an_empty_result(self):
        schema = Schema((protected("G", domain=("a", "b")), observed("S")))
        empty = Dataset.from_records(schema, [], name="none")
        result = MondrianAnonymizer().anonymize(empty, k=5)
        assert len(result.dataset) == 0
        assert result.dataset.name == "none/mondrian-k=5"
        assert result.dataset.schema.attribute("G").domain is None

    def test_mondrian_preserves_more_classes_than_global(self, population):
        k = 5
        global_result = GlobalRecodingAnonymizer().anonymize(population, k=k, quasi_identifiers=QI)
        mondrian_result = MondrianAnonymizer().anonymize(population, k=k, quasi_identifiers=QI)
        global_classes = len(equivalence_classes(global_result.dataset, QI))
        mondrian_classes = len(equivalence_classes(mondrian_result.dataset, QI))
        assert mondrian_classes >= global_classes


class TestDefaultHierarchies:
    def test_numeric_attributes_get_interval_hierarchies(self, population):
        hierarchies = default_hierarchies(population, ["Year of Birth", "Gender"])
        assert hierarchies["Year of Birth"].height > 1
        assert hierarchies["Gender"].height == 1

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_global_recoding_always_k_anonymous(self, k):
        population = CrowdsourcingGenerator(seed=23).generate(60, name="hyp-pop")
        result = GlobalRecodingAnonymizer().anonymize(
            population, k=k, quasi_identifiers=["Gender", "Country", "Language"]
        )
        assert is_k_anonymous(result.dataset, ["Gender", "Country", "Language"], k)
