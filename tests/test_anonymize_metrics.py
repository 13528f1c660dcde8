"""Tests for repro.anonymize.metrics (information loss)."""

import pytest

from repro.anonymize.kanonymity import (
    GlobalRecodingAnonymizer,
    MondrianAnonymizer,
    default_hierarchies,
)
from repro.anonymize.metrics import (
    average_class_size_ratio,
    discernibility,
    information_loss,
)
from repro.data.filters import TrueFilter
from repro.errors import AnonymizationError
from repro.marketplace.generator import CrowdsourcingGenerator

QI = ["Gender", "Country", "Language", "Ethnicity"]


@pytest.fixture(scope="module")
def population():
    return CrowdsourcingGenerator(seed=31).generate(150, name="loss-pop")


class TestDiscernibility:
    def test_fully_distinct_records_have_minimal_discernibility(self, population):
        # Treat the uid-like combination of all QIs: discernibility >= n always.
        value = discernibility(population, QI)
        assert value >= len(population)

    def test_single_class_has_quadratic_discernibility(self, population):
        suppressed = population
        for attribute in QI:
            suppressed = suppressed.map_column(attribute, lambda _: "*")
        assert discernibility(suppressed, QI) == len(population) ** 2

    def test_generalisation_increases_discernibility(self, population):
        raw = discernibility(population, QI)
        result = GlobalRecodingAnonymizer().anonymize(population, k=10, quasi_identifiers=QI)
        assert discernibility(result.dataset, QI) >= raw


class TestAverageClassSizeRatio:
    def test_value_at_least_one_when_k_anonymous(self, population):
        result = GlobalRecodingAnonymizer().anonymize(population, k=5, quasi_identifiers=QI)
        assert average_class_size_ratio(result.dataset, QI, 5) >= 1.0

    def test_empty_dataset(self, population):
        empty = population.filter(~TrueFilter())
        assert average_class_size_ratio(empty, QI, 5) == 0.0

    def test_invalid_k(self, population):
        with pytest.raises(AnonymizationError):
            average_class_size_ratio(population, QI, 0)


class TestInformationLoss:
    def test_raw_data_has_zero_intensity(self, population):
        result = GlobalRecodingAnonymizer().anonymize(population, k=1, quasi_identifiers=QI)
        loss = information_loss(result)
        assert loss.generalization_intensity == 0.0
        assert loss.suppression_rate == 0.0

    def test_intensity_grows_with_k(self, population):
        anonymizer = GlobalRecodingAnonymizer()
        hierarchies = default_hierarchies(population, QI)
        low = information_loss(
            anonymizer.anonymize(population, k=2, quasi_identifiers=QI), hierarchies
        )
        high = information_loss(
            anonymizer.anonymize(population, k=25, quasi_identifiers=QI), hierarchies
        )
        assert high.generalization_intensity >= low.generalization_intensity

    def test_intensity_bounded_by_one(self, population):
        hierarchies = default_hierarchies(population, QI)
        result = GlobalRecodingAnonymizer().anonymize(population, k=30, quasi_identifiers=QI)
        loss = information_loss(result, hierarchies)
        assert 0.0 <= loss.generalization_intensity <= 1.0

    def test_mondrian_loss_uses_cell_counting(self, population):
        result = MondrianAnonymizer().anonymize(population, k=5, quasi_identifiers=QI)
        loss = information_loss(result)
        assert 0.0 <= loss.generalization_intensity <= 1.0
        assert loss.suppression_rate == 0.0

    def test_as_dict(self, population):
        result = GlobalRecodingAnonymizer().anonymize(population, k=5, quasi_identifiers=QI)
        data = information_loss(result).as_dict()
        assert set(data) == {
            "generalization_intensity",
            "discernibility",
            "average_class_size_ratio",
            "suppression_rate",
        }
