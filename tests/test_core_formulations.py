"""Tests for repro.core.formulations."""

import pytest

from repro.core.formulations import (
    LEAST_UNFAIR_AVG_EMD,
    MOST_UNFAIR_AVG_EMD,
    Aggregation,
    Formulation,
    Objective,
)
from repro.errors import FormulationError
from repro.metrics.histogram import Binning


class TestAggregation:
    def test_average(self):
        assert Aggregation.AVERAGE.apply([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_maximum_minimum(self):
        assert Aggregation.MAXIMUM.apply([1.0, 5.0, 3.0]) == pytest.approx(5.0)
        assert Aggregation.MINIMUM.apply([1.0, 5.0, 3.0]) == pytest.approx(1.0)

    def test_variance(self):
        assert Aggregation.VARIANCE.apply([2.0, 2.0, 2.0]) == pytest.approx(0.0)
        assert Aggregation.VARIANCE.apply([0.0, 2.0]) == pytest.approx(1.0)

    def test_empty_sequence_is_zero(self):
        for aggregation in Aggregation:
            assert aggregation.apply([]) == 0.0


class TestObjective:
    def test_is_maximizing(self):
        assert Objective.MOST_UNFAIR.is_maximizing
        assert not Objective.LEAST_UNFAIR.is_maximizing


class TestFormulation:
    def test_defaults_match_paper(self):
        assert MOST_UNFAIR_AVG_EMD.objective is Objective.MOST_UNFAIR
        assert MOST_UNFAIR_AVG_EMD.aggregation is Aggregation.AVERAGE
        assert MOST_UNFAIR_AVG_EMD.distance.name == "emd"
        assert MOST_UNFAIR_AVG_EMD.bins == 5

    def test_least_unfair_variant(self):
        assert LEAST_UNFAIR_AVG_EMD.objective is Objective.LEAST_UNFAIR

    def test_name_and_describe(self):
        formulation = Formulation()
        assert formulation.name == "most_unfair/average/emd"
        assert "maximise" in formulation.describe()
        assert "minimise" in LEAST_UNFAIR_AVG_EMD.describe()

    def test_effective_binning_default_and_custom(self):
        assert Formulation(bins=7).effective_binning == Binning.unit(7)
        custom = Binning(low=0.0, high=10.0, bins=4)
        assert Formulation(binning=custom).effective_binning == custom

    def test_invalid_bins(self):
        with pytest.raises(FormulationError):
            Formulation(bins=0)

    def test_is_better_for_maximizing(self):
        formulation = Formulation(objective=Objective.MOST_UNFAIR)
        assert formulation.is_better(2.0, 1.0)
        assert not formulation.is_better(1.0, 2.0)
        assert not formulation.is_better(1.0, 1.0)  # strict

    def test_is_better_for_minimizing(self):
        formulation = Formulation(objective=Objective.LEAST_UNFAIR)
        assert formulation.is_better(1.0, 2.0)
        assert not formulation.is_better(2.0, 1.0)

    def test_best(self):
        maximizing = Formulation(objective=Objective.MOST_UNFAIR)
        minimizing = Formulation(objective=Objective.LEAST_UNFAIR)
        values = [0.5, 2.0, 1.0]
        assert maximizing.best(values) == 2.0
        assert minimizing.best(values) == 0.5
        with pytest.raises(FormulationError):
            maximizing.best([])

    def test_aggregate_delegates_to_aggregation(self):
        formulation = Formulation(aggregation=Aggregation.MAXIMUM)
        assert formulation.aggregate([1.0, 3.0]) == 3.0

    def test_from_names(self):
        formulation = Formulation.from_names(
            objective="least_unfair", aggregation="maximum", distance="total_variation", bins=8
        )
        assert formulation.objective is Objective.LEAST_UNFAIR
        assert formulation.aggregation is Aggregation.MAXIMUM
        assert formulation.distance.name == "total_variation"
        assert formulation.bins == 8

    def test_from_names_rejects_unknown_values(self):
        with pytest.raises(FormulationError):
            Formulation.from_names(objective="sideways")
        with pytest.raises(FormulationError):
            Formulation.from_names(aggregation="median")
        with pytest.raises(FormulationError):
            Formulation.from_names(distance="no-such")
