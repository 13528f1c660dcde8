"""Tests for repro.baselines.predefined."""

import pytest

from repro.baselines.predefined import single_attribute_baseline
from repro.core.formulations import Formulation, Objective
from repro.core.partition import Partitioning
from repro.core.quantify import quantify
from repro.core.unfairness import unfairness
from repro.data.dataset import Dataset
from repro.data.schema import Schema, observed, protected
from repro.errors import PartitioningError
from repro.scoring.linear import LinearScoringFunction


class TestSingleAttributeBaseline:
    def test_one_result_per_multivalued_attribute(self, table1_dataset, table1_function):
        results = single_attribute_baseline(
            table1_dataset, table1_function,
            attributes=["Gender", "Country", "Language", "Ethnicity"],
        )
        assert {r.attribute for r in results} == {"Gender", "Country", "Language", "Ethnicity"}

    def test_results_sorted_best_first_for_most_unfair(self, table1_dataset, table1_function):
        results = single_attribute_baseline(
            table1_dataset, table1_function, attributes=["Gender", "Country", "Language"]
        )
        values = [r.unfairness for r in results]
        assert values == sorted(values, reverse=True)

    def test_results_sorted_for_least_unfair(self, table1_dataset, table1_function):
        formulation = Formulation(objective=Objective.LEAST_UNFAIR)
        results = single_attribute_baseline(
            table1_dataset, table1_function, formulation=formulation,
            attributes=["Gender", "Country", "Language"],
        )
        values = [r.unfairness for r in results]
        assert values == sorted(values)

    def test_values_match_flat_partitionings(self, table1_dataset, table1_function):
        results = single_attribute_baseline(
            table1_dataset, table1_function, attributes=["Gender", "Country"]
        )
        for result in results:
            flat = Partitioning.by_attributes(table1_dataset, [result.attribute])
            assert result.unfairness == pytest.approx(unfairness(flat, table1_function))

    def test_constant_attributes_are_skipped(self, table1_function):
        schema = Schema((
            protected("Const", domain=("only",)),
            protected("G", domain=("a", "b")),
            observed("Language Test"),
            observed("Rating"),
        ))
        rows = [
            {"Const": "only", "G": "a", "Language Test": 0.1, "Rating": 0.1},
            {"Const": "only", "G": "b", "Language Test": 0.9, "Rating": 0.9},
        ]
        dataset = Dataset.from_records(schema, rows)
        results = single_attribute_baseline(dataset, table1_function)
        assert {r.attribute for r in results} == {"G"}

    def test_all_constant_attributes_raise(self, table1_function):
        schema = Schema((
            protected("Const", domain=("only",)),
            observed("Language Test"), observed("Rating"),
        ))
        rows = [{"Const": "only", "Language Test": 0.5, "Rating": 0.5}] * 3
        dataset = Dataset.from_records(schema, rows)
        with pytest.raises(PartitioningError):
            single_attribute_baseline(dataset, table1_function)

    def test_summary(self, table1_dataset, table1_function):
        best = single_attribute_baseline(
            table1_dataset, table1_function, attributes=["Gender"]
        )[0]
        summary = best.summary()
        assert summary["attribute"] == "Gender"
        assert summary["unfairness"] == pytest.approx(best.unfairness)


class TestSubgroupAdvantage:
    def test_quantify_measures_at_least_single_attribute_baseline(self):
        """The subgroup search dominates the single-attribute view on planted
        intersectional bias (the paper's positioning claim)."""
        schema = Schema((
            protected("Gender", domain=("F", "M")),
            protected("Age", domain=("young", "old")),
            observed("S"),
        ))
        rows = []
        for _ in range(15):
            rows.append({"Gender": "F", "Age": "old", "S": 0.05})
            rows.append({"Gender": "F", "Age": "young", "S": 0.95})
            rows.append({"Gender": "M", "Age": "old", "S": 0.95})
            rows.append({"Gender": "M", "Age": "young", "S": 0.95})
        dataset = Dataset.from_records(schema, rows)
        function = LinearScoringFunction({"S": 1.0})
        best_single = single_attribute_baseline(dataset, function)[0]
        subgroup = quantify(dataset, function)
        assert subgroup.unfairness > best_single.unfairness

