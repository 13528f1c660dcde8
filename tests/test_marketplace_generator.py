"""Tests for repro.marketplace.generator and repro.marketplace.bias."""

import numpy as np
import pytest

from repro.errors import MarketplaceError
from repro.marketplace.bias import BiasSpec, apply_bias
from repro.marketplace.generator import (
    CrowdsourcingGenerator,
    PopulationSpec,
    default_population_spec,
)


class TestPopulationSpec:
    def test_default_spec_matches_table1_attributes(self):
        spec = default_population_spec()
        schema = spec.schema()
        assert set(schema.protected_names) >= {"Gender", "Country", "Language", "Ethnicity"}
        assert set(schema.observed_names) == {"Language Test", "Rating"}

    def test_spec_validation(self):
        with pytest.raises(MarketplaceError):
            PopulationSpec(protected_distributions={}, skills=("S",))
        with pytest.raises(MarketplaceError):
            PopulationSpec(protected_distributions={"G": {"a": 1.0}}, skills=())
        with pytest.raises(MarketplaceError):
            PopulationSpec(protected_distributions={"G": {"a": -1.0}}, skills=("S",))
        with pytest.raises(MarketplaceError):
            PopulationSpec(protected_distributions={"G": {}}, skills=("S",))


class TestGenerator:
    def test_generates_requested_size(self):
        population = CrowdsourcingGenerator(seed=1).generate(57)
        assert len(population) == 57
        assert population.uids[0] == "w1"

    def test_deterministic_for_same_seed(self):
        first = CrowdsourcingGenerator(seed=5).generate(40)
        second = CrowdsourcingGenerator(seed=5).generate(40)
        assert first.to_records() == second.to_records()

    def test_different_seeds_differ(self):
        first = CrowdsourcingGenerator(seed=5).generate(40)
        second = CrowdsourcingGenerator(seed=6).generate(40)
        assert first.to_records() != second.to_records()

    def test_skills_in_unit_interval(self):
        population = CrowdsourcingGenerator(seed=2).generate(100)
        for skill in ("Language Test", "Rating"):
            column = population.numeric_column(skill)
            assert column.min() >= 0.0 and column.max() <= 1.0

    def test_protected_values_respect_domains(self):
        population = CrowdsourcingGenerator(seed=3).generate(100)
        spec = default_population_spec()
        for attribute, distribution in spec.protected_distributions.items():
            assert set(population.distinct_values(attribute)) <= set(distribution)

    def test_invalid_size(self):
        with pytest.raises(MarketplaceError):
            CrowdsourcingGenerator().generate(0)

    def test_intersectional_bias_helper(self):
        generator = CrowdsourcingGenerator(seed=4)
        dataset, spec = generator.generate_with_intersectional_bias(
            300, subgroup={"Gender": "Female", "Ethnicity": "Indian"}, penalty=-0.3
        )
        assert spec.condition_attributes == ("Ethnicity", "Gender")
        matching = dataset.filter(spec.subgroup)
        rest = dataset.filter(~spec.subgroup)
        assert matching.numeric_column("Rating").mean() < rest.numeric_column("Rating").mean()


class TestBiasSpec:
    def test_requires_conditions_and_shifts(self):
        with pytest.raises(MarketplaceError):
            BiasSpec(conditions={}, shifts={"Rating": -0.1})
        with pytest.raises(MarketplaceError):
            BiasSpec(conditions={"Gender": "F"}, shifts={})

    def test_subgroup(self):
        spec = BiasSpec({"Gender": "Female", "Country": "India"}, {"Rating": -0.1})
        from repro.data.dataset import Dataset
        from repro.data.schema import Schema, observed, protected

        schema = Schema((protected("Gender"), protected("Country"), observed("Rating")))
        dataset = Dataset.from_records(schema, [
            {"Gender": "Female", "Country": "India", "Rating": 0.5},
            {"Gender": "Female", "Country": "USA", "Rating": 0.5},
        ])
        assert spec.subgroup.mask(dataset).tolist() == [True, False]

    def test_default_name_and_describe(self):
        spec = BiasSpec({"Gender": "F"}, {"Rating": -0.2})
        assert "Gender=F" in spec.name
        assert "-0.20" in spec.describe()


class TestApplyBias:
    def test_shift_applied_only_to_matching_individuals(self, small_population):
        spec = BiasSpec({"Gender": "Female"}, {"Rating": -0.2})
        biased = apply_bias(small_population, [spec])
        for before, after in zip(small_population.to_records(), biased.to_records()):
            if before["Gender"] == "Female":
                expected = max(0.0, float(before["Rating"]) - 0.2)
                assert after["Rating"] == pytest.approx(expected)
            else:
                assert after["Rating"] == before["Rating"]

    def test_values_clamped_to_unit_interval(self, small_population):
        spec = BiasSpec({"Gender": "Male"}, {"Rating": +5.0})
        biased = apply_bias(small_population, [spec])
        assert biased.numeric_column("Rating").max() <= 1.0

    def test_multiple_specs_accumulate(self, small_population):
        specs = [
            BiasSpec({"Gender": "Female"}, {"Rating": -0.1}),
            BiasSpec({"Country": "India"}, {"Rating": -0.1}),
        ]
        biased = apply_bias(small_population, specs)
        for before, after in zip(small_population.to_records(), biased.to_records()):
            if before["Gender"] == "Female" and before["Country"] == "India":
                expected = max(0.0, float(before["Rating"]) - 0.2)
                assert after["Rating"] == pytest.approx(expected)

    def test_unknown_condition_attribute_rejected(self, small_population):
        with pytest.raises(MarketplaceError):
            apply_bias(small_population, [BiasSpec({"Ghost": "x"}, {"Rating": -0.1})])

    def test_shift_on_protected_attribute_rejected(self, small_population):
        with pytest.raises(MarketplaceError):
            apply_bias(small_population, [BiasSpec({"Gender": "Female"}, {"Gender": -0.1})])

    def test_original_dataset_unchanged(self, small_population):
        before = small_population.numeric_column("Rating").copy()
        apply_bias(small_population, [BiasSpec({"Gender": "Female"}, {"Rating": -0.5})])
        assert np.allclose(small_population.numeric_column("Rating"), before)
