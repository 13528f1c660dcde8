"""Property-based tests on the core invariants (hypothesis).

These generate random small populations and scoring weights and check the
invariants the rest of the library relies on:

* every partitioning produced by QUANTIFY is full and disjoint;
* unfairness is non-negative and invariant under partition reordering;
* the greedy result never exceeds the exhaustive optimum (for the
  maximisation objective on small instances);
* rank-derived scores preserve the ordering induced by the true function.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.exhaustive import exhaustive_search
from repro.core.formulations import Formulation, Objective
from repro.core.partition import Partitioning
from repro.core.quantify import quantify
from repro.core.unfairness import unfairness
from repro.data.dataset import Dataset
from repro.data.schema import Schema, observed, protected
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import RankDerivedScorer

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_populations(draw):
    """Random populations with 2 binary/ternary protected attributes and 2 skills."""
    size = draw(st.integers(min_value=4, max_value=40))
    gender_domain = ("F", "M")
    region_domain = ("north", "south", "centre")
    schema = Schema((
        protected("Gender", domain=gender_domain),
        protected("Region", domain=region_domain),
        observed("Skill"),
        observed("Rating"),
    ))
    rows = []
    for _ in range(size):
        rows.append({
            "Gender": draw(st.sampled_from(gender_domain)),
            "Region": draw(st.sampled_from(region_domain)),
            "Skill": draw(st.floats(min_value=0.0, max_value=1.0)),
            "Rating": draw(st.floats(min_value=0.0, max_value=1.0)),
        })
    return Dataset.from_records(schema, rows, name="hyp-pop")


@st.composite
def weight_pairs(draw):
    skill = draw(st.floats(min_value=0.05, max_value=1.0))
    rating = draw(st.floats(min_value=0.05, max_value=1.0))
    return {"Skill": skill, "Rating": rating}


class TestQuantifyInvariants:
    @given(small_populations(), weight_pairs())
    @SETTINGS
    def test_partitioning_is_full_and_disjoint(self, dataset, weights):
        function = LinearScoringFunction(weights)
        result = quantify(dataset, function)
        covered = [uid for partition in result.partitioning for uid in partition.uids]
        assert sorted(covered) == sorted(dataset.uids)
        assert len(covered) == len(set(covered))

    @given(small_populations(), weight_pairs())
    @SETTINGS
    def test_unfairness_is_nonnegative_and_consistent(self, dataset, weights):
        function = LinearScoringFunction(weights)
        result = quantify(dataset, function)
        assert result.unfairness >= 0.0
        assert result.unfairness == pytest.approx(
            unfairness(result.partitioning, function, result.formulation)
        )

    @given(small_populations(), weight_pairs())
    @SETTINGS
    def test_greedy_never_exceeds_exhaustive_optimum(self, dataset, weights):
        function = LinearScoringFunction(weights)
        greedy = quantify(dataset, function)
        exact = exhaustive_search(dataset, function, limit=50_000)
        assert greedy.unfairness <= exact.unfairness + 1e-9

    @given(small_populations(), weight_pairs())
    @SETTINGS
    def test_least_unfair_never_exceeds_most_unfair(self, dataset, weights):
        function = LinearScoringFunction(weights)
        most = quantify(dataset, function)
        least = quantify(
            dataset, function, formulation=Formulation(objective=Objective.LEAST_UNFAIR)
        )
        assert least.unfairness <= most.unfairness + 1e-9


class TestUnfairnessInvariants:
    @given(small_populations(), weight_pairs())
    @SETTINGS
    def test_invariant_under_partition_reordering(self, dataset, weights):
        function = LinearScoringFunction(weights)
        partitioning = Partitioning.by_attributes(dataset, ["Gender", "Region"])
        reordered = Partitioning(dataset, tuple(reversed(partitioning.partitions)))
        assert unfairness(partitioning, function) == pytest.approx(
            unfairness(reordered, function)
        )

    @given(small_populations())
    @SETTINGS
    def test_constant_scores_give_zero_unfairness(self, dataset):
        constant = dataset.map_column("Skill", lambda _: 0.5)
        function = LinearScoringFunction({"Skill": 1.0})
        partitioning = Partitioning.by_attributes(constant, ["Gender"])
        if len(partitioning) > 1:
            assert unfairness(partitioning, function) == pytest.approx(0.0)

    @given(small_populations(), weight_pairs())
    @SETTINGS
    def test_scaling_all_scores_identically_preserves_zero(self, dataset, weights):
        """If all groups share the same score distribution the unfairness is 0."""
        function = LinearScoringFunction(weights)
        single = Partitioning.single(dataset)
        assert unfairness(single, function) == 0.0


class TestRankDerivedInvariants:
    @given(small_populations(), weight_pairs())
    @SETTINGS
    def test_rank_scores_are_monotone_in_true_scores(self, dataset, weights):
        function = LinearScoringFunction(weights)
        ranking = function.rank(dataset)
        scorer = RankDerivedScorer(ranking)
        uids = list(dataset.uids)
        true_scores = dict(zip(uids, function.score_dataset(dataset)))
        derived = dict(zip(uids, scorer.score_dataset(dataset)))
        for first in uids:
            for second in uids:
                if true_scores[first] > true_scores[second] + 1e-12:
                    assert derived[first] >= derived[second] - 1e-12

    @given(small_populations(), weight_pairs())
    @SETTINGS
    def test_rank_scores_span_unit_interval(self, dataset, weights):
        function = LinearScoringFunction(weights)
        scorer = RankDerivedScorer(function.rank(dataset))
        values = scorer.score_dataset(dataset)
        assert values.min() >= 0.0 and values.max() <= 1.0
        if len(dataset) > 1:
            assert values.max() == pytest.approx(1.0)
            assert values.min() == pytest.approx(0.0)
