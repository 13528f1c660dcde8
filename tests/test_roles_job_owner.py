"""Tests for the JOB OWNER role workflow."""

import pytest

from repro.errors import MarketplaceError, ScoringError
from repro.marketplace.entities import Job, Marketplace
from repro.roles.job_owner import JobOwner
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import OpaqueScoringFunction


@pytest.fixture(scope="module")
def owner_report(request):
    marketplace = request.getfixturevalue("crowdsourcing_marketplace_fixture")
    owner = JobOwner(min_partition_size=2)
    return owner.explore_job(marketplace, "Content writing", sweep_steps=4)


class TestCompareVariants:
    def test_base_function_included(self, owner_report):
        names = [evaluation.name for evaluation in owner_report.evaluations]
        assert "Content writing" in names
        assert len(names) > 1

    def test_variant_names_are_numbered(self, owner_report):
        numbered = [name for name in
                    (e.name for e in owner_report.evaluations) if "#" in name]
        assert numbered
        assert all(name.startswith("Content writing#") for name in numbered)

    def test_fairest_is_minimum_unfairness(self, owner_report):
        values = [e.unfairness for e in owner_report.evaluations]
        assert owner_report.fairest.unfairness == min(values)
        assert owner_report.most_unfair.unfairness == max(values)

    def test_table_sorted_by_unfairness_and_mentions_recommendation(self, owner_report):
        table = owner_report.to_table()
        values = table.column("unfairness")
        assert values == sorted(values)
        assert any("recommended" in note for note in table.notes)
        assert owner_report.fairest.name in owner_report.render()

    def test_weight_variation_changes_unfairness(self, owner_report):
        values = {round(e.unfairness, 6) for e in owner_report.evaluations}
        assert len(values) > 1


class TestJobOwnerConfiguration:
    def test_explicit_overrides(self, small_population):
        owner = JobOwner(min_partition_size=2)
        base = LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="base")
        report = owner.compare_variants(
            small_population, base,
            overrides=[{"Language Test": 1.0, "Rating": 0.0},
                       {"Language Test": 0.0, "Rating": 1.0}],
        )
        assert len(report.evaluations) == 3

    def test_opaque_job_rejected(self, small_population):
        hidden = LinearScoringFunction({"Rating": 1.0}, name="hidden")
        marketplace = Marketplace(name="m", workers=small_population)
        marketplace.add_job(
            Job(title="opaque", function=OpaqueScoringFunction(hidden, name="opaque"))
        )
        with pytest.raises(MarketplaceError):
            JobOwner().explore_job(marketplace, "opaque")

    def test_non_linear_base_rejected(self, small_population):
        from repro.scoring.base import Ranking
        from repro.scoring.rank import RankDerivedScorer

        scorer = RankDerivedScorer(Ranking(("a", "b"), (1.0, 0.5)))
        with pytest.raises(ScoringError):
            JobOwner().compare_variants(small_population, scorer, overrides=[])

    def test_evaluation_partitions_cover_candidates(self, small_population):
        owner = JobOwner(min_partition_size=2)
        base = LinearScoringFunction({"Language Test": 0.7, "Rating": 0.3}, name="base")
        evaluation = owner.evaluate_function(small_population, base)
        assert sum(evaluation.result.partitioning.sizes) == len(small_population)

    def test_filtered_job_uses_candidates_only(self, crowdsourcing_marketplace_fixture):
        owner = JobOwner(min_partition_size=2)
        report = owner.explore_job(
            crowdsourcing_marketplace_fixture, "English transcription", sweep_steps=3
        )
        candidates = crowdsourcing_marketplace_fixture.job("English transcription").candidates(
            crowdsourcing_marketplace_fixture.workers
        )
        for evaluation in report.evaluations:
            assert sum(evaluation.result.partitioning.sizes) == len(candidates)
