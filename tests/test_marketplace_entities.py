"""Tests for repro.marketplace.entities (Job, Marketplace)."""

import pytest

from repro.data.filters import Equals
from repro.errors import MarketplaceError
from repro.marketplace.entities import Job, Marketplace
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import OpaqueScoringFunction


@pytest.fixture
def writing_job():
    return Job(
        title="Content writing",
        function=LinearScoringFunction({"Language Test": 0.7, "Rating": 0.3},
                                       name="Content writing"),
        description="write articles in English",
    )


@pytest.fixture
def marketplace(small_population, writing_job):
    market = Marketplace(name="test-market", workers=small_population)
    market.add_job(writing_job)
    return market


class TestJob:
    def test_candidates_default_everyone(self, small_population, writing_job):
        assert len(writing_job.candidates(small_population)) == len(small_population)

    def test_candidates_filtered(self, small_population):
        job = Job(
            title="English-only",
            function=LinearScoringFunction({"Rating": 1.0}, name="English-only"),
            candidate_filter=Equals("Language", "English"),
        )
        candidates = job.candidates(small_population)
        assert 0 < len(candidates) < len(small_population)
        assert all(record["Language"] == "English" for record in candidates.to_records())

    def test_candidates_empty_filter_raises(self, small_population):
        job = Job(
            title="impossible",
            function=LinearScoringFunction({"Rating": 1.0}, name="impossible"),
            candidate_filter=Equals("Language", "Klingon"),
        )
        with pytest.raises(MarketplaceError):
            job.candidates(small_population)

    def test_ranking_best_first(self, small_population, writing_job):
        ranking = writing_job.ranking(small_population)
        assert len(ranking) == len(small_population)
        scores = list(ranking.scores)
        assert scores == sorted(scores, reverse=True)

    def test_opaque_job_ranking(self, small_population):
        hidden = LinearScoringFunction({"Rating": 1.0}, name="hidden")
        job = Job(title="opaque-job", function=OpaqueScoringFunction(hidden, name="opaque-job"))
        assert not job.is_transparent
        ranking = job.ranking(small_population)
        assert ranking.uids == hidden.rank(small_population).uids

    def test_describe(self, writing_job):
        text = writing_job.describe()
        assert "Content writing" in text
        assert "write articles" in text


class TestMarketplace:
    def test_add_and_lookup_job(self, marketplace, writing_job):
        assert marketplace.job("Content writing") is writing_job
        assert "Content writing" in marketplace
        assert len(marketplace) == 1

    def test_duplicate_job_title_rejected(self, marketplace, writing_job):
        with pytest.raises(MarketplaceError):
            marketplace.add_job(writing_job)
        marketplace.add_job(writing_job, replace=True)  # replace allowed

    def test_unknown_job_lists_available(self, marketplace):
        with pytest.raises(MarketplaceError) as excinfo:
            marketplace.job("ghost")
        assert "Content writing" in str(excinfo.value)

    def test_job_function_validated_against_schema(self, small_population):
        market = Marketplace(name="m", workers=small_population)
        bad = Job(title="bad", function=LinearScoringFunction({"NotAColumn": 1.0}, name="bad"))
        with pytest.raises(Exception):
            market.add_job(bad)

    def test_workers_must_be_dataset(self):
        with pytest.raises(MarketplaceError):
            Marketplace(name="m", workers=[1, 2, 3])

    def test_job_ranking_and_candidates(self, marketplace):
        job = marketplace.job("Content writing")
        ranking = job.ranking(marketplace.workers)
        candidates = job.candidates(marketplace.workers)
        assert len(ranking) == len(candidates)

    def test_summary_and_describe(self, marketplace):
        summary = marketplace.summary()
        assert summary["marketplace"] == "test-market"
        assert summary["jobs"] == 1
        assert "Content writing" in marketplace.describe()

    def test_iteration(self, marketplace):
        assert [job.title for job in marketplace] == ["Content writing"]
        assert marketplace.job_titles == ("Content writing",)
