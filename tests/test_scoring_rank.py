"""Tests for repro.scoring.rank (function-opaque transparency setting)."""

import numpy as np
import pytest

from repro.data.filters import Equals
from repro.errors import ScoringError
from repro.experiments.workloads import synthetic_population
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.base import Ranking
from repro.scoring.rank import OpaqueScoringFunction, RankDerivedScorer


@pytest.fixture
def ranking():
    return Ranking((("a", 0.9), ("b", 0.7), ("c", 0.5), ("d", 0.1)), function_name="hidden")


class TestRankDerivedScorer:
    def test_linear_weighting_spans_unit_interval(self, ranking):
        scorer = RankDerivedScorer(ranking, weighting="linear")
        scores = scorer._scores
        assert scores["a"] == pytest.approx(1.0)
        assert scores["d"] == pytest.approx(0.0)
        assert scores["b"] == pytest.approx(2 / 3)
        assert scores["c"] == pytest.approx(1 / 3)

    def test_exposure_weighting_is_monotone_and_normalised(self, ranking):
        scorer = RankDerivedScorer(ranking, weighting="exposure")
        scores = scorer._scores
        assert scores["a"] == pytest.approx(1.0)
        assert scores["d"] == pytest.approx(0.0)
        assert scores["a"] > scores["b"] > scores["c"] > scores["d"]
        # Exposure decays faster than linear near the top.
        assert scores["b"] < 2 / 3

    def test_exposure_gives_more_top_separation_than_linear(self, ranking):
        linear = RankDerivedScorer(ranking, weighting="linear")._scores
        exposure = RankDerivedScorer(ranking, weighting="exposure")._scores
        top_gap_linear = linear["a"] - linear["b"]
        top_gap_exposure = exposure["a"] - exposure["b"]
        assert top_gap_exposure > top_gap_linear

    def test_single_individual_ranking(self):
        scorer = RankDerivedScorer(Ranking((("only", 0.3),)))
        assert scorer._scores["only"] == pytest.approx(1.0)

    def test_empty_ranking_rejected(self):
        with pytest.raises(ScoringError):
            RankDerivedScorer(Ranking(()))

    def test_unknown_weighting_rejected(self, ranking):
        with pytest.raises(ScoringError):
            RankDerivedScorer(ranking, weighting="quadratic")

    def test_unknown_uid_in_a_dataset_raises(self, ranking, table1_dataset):
        scorer = RankDerivedScorer(ranking)
        with pytest.raises(ScoringError, match="does not appear in the observed ranking"):
            scorer.score_dataset(table1_dataset)

    @pytest.mark.parametrize("weighting", ["linear", "exposure"])
    def test_score_dataset_is_a_uid_lookup_building_no_rows(self, weighting):
        population = synthetic_population(size=300, seed=5)
        function = LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="f")
        scorer = RankDerivedScorer(function.rank(population), weighting=weighting)
        view = population.filter(Equals("Gender", "Female"))
        for dataset in (population, view):
            scores = scorer.score_dataset(dataset)
            expected = [scorer._scores[uid] for uid in dataset.uids]
            assert scores.dtype == np.float64
            assert scores.tolist() == expected

    def test_is_not_transparent(self, ranking):
        assert RankDerivedScorer(ranking).transparent is False

    def test_describe_mentions_weighting(self, ranking):
        assert "linear" in RankDerivedScorer(ranking, weighting="linear").describe()


class TestOpaqueScoringFunction:
    def test_direct_scoring_is_refused(self, table1_dataset, table1_function):
        opaque = OpaqueScoringFunction(table1_function, name="hidden-job")
        with pytest.raises(ScoringError):
            opaque.score_dataset(table1_dataset)

    def test_reveal_ranking_matches_hidden_function(self, table1_dataset, table1_function):
        opaque = OpaqueScoringFunction(table1_function)
        revealed = opaque.reveal_ranking(table1_dataset).uids
        assert revealed == table1_function.rank(table1_dataset).uids

    def test_scorer_from_revealed_ranking_preserves_order(
        self, table1_dataset, table1_function
    ):
        opaque = OpaqueScoringFunction(table1_function)
        scorer = RankDerivedScorer(opaque.reveal_ranking(table1_dataset))
        derived = scorer.rank(table1_dataset)
        assert derived.uids == table1_function.rank(table1_dataset).uids

    def test_rank_derived_scores_monotone_with_true_scores(self, table1_dataset, table1_function):
        opaque = OpaqueScoringFunction(table1_function)
        scorer = RankDerivedScorer(opaque.reveal_ranking(table1_dataset))
        uids = table1_dataset.uids
        true_scores = dict(zip(uids, table1_function.score_dataset(table1_dataset)))
        derived_scores = dict(zip(uids, scorer.score_dataset(table1_dataset)))
        ordered = sorted(table1_dataset.uids, key=lambda uid: -true_scores[uid])
        derived_in_order = [derived_scores[uid] for uid in ordered]
        assert derived_in_order == sorted(derived_in_order, reverse=True)

    def test_is_not_transparent(self, table1_function):
        assert OpaqueScoringFunction(table1_function).transparent is False
