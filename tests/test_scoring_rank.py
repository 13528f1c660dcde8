"""Tests for repro.scoring.rank (function-opaque transparency setting)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset, DatasetView
from repro.data.filters import Equals
from repro.data.schema import Schema, observed
from repro.errors import ScoringError
from repro.experiments.workloads import synthetic_population
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.base import Ranking, rank_by_score
from repro.scoring.rank import OpaqueScoringFunction, RankDerivedScorer
from scoring_reference import reference_rank_fingerprint, reference_rank_scores


@pytest.fixture
def ranking():
    return Ranking(("a", "b", "c", "d"), (0.9, 0.7, 0.5, 0.1), function_name="hidden")


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
        scorer = RankDerivedScorer(Ranking(("only",), (0.3,)))
        assert scorer._scores["only"] == pytest.approx(1.0)

    def test_empty_ranking_rejected(self):
        with pytest.raises(ScoringError):
            RankDerivedScorer(Ranking((), ()))

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


#: Printable uids; one containing NUL must be refused before it is ranked.
UIDS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=1,
    max_size=5,
)
SCORES = st.one_of(
    st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, float("nan"))),
    st.floats(allow_nan=True),
)


def hexes(values):
    return [float(value).hex() for value in values]


class TestRankDerivedMatchesPerPositionOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_scores_lookup_and_fingerprint(self, data):
        uids = data.draw(st.lists(UIDS, unique=True, min_size=1, max_size=300))
        scores = data.draw(st.lists(SCORES, min_size=len(uids), max_size=len(uids)))
        dataset = Dataset.from_records(
            Schema((observed("Skill"),)),
            [{"uid": uid, "Skill": 0.5} for uid in uids],
            uid_field="uid",
        )
        function = LinearScoringFunction({"Skill": 1.0})
        if any("\x00" in uid for uid in uids):
            with pytest.raises(ScoringError, match="NUL"):
                rank_by_score(dataset, function, scores)
            with pytest.raises(ScoringError, match="NUL"):
                Ranking(uids, scores)
            return
        ranking = rank_by_score(dataset, function, scores)
        positions = data.draw(st.lists(
            st.integers(0, len(uids) - 1), unique=True, max_size=len(uids)
        ))
        view = DatasetView(dataset, np.array(sorted(positions), dtype=np.intp), "view")
        foreign = Dataset.from_records(
            Schema((observed("Skill"),)),
            [{"uid": uid, "Skill": 0.5} for uid in uids[:1] + ["\x00absent"]],
            uid_field="uid",
        )
        for weighting in ("linear", "exposure"):
            scorer = RankDerivedScorer(ranking, weighting=weighting)
            oracle = reference_rank_scores(ranking, weighting)
            assert list(scorer._scores) == list(oracle) == list(ranking.uids)
            assert hexes(scorer._scores.values()) == hexes(oracle.values())
            for members in (dataset, view):
                derived = scorer.score_dataset(members)
                assert derived.dtype == np.float64
                assert hexes(derived) == hexes(oracle[uid] for uid in members.uids)
            with pytest.raises(ScoringError, match="does not appear in the observed ranking"):
                scorer.score_dataset(foreign)
            assert scorer.fingerprint() == reference_rank_fingerprint(ranking, weighting)

    def test_fingerprint_bytes_are_pinned(self):
        # A changed tag, separator or uid encoding moves these: request keys,
        # pooled stores and warm bundles of rank-derived functions hash them.
        ranking = Ranking(("w2", "\u00e9", "w10"), (0.9, 0.5, 0.1))
        assert RankDerivedScorer(ranking).fingerprint() == (
            "72099a44a5ac0bd8c42908eab5c3cccd48b5111dc17a540ca00620ccc9ea5624"
        )
        assert RankDerivedScorer(ranking, weighting="exposure").fingerprint() == (
            "82cf4d48528680e7e61c654623c128b87496058eb740633ab048fd4e04b1762f"
        )


class TestRankingArrays:
    def test_scores_are_a_read_only_float_array(self):
        ranking = Ranking(["a", "b"], [1, 0.5])
        assert ranking.uids == ("a", "b")
        assert ranking.scores.dtype == np.float64
        with pytest.raises(ValueError):
            ranking.scores[0] = 0.0

    def test_misaligned_scores_are_rejected(self):
        with pytest.raises(ScoringError, match="one score per individual"):
            Ranking(("a", "b"), (1.0,))

    def test_nul_uid_is_refused_before_it_is_sorted(self):
        # A numpy str array drops trailing NULs: "a\x00" would tie with
        # "a" and keep row order, giving ("a\x00", "a", "b").
        dataset = Dataset.from_records(
            Schema((observed("Skill"),)),
            [{"uid": uid, "Skill": 0.5} for uid in ("b", "a\x00", "a")],
            uid_field="uid",
        )
        with pytest.raises(ScoringError, match="NUL"):
            rank_by_score(dataset, LinearScoringFunction({"Skill": 1.0}))

    def test_nul_uid_is_refused_before_it_is_fingerprinted(self):
        # Joined with NUL and no length prefix, these two orders of the
        # same uids would hash to one rank-derived fingerprint.
        for uids in (("a\x00b", "c", "a", "b\x00c"), ("a", "b\x00c", "a\x00b", "c")):
            with pytest.raises(ScoringError, match="NUL"):
                Ranking(uids, (0.4, 0.3, 0.2, 0.1))


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
