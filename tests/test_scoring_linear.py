"""Tests for repro.scoring.linear and repro.scoring.base."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset
from repro.data.schema import Schema, observed, protected
from repro.errors import DataError, ScoringError
from repro.scoring.base import Ranking, rank_by_score
from repro.scoring.linear import LinearScoringFunction


@pytest.fixture
def schema():
    return Schema((
        protected("Gender", domain=("F", "M")),
        observed("Skill"),
        observed("Rating"),
    ))


@pytest.fixture
def dataset(schema):
    rows = [
        {"Gender": "F", "Skill": 0.9, "Rating": 0.8},
        {"Gender": "M", "Skill": 0.4, "Rating": 0.9},
        {"Gender": "F", "Skill": 0.6, "Rating": 0.2},
        {"Gender": "M", "Skill": 0.1, "Rating": 0.1},
    ]
    return Dataset.from_records(schema, rows, name="scoring-test")


class TestConstruction:
    def test_weights_are_normalised_by_default(self):
        function = LinearScoringFunction({"Skill": 2.0, "Rating": 2.0})
        assert function.weights == {"Skill": 0.5, "Rating": 0.5}

    def test_normalize_false_keeps_raw_weights(self):
        function = LinearScoringFunction({"Skill": 2.0}, normalize=False)
        assert function.weights == {"Skill": 2.0}

    def test_rejects_empty_weights(self):
        with pytest.raises(ScoringError):
            LinearScoringFunction({})

    def test_rejects_negative_weight(self):
        with pytest.raises(ScoringError):
            LinearScoringFunction({"Skill": -0.5})

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ScoringError):
            LinearScoringFunction({"Skill": 0.0})

    def test_rejects_non_finite_weight(self):
        with pytest.raises(ScoringError):
            LinearScoringFunction({"Skill": float("nan")})

    @pytest.mark.parametrize("normalize", [True, False])
    def test_rejects_weights_whose_sum_overflows(self, normalize):
        # Each weight is finite but the sum is not: normalised by it, every
        # weight used to become 0.0 and every individual scored 0.
        with pytest.raises(ScoringError, match="sum is not finite"):
            LinearScoringFunction({"Rating": 1e308, "Skill": 1e308}, normalize=normalize)

    def test_largest_finite_sum_still_normalises(self):
        function = LinearScoringFunction({"Rating": 1e308, "Skill": 1e307})
        assert function.weights["Rating"] > function.weights["Skill"] > 0.0
        assert sum(function.weights.values()) == pytest.approx(1.0)

    def test_uniform_and_single_constructors(self):
        uniform = LinearScoringFunction.uniform(["Skill", "Rating"])
        assert uniform.weights == {"Skill": 0.5, "Rating": 0.5}
        single = LinearScoringFunction.single("Skill")
        assert single.weights == {"Skill": 1.0}
        assert single.name == "only-Skill"
        with pytest.raises(ScoringError):
            LinearScoringFunction.uniform([])


class TestScoring:
    def test_first_row_matches_weighted_sum(self, dataset):
        function = LinearScoringFunction({"Skill": 0.75, "Rating": 0.25})
        expected = 0.75 * 0.9 + 0.25 * 0.8
        assert function.score_dataset(dataset)[0] == pytest.approx(expected)

    def test_score_dataset_is_vectorised_and_consistent(self, dataset):
        function = LinearScoringFunction({"Skill": 0.6, "Rating": 0.4})
        vectorised = function.score_dataset(dataset)
        rowwise = np.asarray([
            sum(weight * record[name] for name, weight in function.weights.items())
            for record in dataset.to_records()
        ])
        assert np.allclose(vectorised, rowwise)

    def test_scores_stay_in_unit_interval(self, dataset):
        function = LinearScoringFunction({"Skill": 1.0, "Rating": 3.0})
        scores = function.score_dataset(dataset)
        assert (scores >= 0.0).all() and (scores <= 1.0).all()

    def test_zero_weight_attribute_is_ignored(self, dataset):
        function = LinearScoringFunction({"Skill": 1.0, "Rating": 0.0})
        assert function.attributes == ("Skill",)
        assert function.score_dataset(dataset).tolist() == pytest.approx(
            dataset.numeric_column("Skill").tolist()
        )

    def test_scores_follow_row_order(self, dataset):
        function = LinearScoringFunction({"Skill": 1.0})
        scores = function.score_dataset(dataset)
        assert len(scores) == len(dataset.uids)
        assert dict(zip(dataset.uids, scores))["w1"] == pytest.approx(0.9)

    def test_non_numeric_value_is_refused_at_ingest(self, schema):
        # A scoring function only ever sees validated numeric columns.
        with pytest.raises(DataError, match="invalid value 'high' for attribute 'Skill'"):
            Dataset.from_records(schema, [{"Gender": "F", "Skill": "high", "Rating": 0.5}])

    @pytest.mark.parametrize("bad", ["high", None])
    def test_unvalidated_non_numeric_value_is_a_data_error(self, schema, bad):
        # validate=False skips the ingest check (snapshot loads use it): the
        # bad value must still surface as DataError naming attribute and value.
        from repro.data.dataset import _build_store

        columns = {"Gender": ["F", "M"], "Skill": [0.5, bad], "Rating": [0.1, 0.2]}
        unchecked = Dataset(
            schema, _build_store(schema, columns, ["w1", "w2"]), name="raw",
            validate=False,
        )
        message = f"non-numeric value {bad!r} for numeric attribute 'Skill'"
        with pytest.raises(DataError, match=re.escape(message)):
            unchecked.numeric_column("Skill")
        with pytest.raises(DataError, match=re.escape(message)):
            LinearScoringFunction({"Skill": 1.0}).score_dataset(unchecked)

    def test_validate_against_schema(self, schema):
        LinearScoringFunction({"Skill": 1.0}).validate_against(schema)
        with pytest.raises(ScoringError):
            LinearScoringFunction({"Unknown": 1.0}).validate_against(schema)
        with pytest.raises(ScoringError):
            LinearScoringFunction({"Gender": 1.0}).validate_against(schema)

    def test_describe_mentions_weights(self):
        function = LinearScoringFunction({"Skill": 0.6, "Rating": 0.4}, name="job")
        text = function.describe()
        assert "job" in text and "Skill" in text and "Rating" in text


class TestVariants:
    def test_with_weights_creates_renormalised_variant(self):
        base = LinearScoringFunction({"Skill": 0.5, "Rating": 0.5}, name="base")
        variant = base.with_weights(Skill=3.0, Rating=1.0)
        assert variant.weights["Skill"] == pytest.approx(0.75)
        assert variant.name == "base-variant"
        # The base function is untouched.
        assert base.weights["Skill"] == pytest.approx(0.5)

    def test_with_weights_custom_name(self):
        base = LinearScoringFunction({"Skill": 1.0}, name="base")
        variant = base.with_weights(name="v2", Skill=1.0, Rating=1.0)
        assert variant.name == "v2"
        assert set(variant.attributes) == {"Skill", "Rating"}


class TestRanking:
    def test_rank_orders_by_decreasing_score(self, dataset):
        function = LinearScoringFunction({"Skill": 1.0})
        ranking = function.rank(dataset)
        assert ranking.uids == ("w1", "w3", "w2", "w4")
        assert ranking.scores[0] >= ranking.scores[-1]

    def test_rank_breaks_ties_by_uid(self, schema):
        rows = [
            {"Gender": "F", "Skill": 0.5, "Rating": 0.0},
            {"Gender": "M", "Skill": 0.5, "Rating": 0.0},
        ]
        ds = Dataset.from_records(schema, rows)
        ranking = LinearScoringFunction({"Skill": 1.0}).rank(ds)
        assert ranking.uids == ("w1", "w2")

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ScoringError):
            Ranking(("w1", "w1"), (0.5, 0.4))

    def test_rank_by_score_matches_method(self, dataset):
        function = LinearScoringFunction({"Rating": 1.0})
        assert rank_by_score(dataset, function).uids == function.rank(dataset).uids

    def test_nan_scores_sort_last_with_ties_by_uid(self):
        schema = Schema((observed("Skill"),))
        uids = ["b", "a", "d", "c", "e"]
        dataset = Dataset.from_records(
            schema, [{"uid": uid, "Skill": 0.5} for uid in uids], uid_field="uid"
        )
        scores = [float("nan"), 0.5, float("nan"), 0.5, 0.9]
        ranking = rank_by_score(dataset, LinearScoringFunction({"Skill": 1.0}), scores)
        assert ranking.uids == ("e", "a", "c", "b", "d")
        assert repr(ranking.scores.tolist()) == "[0.9, 0.5, 0.5, nan, nan]"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_sorted_reference_on_nan_free_scores(self, data):
        uids = data.draw(st.lists(
            st.text(alphabet="abw019", min_size=1, max_size=4), unique=True, max_size=30
        ))
        scores = data.draw(st.lists(
            st.one_of(
                st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0)),
                st.floats(allow_nan=False),
            ),
            min_size=len(uids), max_size=len(uids),
        ))
        dataset = Dataset.from_records(
            Schema((observed("Skill"),)),
            [{"uid": uid, "Skill": 0.5} for uid in uids],
            uid_field="uid",
        )
        ranking = rank_by_score(dataset, LinearScoringFunction({"Skill": 1.0}), scores)
        order = sorted(range(len(uids)), key=lambda i: (-scores[i], uids[i]))
        assert ranking.uids == tuple(uids[i] for i in order)
        assert repr(ranking.scores.tolist()) == repr([scores[i] for i in order])
