"""Tests for the greedy QUANTIFY algorithm (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.exhaustive import exhaustive_search
from repro.core.formulations import Aggregation, Formulation, Objective
from repro.core.partition import root_partition, split_partition
from repro.core.quantify import _score_node, most_unfair_attribute, quantify
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import pairwise_distances, unfairness
from repro.data.dataset import Dataset
from repro.data.filters import TrueFilter
from repro.data.schema import Schema, observed, protected
from repro.errors import PartitioningError
from repro.metrics.distances import available_distances, get_distance
from repro.metrics.histogram import MAX_BINS, Binning, Histogram
from repro.scoring.linear import LinearScoringFunction

CATEGORICAL_ATTRS = ["Gender", "Country", "Language", "Ethnicity"]


def _planted_dataset():
    """A dataset where Gender=F & City=A is clearly disadvantaged."""
    schema = Schema((
        protected("Gender", domain=("F", "M")),
        protected("City", domain=("A", "B")),
        observed("Skill"),
    ))
    rows = []
    # Disadvantaged intersection: F in city A score ~0.1; everyone else ~0.9.
    for _ in range(10):
        rows.append({"Gender": "F", "City": "A", "Skill": 0.1})
    for _ in range(10):
        rows.append({"Gender": "F", "City": "B", "Skill": 0.9})
    for _ in range(10):
        rows.append({"Gender": "M", "City": "A", "Skill": 0.9})
    for _ in range(10):
        rows.append({"Gender": "M", "City": "B", "Skill": 0.9})
    return Dataset.from_records(schema, rows, name="planted")


class TestQuantifyBasics:
    def test_result_is_valid_partitioning(self, table1_dataset, table1_function):
        result = quantify(table1_dataset, table1_function, attributes=CATEGORICAL_ATTRS)
        assert sum(result.partitioning.sizes) == len(table1_dataset)
        assert result.unfairness >= 0.0
        assert result.splits_evaluated > 0

    def test_unfairness_matches_recomputation(self, table1_dataset, table1_function):
        result = quantify(table1_dataset, table1_function, attributes=CATEGORICAL_ATTRS)
        assert result.unfairness == pytest.approx(
            unfairness(result.partitioning, table1_function, result.formulation)
        )

    def test_tree_leaves_match_partitioning(self, table1_dataset, table1_function):
        result = quantify(table1_dataset, table1_function, attributes=CATEGORICAL_ATTRS)
        assert {leaf.label for leaf in result.tree.leaves()} == set(result.partition_labels)

    def test_deterministic(self, small_population, balanced_function):
        first = quantify(small_population, balanced_function, attributes=CATEGORICAL_ATTRS)
        second = quantify(small_population, balanced_function, attributes=CATEGORICAL_ATTRS)
        assert first.partition_labels == second.partition_labels
        assert first.unfairness == pytest.approx(second.unfairness)

    def test_summary(self, table1_dataset, table1_function):
        result = quantify(table1_dataset, table1_function, attributes=["Gender", "Language"])
        summary = result.summary()
        assert summary["unfairness"] == pytest.approx(result.unfairness)
        assert summary["partitions"] == len(result.partitioning)
        assert summary["formulation"] == result.formulation.name


class TestQuantifyParameters:
    def test_empty_dataset_rejected(self, table1_dataset, table1_function):
        empty = table1_dataset.filter(~TrueFilter())
        with pytest.raises(Exception):
            quantify(empty, table1_function, attributes=["Gender"])

    def test_unknown_attribute_rejected(self, table1_dataset, table1_function):
        with pytest.raises(Exception):
            quantify(table1_dataset, table1_function, attributes=["NotAnAttribute"])

    def test_observed_attribute_rejected(self, table1_dataset, table1_function):
        with pytest.raises(Exception):
            quantify(table1_dataset, table1_function, attributes=["Rating"])

    def test_min_partition_size_enforced(self, small_population, balanced_function):
        result = quantify(small_population, balanced_function,
                          attributes=CATEGORICAL_ATTRS, min_partition_size=5)
        assert all(size >= 5 for size in result.partitioning.sizes)

    def test_invalid_min_partition_size(self, table1_dataset, table1_function):
        with pytest.raises(PartitioningError):
            quantify(table1_dataset, table1_function, min_partition_size=0)

    @pytest.mark.parametrize("max_depth", [0, -1])
    def test_max_depth_below_one_rejected(self, table1_dataset, table1_function, max_depth):
        # The root split is always tried, so a depth below 1 has no meaning.
        with pytest.raises(PartitioningError, match=f"max_depth must be >= 1, got {max_depth}"):
            quantify(table1_dataset, table1_function, max_depth=max_depth)

    def test_max_depth_limits_tree(self, small_population, balanced_function):
        shallow = quantify(small_population, balanced_function,
                           attributes=CATEGORICAL_ATTRS, max_depth=1)
        assert shallow.tree.depth() <= 1
        deep = quantify(small_population, balanced_function, attributes=CATEGORICAL_ATTRS)
        assert deep.tree.depth() >= shallow.tree.depth()

    def test_default_attributes_are_all_protected(self, table1_dataset, table1_function):
        result = quantify(table1_dataset, table1_function)
        used = set(result.tree.split_attributes_used())
        assert used <= set(table1_dataset.schema.protected_names)


class TestQuantifyQuality:
    def test_recovers_planted_intersectional_bias(self):
        dataset = _planted_dataset()
        function = LinearScoringFunction({"Skill": 1.0})
        result = quantify(dataset, function)
        # The disadvantaged F/A subgroup must be isolated in its own partition.
        labels = set(result.partition_labels)
        assert any("Gender=F" in label and "City=A" in label for label in labels), labels
        # And the unfairness must be substantial (mass separated by 4 bins).
        assert result.unfairness > 1.0

    def test_splitting_uninformative_attribute_is_avoided(self):
        schema = Schema((
            protected("Noise", domain=("x", "y")),
            protected("Signal", domain=("lo", "hi")),
            observed("Skill"),
        ))
        rows = []
        for i in range(20):
            noise = "x" if i % 2 else "y"
            rows.append({"Noise": noise, "Signal": "lo", "Skill": 0.1})
            rows.append({"Noise": noise, "Signal": "hi", "Skill": 0.9})
        dataset = Dataset.from_records(schema, rows)
        function = LinearScoringFunction({"Skill": 1.0})
        result = quantify(dataset, function)
        assert result.tree.root.split_attribute == "Signal"

    def test_greedy_close_to_exhaustive_on_table1(self, table1_dataset, table1_function):
        attributes = ["Gender", "Language"]
        greedy = quantify(table1_dataset, table1_function, attributes=attributes)
        exact = exhaustive_search(table1_dataset, table1_function, attributes=attributes)
        assert greedy.unfairness <= exact.unfairness + 1e-9
        assert greedy.unfairness >= 0.5 * exact.unfairness

    def test_least_unfair_objective_yields_lower_value(self, small_population, balanced_function):
        most = quantify(small_population, balanced_function, attributes=CATEGORICAL_ATTRS)
        least = quantify(
            small_population,
            balanced_function,
            formulation=Formulation(objective=Objective.LEAST_UNFAIR),
            attributes=CATEGORICAL_ATTRS,
        )
        assert least.unfairness <= most.unfairness + 1e-9

    def test_uniform_scores_give_zero_unfairness(self):
        schema = Schema((protected("G", domain=("a", "b")), observed("S")))
        rows = [{"G": "a", "S": 0.5}] * 5 + [{"G": "b", "S": 0.5}] * 5
        dataset = Dataset.from_records(schema, rows)
        result = quantify(dataset, LinearScoringFunction({"S": 1.0}))
        assert result.unfairness == pytest.approx(0.0)

    def test_max_aggregation_unfairness_at_least_average(self, small_population, balanced_function):
        average = quantify(small_population, balanced_function, attributes=CATEGORICAL_ATTRS)
        maximum = quantify(
            small_population,
            balanced_function,
            formulation=Formulation(aggregation=Aggregation.MAXIMUM),
            attributes=CATEGORICAL_ATTRS,
        )
        assert maximum.unfairness >= average.unfairness - 1e-9


class TestMostUnfairAttribute:
    def test_returns_none_when_nothing_splits(self):
        schema = Schema((protected("G", domain=("a",)), observed("S")))
        rows = [{"G": "a", "S": 0.2}, {"G": "a", "S": 0.8}]
        dataset = Dataset.from_records(schema, rows)
        choice = most_unfair_attribute(
            root_partition(dataset), LinearScoringFunction({"S": 1.0}), ["G"]
        )
        assert choice is None

    def test_prefers_the_separating_attribute(self, table1_dataset, table1_function):
        choice = most_unfair_attribute(
            root_partition(table1_dataset), table1_function, CATEGORICAL_ATTRS
        )
        assert choice is not None
        attribute, children, score = choice
        assert attribute in CATEGORICAL_ATTRS
        assert len(children) >= 2
        assert score >= 0.0

    def test_scores_candidates_with_the_given_siblings(self, table1_dataset, table1_function):
        formulation = Formulation()
        binning = formulation.effective_binning
        store = ScoreStore(table1_dataset, table1_function)
        first, *others = split_partition(root_partition(table1_dataset), "Gender", store=store)
        siblings = [store.histogram(other, binning) for other in others]
        attributes = [name for name in CATEGORICAL_ATTRS if name != "Gender"]
        choice = most_unfair_attribute(
            first, table1_function, attributes, formulation, siblings=siblings, store=store
        )
        assert choice is not None
        _, children, score = choice
        histograms = [store.histogram(child, binning) for child in children]
        expected = formulation.aggregate(pairwise_distances(histograms + siblings, formulation))
        assert score.hex() == expected.hex()


@st.composite
def node_cases(draw):
    """One node's count rows: an optional own row, 0-3 siblings, 0-4 candidates."""
    bins = draw(st.integers(min_value=1, max_value=MAX_BINS))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    # Share of all-zero (empty) rows, and how sparse the others are.
    empty = draw(st.sampled_from([0.0, 0.3, 1.0]))
    density = draw(st.sampled_from([0.05, 0.5, 1.0]))
    binning = Binning.unit(bins)

    def rows(count: int) -> np.ndarray:
        counts = rng.integers(0, 40, (count, bins)) * (rng.random((count, bins)) < density)
        counts[rng.random(count) < empty] = 0
        counts.setflags(write=False)
        return counts

    own = rows(1)[0] if draw(st.booleans()) else None
    siblings = rows(draw(st.integers(min_value=0, max_value=3)))
    sizes = draw(st.lists(st.integers(min_value=2, max_value=7), max_size=4))
    candidates = [rows(size) for size in sizes]
    formulation = Formulation(
        aggregation=draw(st.sampled_from(list(Aggregation))),
        distance=get_distance(draw(st.sampled_from(available_distances()))),
        bins=bins,
    )
    return own, siblings, candidates, binning, formulation


def _histograms(counts, binning):
    """Count rows as validated histograms, for the public adapter."""
    return [Histogram(binning=binning, counts=tuple(row.tolist())) for row in counts]


class TestBatchedNodeScoring:
    """A node's scores from one matrix and one kernel call equal one
    ``pairwise_distances`` call per set, bit for bit."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(node_cases())
    def test_scores_equal_one_pairwise_call_per_set(self, case):
        own, siblings, candidates, binning, formulation = case
        current, scores = _score_node(own, siblings, candidates, binning, formulation)
        assert len(scores) == len(candidates)
        sibling_histograms = _histograms(siblings, binning)
        for children, score in zip(candidates, scores):
            expected = formulation.aggregate(
                pairwise_distances(_histograms(children, binning) + sibling_histograms, formulation)
            )
            assert score.hex() == expected.hex()
        if own is None:
            assert current == 0.0
        else:
            expected = formulation.aggregate(
                pairwise_distances(_histograms([own], binning) + sibling_histograms, formulation)
            )
            assert current.hex() == expected.hex()

    def test_two_child_candidate_without_siblings(self):
        binning = Binning.unit(5)
        counts = np.array([[3, 0, 1, 0, 0], [0, 0, 1, 2, 5]], dtype=np.int64)
        no_siblings = np.empty((0, 5), dtype=np.int64)
        _, (score,) = _score_node(None, no_siblings, [counts], binning, Formulation())
        assert score == pairwise_distances(_histograms(counts, binning), Formulation())[0]
