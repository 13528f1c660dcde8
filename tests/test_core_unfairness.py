"""Tests for repro.core.unfairness (Definition 2 of the paper)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formulations import Aggregation, Formulation
from repro.core.partition import Partitioning
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import (
    _upper_pairs,
    pairwise_distances,
    unfairness,
    unfairness_breakdown,
)
from repro.errors import FormulationError
from repro.metrics.distances import available_distances, get_distance
from repro.metrics.emd import emd_1d
from repro.metrics.histogram import MAX_BINS, Binning, Histogram, build_histogram
from repro.scoring.linear import LinearScoringFunction
from distance_reference import reference_pairwise


@pytest.fixture
def gender_partitioning(table1_dataset):
    return Partitioning.by_attributes(table1_dataset, ["Gender"])


class TestPairwiseDistances:
    def test_number_of_pairs(self, table1_dataset, table1_function):
        partitioning = Partitioning.by_attributes(table1_dataset, ["Country"])
        store = ScoreStore(table1_dataset, table1_function)
        histograms = [store.histogram(partition, Binning.unit(5)) for partition in partitioning]
        values = pairwise_distances(histograms, Formulation())
        count = len(histograms)
        assert len(values) == count * (count - 1) // 2

    def test_single_histogram_has_no_pairs(self, table1_dataset, table1_function):
        store = ScoreStore(table1_dataset, table1_function)
        histograms = [store.histogram(p) for p in Partitioning.single(table1_dataset)]
        assert pairwise_distances(histograms, Formulation()) == []

    @pytest.mark.parametrize("distance", ["emd", "total_variation"])
    @pytest.mark.parametrize("other", [Binning.unit(4), Binning(0.0, 2.0, 5)])
    def test_histograms_over_different_binnings_are_refused(self, distance, other):
        first = Histogram(Binning.unit(5), (1, 2, 3, 4, 5))
        second = Histogram(other, (5,) * other.bins)
        with pytest.raises(FormulationError, match="share a binning"):
            pairwise_distances([first, second], Formulation.from_names(distance=distance))

    @pytest.mark.parametrize("distance", available_distances())
    def test_equals_the_per_pair_reference(self, distance):
        binning = Binning.unit(5)
        rng = np.random.default_rng(3)
        histograms = [
            build_histogram(rng.random(20), binning=binning) for _ in range(6)
        ]
        formulation = Formulation.from_names(distance=distance)
        values = pairwise_distances(histograms, formulation)
        assert len(values) == 15
        assert values == reference_pairwise(histograms, formulation)

    def test_memoised_pairs_give_identical_lists(self):
        # The upper-triangle pair indices are memoised per count: repeated
        # and interleaved counts must give exactly the first call's list.
        binning = Binning.unit(5)
        rng = np.random.default_rng(5)
        histograms = [build_histogram(rng.random(30), binning=binning) for _ in range(9)]
        formulation = Formulation()
        counts = (3, 5, 3, 9, 5, 3, 9)
        first = {}
        for count in counts:
            values = pairwise_distances(histograms[:count], formulation)
            assert values == first.setdefault(count, values)
            rows, cols = _upper_pairs(count)
            expected_rows, expected_cols = np.triu_indices(count, k=1)
            assert np.array_equal(rows, expected_rows)
            assert np.array_equal(cols, expected_cols)
            assert not rows.flags.writeable and not cols.flags.writeable
            assert _upper_pairs(count)[0] is rows
            assert values == reference_pairwise(histograms[:count], formulation)

    def test_fast_path_normalized_emd(self):
        binning = Binning.unit(5)
        histograms = [
            build_histogram([0.0, 0.1], binning=binning),
            build_histogram([0.5, 0.55], binning=binning),
            build_histogram([0.9, 1.0], binning=binning),
        ]
        formulation = Formulation(distance=get_distance("normalized_emd"))
        values = pairwise_distances(histograms, formulation)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert max(values) == pytest.approx(1.0)
        assert max(values) == pairwise_distances([histograms[0], histograms[2]], formulation)[0]


class TestOneEmdKernel:
    """Every histogram count, 2 included, goes through the one CDF kernel."""

    @staticmethod
    def _independent(name, first, second):
        """The closed form over weight vectors, scaled as the distance is."""
        gap = emd_1d(first.counts, second.counts)
        bins = first.binning.bins
        return gap / (bins - 1) if name == "normalized_emd" and bins > 1 else gap

    @settings(max_examples=120, deadline=None)
    @given(
        bins=st.integers(min_value=1, max_value=MAX_BINS),
        count=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        near=st.booleans(),
    )
    def test_kernel_matches_the_independent_emd(self, bins, count, seed, near):
        rng = np.random.default_rng(seed)
        binning = Binning.unit(bins)
        base = rng.integers(0, 1000, bins)
        histograms = []
        for _ in range(count):
            # Near-identical histograms (one count moved) probe tiny distances.
            counts = base.copy() if near else rng.integers(0, 1000, bins)
            counts[rng.integers(0, bins)] += int(rng.integers(0, 3))
            if rng.random() < 0.15:
                counts[:] = 0
            histograms.append(Histogram(binning=binning, counts=tuple(counts.tolist())))
        for name in ("emd", "normalized_emd"):
            formulation = Formulation(distance=get_distance(name), bins=bins)
            values = pairwise_distances(histograms, formulation)
            expected = [
                self._independent(name, histograms[i], histograms[j])
                for i in range(count)
                for j in range(i + 1, count)
            ]
            assert len(values) == len(expected)
            for value, reference in zip(values, expected):
                assert math.isclose(value, reference, rel_tol=1e-12, abs_tol=1e-12)

    def test_a_pair_does_not_depend_on_the_other_histograms(self):
        # The two-histogram answer is the kernel's, not a separate per-pair path.
        rng = np.random.default_rng(8)
        binning = Binning.unit(7)
        histograms = [
            Histogram(binning=binning, counts=tuple(rng.integers(0, 50, 7).tolist()))
            for _ in range(5)
        ]
        formulation = Formulation(bins=7)
        together = pairwise_distances(histograms, formulation)
        rows, cols = _upper_pairs(5)
        for (i, j), value in zip(zip(rows.tolist(), cols.tolist()), together):
            pair = pairwise_distances([histograms[i], histograms[j]], formulation)
            assert pair == [value]


class TestUnfairness:
    def test_single_partition_has_zero_unfairness(self, table1_dataset, table1_function):
        assert unfairness(Partitioning.single(table1_dataset), table1_function) == 0.0

    def test_gender_partitioning_value(self, gender_partitioning, table1_function):
        value = unfairness(gender_partitioning, table1_function)
        assert value > 0.0
        # Two partitions, so average == max == the single pairwise EMD.
        assert value == pytest.approx(
            unfairness(gender_partitioning, table1_function,
                       Formulation(aggregation=Aggregation.MAXIMUM))
        )

    def test_unfairness_is_nonnegative(self, table1_dataset, table1_function):
        for attributes in (["Gender"], ["Country"], ["Gender", "Language"]):
            partitioning = Partitioning.by_attributes(table1_dataset, attributes)
            assert unfairness(partitioning, table1_function) >= 0.0

    def test_identical_groups_have_zero_unfairness(self):
        from repro.data.dataset import Dataset
        from repro.data.schema import Schema, observed, protected

        schema = Schema((protected("G", domain=("a", "b")), observed("S")))
        rows = [
            {"G": "a", "S": 0.5}, {"G": "a", "S": 0.9},
            {"G": "b", "S": 0.5}, {"G": "b", "S": 0.9},
        ]
        dataset = Dataset.from_records(schema, rows)
        partitioning = Partitioning.by_attributes(dataset, ["G"])
        function = LinearScoringFunction({"S": 1.0})
        assert unfairness(partitioning, function) == pytest.approx(0.0)

    def test_separated_groups_have_high_unfairness(self):
        from repro.data.dataset import Dataset
        from repro.data.schema import Schema, observed, protected

        schema = Schema((protected("G", domain=("low", "high")), observed("S")))
        rows = [{"G": "low", "S": 0.02}] * 3 + [{"G": "high", "S": 0.98}] * 3
        dataset = Dataset.from_records(schema, rows)
        partitioning = Partitioning.by_attributes(dataset, ["G"])
        function = LinearScoringFunction({"S": 1.0})
        # All mass moves across 4 bins.
        assert unfairness(partitioning, function) == pytest.approx(4.0)


class TestBreakdown:
    def test_breakdown_fields(self, gender_partitioning, table1_function):
        breakdown = unfairness_breakdown(gender_partitioning, table1_function)
        assert breakdown.value == pytest.approx(unfairness(gender_partitioning, table1_function))
        assert set(breakdown.partition_labels) == {"Gender=Female", "Gender=Male"}
        assert breakdown.most_separated_pair is not None
        assert breakdown.most_favored in breakdown.partition_labels
        assert breakdown.least_favored in breakdown.partition_labels
        assert breakdown.most_favored != breakdown.least_favored

    def test_breakdown_mean_scores_match_partitions(self, gender_partitioning, table1_function):
        breakdown = unfairness_breakdown(gender_partitioning, table1_function)
        for partition in gender_partitioning:
            assert breakdown.mean_scores[partition.label] == pytest.approx(
                float(table1_function.score_dataset(partition.members).mean())
            )

    def test_breakdown_single_partition(self, table1_dataset, table1_function):
        breakdown = unfairness_breakdown(Partitioning.single(table1_dataset), table1_function)
        assert breakdown.value == 0.0
        assert breakdown.most_separated_pair is None
        assert breakdown.most_favored == "ALL"

    def test_as_dict_round_trip(self, gender_partitioning, table1_function):
        breakdown = unfairness_breakdown(gender_partitioning, table1_function)
        data = breakdown.as_dict()
        assert data["unfairness"] == breakdown.value
        assert data["most_favored"] == breakdown.most_favored
        assert len(data["partitions"]) == 2
