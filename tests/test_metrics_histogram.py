"""Tests for repro.metrics.histogram."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormulationError
from repro.metrics.histogram import (
    DEFAULT_BINS,
    MAX_BINS,
    Binning,
    Histogram,
    build_histogram,
    cdf_matrix,
    normalized_matrix,
)


class TestBinning:
    def test_unit_binning_edges(self):
        binning = Binning.unit(5)
        assert binning.bins == 5
        assert binning.edges.tolist() == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert binning.width == pytest.approx(0.2)

    def test_centers(self):
        binning = Binning.unit(4)
        assert binning.centers.tolist() == pytest.approx([0.125, 0.375, 0.625, 0.875])

    def test_invalid_bins(self):
        with pytest.raises(FormulationError):
            Binning(0.0, 1.0, bins=0)
        with pytest.raises(FormulationError, match=f"at most {MAX_BINS} bins, got 257"):
            Binning(0.0, 1.0, bins=MAX_BINS + 1)
        assert Binning(0.0, 1.0, bins=MAX_BINS).edges.size == MAX_BINS + 1

    def test_invalid_bounds(self):
        with pytest.raises(FormulationError):
            Binning(1.0, 0.0)
        with pytest.raises(FormulationError):
            Binning(float("nan"), 1.0)

    def test_degenerate_range_still_produces_edges(self):
        binning = Binning(0.5, 0.5, bins=3)
        edges = binning.edges
        assert len(edges) == 4
        assert edges[0] < 0.5 < edges[-1]


class TestHistogram:
    def test_counts_validation(self):
        binning = Binning.unit(3)
        with pytest.raises(FormulationError):
            Histogram(binning, (1, 2))  # wrong length
        with pytest.raises(FormulationError):
            Histogram(binning, (1, -1, 0))  # negative

    def test_total_and_empty(self):
        binning = Binning.unit(3)
        assert Histogram(binning, (0, 0, 0)).is_empty
        assert Histogram(binning, (1, 2, 3)).total == 6

    def test_describe(self):
        assert Histogram(Binning.unit(3), (1, 2, 3)).describe() == "[1|2|3]"


class TestBuildHistogram:
    def test_default_unit_binning(self):
        histogram = build_histogram([0.1, 0.1, 0.5, 0.95])
        assert histogram.binning.bins == DEFAULT_BINS
        assert histogram.total == 4
        assert histogram.counts == (2, 0, 1, 0, 1)

    def test_boundary_values_fall_in_last_bin(self):
        histogram = build_histogram([1.0, 1.0], bins=5)
        assert histogram.counts == (0, 0, 0, 0, 2)

    def test_out_of_range_scores_are_clamped(self):
        histogram = build_histogram([-0.5, 1.5], bins=4)
        assert histogram.counts[0] == 1
        assert histogram.counts[-1] == 1

    def test_empty_scores(self):
        histogram = build_histogram([])
        assert histogram.is_empty

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=200),
           st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_total_always_matches_input_size(self, scores, bins):
        histogram = build_histogram(scores, bins=bins)
        assert histogram.total == len(scores)
        assert len(histogram.counts) == bins

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_normalized_is_distribution(self, scores):
        histogram = build_histogram(scores)
        weights = normalized_matrix(np.array([histogram.counts]))[0]
        assert weights.sum() == pytest.approx(1.0)
        assert (weights >= 0).all()


class TestNormalizedMatrix:
    def test_rows_sum_to_one(self):
        weights = normalized_matrix(np.array([[1, 1, 2, 0], [0, 0, 0, 7]]))
        assert weights.tolist() == [[0.25, 0.25, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]]

    def test_empty_row_is_uniform(self):
        weights = normalized_matrix(np.array([[0, 0, 0, 0], [1, 2, 3, 4]]))
        assert weights[0].tolist() == [0.25] * 4
        assert weights[1].tolist() == pytest.approx([0.1, 0.2, 0.3, 0.4])

    def test_no_rows(self):
        assert normalized_matrix(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)

    def test_cdf_matrix_drops_the_final_bin(self):
        cdfs = cdf_matrix(np.array([[1, 1, 2, 0], [0, 0, 0, 0]]))
        assert cdfs.tolist() == [[0.25, 0.5, 1.0], [0.25, 0.5, 0.75]]
        assert cdf_matrix(np.array([[3], [0]])).shape == (2, 0)
