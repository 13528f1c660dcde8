"""Tests for repro.metrics.emd, including property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formulations import Formulation
from repro.core.unfairness import pairwise_distances
from repro.errors import FormulationError
from repro.metrics.emd import emd_1d, emd_matrix
from repro.metrics.histogram import Binning, build_histogram

distributions = st.lists(
    st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=12
).filter(lambda values: sum(values) > 0)


class TestEmd1d:
    def test_identical_distributions_have_zero_distance(self):
        assert emd_1d([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0)

    def test_point_masses_at_extremes(self):
        # Moving all mass across k-1 bins costs k-1 in bin units.
        assert emd_1d([1, 0, 0, 0], [0, 0, 0, 1]) == pytest.approx(3.0)

    def test_adjacent_bins(self):
        assert emd_1d([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_with_positions_in_score_units(self):
        positions = [0.1, 0.3, 0.5, 0.7, 0.9]
        value = emd_1d([1, 0, 0, 0, 0], [0, 0, 0, 0, 1], positions=positions)
        assert value == pytest.approx(0.8)

    def test_single_bin_distance_is_zero(self):
        assert emd_1d([5.0], [3.0]) == pytest.approx(0.0)

    def test_size_mismatch_raises(self):
        with pytest.raises(FormulationError):
            emd_1d([1, 0], [1, 0, 0])

    def test_positions_size_mismatch_raises(self):
        with pytest.raises(FormulationError):
            emd_1d([1, 0], [0, 1], positions=[0.0, 0.5, 1.0])

    def test_decreasing_positions_raise(self):
        with pytest.raises(FormulationError):
            emd_1d([1, 0], [0, 1], positions=[1.0, 0.0])

    def test_negative_weights_raise(self):
        with pytest.raises(FormulationError):
            emd_1d([1, -1], [0, 1])

    def test_empty_distribution_raises(self):
        with pytest.raises(FormulationError):
            emd_1d([], [])

    @given(distributions)
    @settings(max_examples=60, deadline=None)
    def test_self_distance_is_zero(self, weights):
        assert emd_1d(weights, weights) == pytest.approx(0.0, abs=1e-9)

    @given(distributions, distributions)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, first, second):
        size = min(len(first), len(second))
        first, second = first[:size], second[:size]
        assert emd_1d(first, second) == pytest.approx(emd_1d(second, first), abs=1e-9)

    @given(distributions, distributions, distributions)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        size = min(len(a), len(b), len(c))
        a, b, c = a[:size], b[:size], c[:size]
        assert emd_1d(a, c) <= emd_1d(a, b) + emd_1d(b, c) + 1e-9

    @given(distributions, distributions)
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_bins_minus_one(self, first, second):
        size = min(len(first), len(second))
        first, second = first[:size], second[:size]
        assert 0.0 <= emd_1d(first, second) <= size - 1 + 1e-9


class TestEmdMatrix:
    def test_matches_closed_form_on_line_costs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            size = rng.integers(2, 8)
            p = rng.random(size)
            q = rng.random(size)
            cost = np.abs(np.subtract.outer(np.arange(size), np.arange(size))).astype(float)
            assert emd_matrix(p, q, cost) == pytest.approx(emd_1d(p, q), abs=1e-9)

    def test_shape_mismatch_raises(self):
        with pytest.raises(FormulationError):
            emd_matrix([1, 0], [0, 1], np.zeros((3, 2)))

    def test_negative_cost_raises(self):
        with pytest.raises(FormulationError):
            emd_matrix([1, 0], [0, 1], [[0, -1], [1, 0]])

    def test_zero_cost_matrix_gives_zero(self):
        assert emd_matrix([0.3, 0.7], [0.6, 0.4], np.zeros((2, 2))) == pytest.approx(0.0)


def _histogram_distance(name, first, second, bins=5):
    """One distance between two histograms, through the library's count-row kernel."""
    formulation = Formulation.from_names(distance=name, bins=bins)
    return pairwise_distances([first, second], formulation)[0]


class TestHistogramEmd:
    def test_histogram_emd(self):
        binning = Binning.unit(5)
        low = build_histogram([0.05, 0.1], binning=binning)
        high = build_histogram([0.95, 0.9], binning=binning)
        assert _histogram_distance("emd", low, high) == pytest.approx(4.0)

    def test_histogram_emd_in_score_units(self):
        binning = Binning.unit(5)
        low = build_histogram([0.05, 0.1], binning=binning)
        high = build_histogram([0.95, 0.9], binning=binning)
        assert emd_1d(low.counts, high.counts, positions=binning.centers) == pytest.approx(0.8)

    def test_different_binnings_rejected(self):
        with pytest.raises(FormulationError):
            _histogram_distance(
                "emd", build_histogram([0.5], bins=5), build_histogram([0.5], bins=6)
            )

    def test_normalized_emd_in_unit_interval(self):
        binning = Binning.unit(5)
        low = build_histogram([0.0], binning=binning)
        high = build_histogram([1.0], binning=binning)
        assert _histogram_distance("normalized_emd", low, high) == pytest.approx(1.0)
        assert _histogram_distance("normalized_emd", low, low) == pytest.approx(0.0)

    def test_normalized_emd_single_bin(self):
        binning = Binning.unit(1)
        histogram = build_histogram([0.5], binning=binning)
        assert _histogram_distance("normalized_emd", histogram, histogram, bins=1) == 0.0

    @pytest.mark.parametrize("name", ["emd", "normalized_emd", "total_variation"])
    def test_histograms_off_the_formulation_binning_are_refused(self, name):
        # 1-bin histograms under a 5-bin formulation: refused like unfairness().
        histogram = build_histogram([0.5], binning=Binning.unit(1))
        with pytest.raises(FormulationError, match="conflicts with the formulation"):
            _histogram_distance(name, histogram, histogram)
        with pytest.raises(FormulationError, match="conflicts with the formulation"):
            pairwise_distances([histogram], Formulation())
