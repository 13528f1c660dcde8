"""Tests for repro.metrics.distances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formulations import Formulation
from repro.core.unfairness import pairwise_distances, upper_pairs
from repro.errors import FormulationError
from repro.metrics.distances import (
    EMDDistance,
    JensenShannonDistance,
    KolmogorovSmirnovDistance,
    MeanGapDistance,
    NormalizedEMDDistance,
    TotalVariationDistance,
    available_distances,
    get_distance,
)
from repro.metrics.emd import emd_1d
from repro.metrics.histogram import MAX_BINS, Binning, build_histogram
from distance_reference import REFERENCE_DISTANCES, normalized

BINNING = Binning.unit(5)


def _h(scores):
    return build_histogram(scores, binning=BINNING)


def _between(distance, first, second):
    """The distance between two histograms, through ``pairwise_distances``."""
    return pairwise_distances([first, second], Formulation(distance=distance))[0]


ALL_DISTANCES = [
    EMDDistance,
    NormalizedEMDDistance,
    TotalVariationDistance,
    KolmogorovSmirnovDistance,
    JensenShannonDistance,
    MeanGapDistance,
]


class TestRegistry:
    def test_available_names(self):
        names = available_distances()
        assert "emd" in names
        assert "total_variation" in names
        assert "mean_gap" in names

    def test_get_distance_roundtrip(self):
        for name in available_distances():
            assert get_distance(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(FormulationError):
            get_distance("no-such-distance")

    def test_every_registered_distance_has_a_reference(self):
        assert sorted(REFERENCE_DISTANCES) == sorted(available_distances())
        assert sorted(measure.name for measure in ALL_DISTANCES) == sorted(available_distances())


class TestDistanceProperties:
    @pytest.mark.parametrize("distance", ALL_DISTANCES, ids=lambda d: d.name)
    def test_identity(self, distance):
        histogram = _h([0.1, 0.4, 0.4, 0.9])
        assert _between(distance, histogram, histogram) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("distance", ALL_DISTANCES, ids=lambda d: d.name)
    def test_symmetry(self, distance):
        first = _h([0.1, 0.2, 0.3])
        second = _h([0.7, 0.8, 0.95])
        assert _between(distance, first, second) == pytest.approx(
            _between(distance, second, first)
        )

    @pytest.mark.parametrize("distance", ALL_DISTANCES, ids=lambda d: d.name)
    def test_non_negative(self, distance):
        assert _between(distance, _h([0.2]), _h([0.9])) >= 0.0

    @pytest.mark.parametrize("distance", ALL_DISTANCES, ids=lambda d: d.name)
    def test_binning_mismatch_rejected(self, distance):
        with pytest.raises(FormulationError):
            _between(distance, build_histogram([0.5], bins=5), build_histogram([0.5], bins=7))

    @pytest.mark.parametrize(
        "distance",
        [NormalizedEMDDistance, TotalVariationDistance, KolmogorovSmirnovDistance,
         JensenShannonDistance, MeanGapDistance],
        ids=lambda d: d.name,
    )
    def test_bounded_by_one(self, distance):
        low = _h([0.0, 0.05])
        high = _h([0.95, 1.0])
        assert _between(distance, low, high) <= 1.0 + 1e-9


class TestSpecificValues:
    def test_total_variation_of_disjoint_supports_is_one(self):
        assert _between(TotalVariationDistance, _h([0.0]), _h([1.0])) == pytest.approx(1.0)

    def test_ks_distance_of_disjoint_supports_is_one(self):
        assert _between(KolmogorovSmirnovDistance, _h([0.0]), _h([1.0])) == pytest.approx(1.0)

    def test_mean_gap_matches_difference_of_bin_centres(self):
        low = _h([0.05])   # bin centre 0.1
        high = _h([0.95])  # bin centre 0.9
        assert _between(MeanGapDistance, low, high) == pytest.approx(0.8)

    def test_emd_sees_distance_that_tv_cannot(self):
        # TV treats "adjacent bin" and "opposite bin" the same; EMD does not.
        near = _between(EMDDistance, _h([0.1]), _h([0.3]))
        far = _between(EMDDistance, _h([0.1]), _h([0.9]))
        assert far > near
        assert _between(TotalVariationDistance, _h([0.1]), _h([0.3])) == pytest.approx(
            _between(TotalVariationDistance, _h([0.1]), _h([0.9]))
        )

    def test_jensen_shannon_is_finite_for_disjoint_supports(self):
        value = _between(JensenShannonDistance, _h([0.0]), _h([1.0]))
        assert 0.0 < value <= 1.0

    def test_empty_histogram_reads_as_uniform(self):
        # Every distance against an empty histogram is the distance to the
        # uniform distribution, not to a point mass or to nothing.
        empty = _h([])
        uniform = _h([0.1, 0.3, 0.5, 0.7, 0.9])
        for distance in ALL_DISTANCES:
            assert _between(distance, empty, uniform) == 0.0
            assert _between(distance, empty, _h([0.1])) > 0.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50),
           st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_normalized_emd_always_in_unit_interval(self, first, second):
        value = _between(NormalizedEMDDistance, _h(first), _h(second))
        assert 0.0 <= value <= 1.0 + 1e-9


@st.composite
def count_matrices(draw):
    """A (histograms × bins) count matrix with empty and sparse rows, plus pairs of its rows."""
    bins = draw(st.integers(min_value=1, max_value=MAX_BINS))
    count = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    # Share of all-zero (empty) rows, and how sparse the others are.
    empty = draw(st.sampled_from([0.0, 0.3, 1.0]))
    density = draw(st.sampled_from([0.02, 0.3, 1.0]))
    scale = draw(st.sampled_from([3, 1000, 10**9]))
    counts = rng.integers(0, scale, (count, bins)) * (rng.random((count, bins)) < density)
    counts[rng.random(count) < empty] = 0
    if draw(st.booleans()):
        rows, cols = upper_pairs(count)
    else:
        # Any pairs, in any order, a row against itself included.
        pairs = draw(st.integers(min_value=0, max_value=30))
        rows, cols = rng.integers(0, count, pairs), rng.integers(0, count, pairs)
    return Binning.unit(bins), counts, rows, cols


class TestKernelsEqualThePerPairReference:
    """Every registered distance over count rows equals ``distance_reference``, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(count_matrices(), st.sampled_from(available_distances()))
    def test_kernel_equals_reference(self, case, name):
        binning, counts, rows, cols = case
        values = get_distance(name)(counts, binning, rows, cols)
        assert values.dtype == np.float64
        assert values.shape == rows.shape
        reference = REFERENCE_DISTANCES[name]
        vectors = [normalized(row) for row in counts.tolist()]
        for value, i, j in zip(values.tolist(), rows.tolist(), cols.tolist()):
            expected = reference(vectors[i], vectors[j], binning)
            assert value.hex() == expected.hex(), (name, i, j)
            if name == "emd":
                independent = emd_1d(vectors[i], vectors[j])
                assert math.isclose(value, independent, rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(count_matrices(), st.sampled_from(available_distances()))
    def test_a_pair_does_not_depend_on_the_other_rows(self, case, name):
        binning, counts, rows, cols = case
        distance = get_distance(name)
        together = distance(counts, binning, rows, cols)
        for value, i, j in zip(together.tolist(), rows.tolist(), cols.tolist()):
            alone = distance(counts[[i, j]], binning, np.array([0]), np.array([1]))
            assert alone.tolist() == [value]

    @pytest.mark.parametrize("name", available_distances())
    def test_no_pairs(self, name):
        binning = Binning.unit(4)
        none = np.zeros(0, dtype=np.int64)
        for counts in (np.zeros((0, 4), dtype=np.int64), np.ones((3, 4), dtype=np.int64)):
            values = get_distance(name)(counts, binning, none, none)
            assert values.shape == (0,)
