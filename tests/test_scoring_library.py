"""Tests for repro.scoring.library."""

import pytest

from repro.errors import ScoringError
from repro.scoring.library import weight_sweep
from repro.scoring.linear import LinearScoringFunction


class TestWeightSweep:
    def test_two_attribute_sweep_covers_extremes(self):
        grid = weight_sweep(["A", "B"], steps=5)
        as_tuples = {tuple(sorted(weights.items())) for weights in grid}
        assert (("A", 0.0), ("B", 1.0)) in as_tuples
        assert (("A", 1.0), ("B", 0.0)) in as_tuples

    def test_sweep_points_sum_to_one(self):
        for weights in weight_sweep(["A", "B", "C"], steps=4):
            assert sum(weights.values()) == pytest.approx(1.0)

    def test_sweep_has_no_duplicates(self):
        grid = weight_sweep(["A", "B"], steps=5)
        keys = [tuple(sorted((k, round(v, 9)) for k, v in weights.items())) for weights in grid]
        assert len(keys) == len(set(keys))

    def test_sweep_validates_inputs(self):
        with pytest.raises(ScoringError):
            weight_sweep(["A"], steps=5)
        with pytest.raises(ScoringError):
            weight_sweep(["A", "B"], steps=1)

    def test_sweep_points_are_valid_scoring_functions(self):
        for weights in weight_sweep(["Skill", "Rating"], steps=3):
            if sum(weights.values()) > 0:
                LinearScoringFunction(weights)  # should not raise
