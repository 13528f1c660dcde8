"""Tests for repro.anonymize.hierarchy."""

import pytest

from repro.anonymize.hierarchy import (
    SUPPRESSED,
    CategoricalHierarchy,
    IntervalHierarchy,
    identity_hierarchy,
)
from repro.errors import AnonymizationError


class TestCategoricalHierarchy:
    def _cities(self):
        return CategoricalHierarchy(
            attribute="City",
            ladders={
                "Paris": ("France", "Europe"),
                "Lyon": ("France", "Europe"),
                "Berlin": ("Germany", "Europe"),
                "NYC": ("USA", "America"),
            },
        )

    def test_height_includes_suppression_level(self):
        assert self._cities().height == 3

    def test_level_zero_is_identity(self):
        hierarchy = self._cities()
        assert hierarchy.generalize("Paris", 0) == "Paris"

    def test_intermediate_levels(self):
        hierarchy = self._cities()
        assert hierarchy.generalize("Paris", 1) == "France"
        assert hierarchy.generalize("Paris", 2) == "Europe"
        assert hierarchy.generalize("NYC", 2) == "America"

    def test_top_level_is_suppression(self):
        hierarchy = self._cities()
        assert hierarchy.generalize("Paris", 3) == SUPPRESSED

    def test_unknown_value_is_suppressed_at_positive_levels(self):
        hierarchy = self._cities()
        assert hierarchy.generalize("Atlantis", 1) == SUPPRESSED
        assert hierarchy.generalize("Atlantis", 0) == "Atlantis"

    def test_out_of_range_level_rejected(self):
        hierarchy = self._cities()
        with pytest.raises(AnonymizationError):
            hierarchy.generalize("Paris", 4)
        with pytest.raises(AnonymizationError):
            hierarchy.generalize("Paris", -1)

    def test_ladders_padded_to_uniform_height(self):
        hierarchy = CategoricalHierarchy(
            attribute="X",
            ladders={"a": ("group-a",), "b": ("group-b", "super-b")},
        )
        assert hierarchy.height == 3
        # The shorter ladder repeats its last ancestor.
        assert hierarchy.generalize("a", 2) == "group-a"



class TestIntervalHierarchy:
    def test_levels_widen(self):
        hierarchy = IntervalHierarchy(attribute="Year", widths=(5, 10, 25), origin=1900)
        assert hierarchy.generalize(1987, 1) == "[1985-1990)"
        assert hierarchy.generalize(1987, 2) == "[1980-1990)"
        assert hierarchy.generalize(1987, 3) == "[1975-2000)"
        assert hierarchy.generalize(1987, 4) == SUPPRESSED

    def test_level_zero_identity(self):
        hierarchy = IntervalHierarchy(attribute="Year", widths=(10,))
        assert hierarchy.generalize(1987, 0) == 1987

    def test_non_numeric_value_suppressed(self):
        hierarchy = IntervalHierarchy(attribute="Year", widths=(10,))
        assert hierarchy.generalize("unknown", 1) == SUPPRESSED

    def test_float_rendering(self):
        hierarchy = IntervalHierarchy(attribute="Score", widths=(0.5,))
        assert hierarchy.generalize(0.7, 1) == "[0.5-1)"

    def test_validation(self):
        with pytest.raises(AnonymizationError):
            IntervalHierarchy(attribute="Year", widths=())
        with pytest.raises(AnonymizationError):
            IntervalHierarchy(attribute="Year", widths=(0,))
        with pytest.raises(AnonymizationError):
            IntervalHierarchy(attribute="Year", widths=(10, 5))


class TestIdentityHierarchy:
    def test_only_suppression(self):
        hierarchy = identity_hierarchy("Gender")
        assert hierarchy.height == 1
        assert hierarchy.generalize("Female", 0) == "Female"
        assert hierarchy.generalize("Female", 1) == SUPPRESSED
