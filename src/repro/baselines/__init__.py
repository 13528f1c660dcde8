"""Baseline from prior work: groups defined by one protected attribute (S8)."""

from repro.baselines.predefined import SingleAttributeResult, single_attribute_baseline

__all__ = ["SingleAttributeResult", "single_attribute_baseline"]
