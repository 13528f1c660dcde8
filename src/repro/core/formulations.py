"""Unfairness formulations: objective × aggregation × distance.

The paper formulates the search for an unfair partitioning as an optimisation
problem whose objective can vary along three axes:

* **objective** — find the *most* unfair partitioning (argmax, Definition 1)
  or the *least* unfair one (argmin, the "Least Unfair Partitioning Problem");
* **aggregation** — how pairwise distances between partitions are folded into
  a single number: the paper's default is the *average* pairwise EMD
  (Definition 2), with maximum, minimum and variance called out as
  alternatives ("highest average, lowest variance, etc.");
* **distance** — the paper uses EMD between score histograms; other
  histogram distances are pluggable (see :mod:`repro.metrics.distances`).

A :class:`Formulation` bundles the three choices plus the histogram binning,
and exposes the comparison semantics ("is value a better than value b?") the
greedy and exhaustive algorithms need.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from repro.errors import FormulationError
from repro.metrics.distances import DistanceMeasure, EMDDistance, get_distance
from repro.metrics.histogram import DEFAULT_BINS, Binning

__all__ = [
    "Objective",
    "Aggregation",
    "Formulation",
    "MOST_UNFAIR_AVG_EMD",
    "LEAST_UNFAIR_AVG_EMD",
    "resolve_binning",
]


class Objective(str, Enum):
    """Direction of the optimisation over partitionings."""

    MOST_UNFAIR = "most_unfair"
    LEAST_UNFAIR = "least_unfair"

    @property
    def is_maximizing(self) -> bool:
        return self is Objective.MOST_UNFAIR


class Aggregation(str, Enum):
    """How pairwise distances are aggregated into one unfairness value."""

    AVERAGE = "average"
    MAXIMUM = "maximum"
    MINIMUM = "minimum"
    VARIANCE = "variance"

    def apply(self, values: Sequence[float]) -> float:
        """Aggregate a sequence of pairwise distances.

        By convention the aggregation of an empty sequence (a partitioning
        with a single partition has no pairs) is 0.0 — a single group cannot
        be unfair to itself.
        """
        data = np.asarray(
            values if isinstance(values, np.ndarray) else list(values), dtype=float
        )
        if data.size == 0:
            return 0.0
        if self is Aggregation.AVERAGE:
            return float(data.mean())
        if self is Aggregation.MAXIMUM:
            return float(data.max())
        if self is Aggregation.MINIMUM:
            return float(data.min())
        if self is Aggregation.VARIANCE:
            return float(data.var())
        raise FormulationError(f"unhandled aggregation {self!r}")  # pragma: no cover


@dataclass(frozen=True)
class Formulation:
    """A complete unfairness formulation.

    Attributes
    ----------
    objective:
        Whether the search looks for the most or least unfair partitioning.
    aggregation:
        How pairwise histogram distances are folded into one number.
    distance:
        The histogram distance (EMD by default).
    bins:
        Number of equal-width histogram bins over the score range.
    binning:
        Optional explicit binning; when None, the unit interval [0, 1] with
        ``bins`` bins is used (normalised scoring functions).
    """

    objective: Objective = Objective.MOST_UNFAIR
    aggregation: Aggregation = Aggregation.AVERAGE
    distance: DistanceMeasure = EMDDistance
    bins: int = DEFAULT_BINS
    binning: Optional[Binning] = None

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise FormulationError(f"formulation needs at least 1 bin, got {self.bins}")

    # -- configuration ------------------------------------------------------

    @property
    def effective_binning(self) -> Binning:
        """The binning histograms are built over."""
        if self.binning is not None:
            return self.binning
        return Binning.unit(self.bins)

    @property
    def name(self) -> str:
        """Short name, e.g. ``"most_unfair/average/emd"``."""
        return f"{self.objective.value}/{self.aggregation.value}/{self.distance.name}"

    def describe(self) -> str:
        direction = "maximise" if self.objective.is_maximizing else "minimise"
        return (
            f"{direction} the {self.aggregation.value} pairwise {self.distance.name} "
            f"over {self.effective_binning.bins}-bin score histograms"
        )

    # -- comparison semantics -------------------------------------------------

    def aggregate(self, pairwise_values: Sequence[float]) -> float:
        """Aggregate pairwise distances into a single unfairness value."""
        return self.aggregation.apply(pairwise_values)

    def is_better(self, candidate: float, incumbent: float, tolerance: float = 1e-12) -> bool:
        """True when ``candidate`` strictly improves on ``incumbent`` for this objective."""
        if self.objective.is_maximizing:
            return candidate > incumbent + tolerance
        return candidate < incumbent - tolerance

    def best(self, values: Sequence[float]) -> float:
        """The best value among ``values`` for this objective."""
        data = list(values)
        if not data:
            raise FormulationError("cannot take the best of an empty sequence")
        return max(data) if self.objective.is_maximizing else min(data)

    @classmethod
    def from_names(
        cls,
        objective: str = "most_unfair",
        aggregation: str = "average",
        distance: str = "emd",
        bins: int = DEFAULT_BINS,
    ) -> "Formulation":
        """Build a formulation from plain strings (session-layer configuration)."""
        try:
            parsed_objective = Objective(objective)
        except ValueError:
            raise FormulationError(
                f"unknown objective {objective!r}; use 'most_unfair' or 'least_unfair'"
            ) from None
        try:
            parsed_aggregation = Aggregation(aggregation)
        except ValueError:
            raise FormulationError(
                f"unknown aggregation {aggregation!r}; use one of "
                f"{', '.join(a.value for a in Aggregation)}"
            ) from None
        return cls(
            objective=parsed_objective,
            aggregation=parsed_aggregation,
            distance=get_distance(distance),
            bins=bins,
        )


def resolve_binning(formulation: Formulation, binning: Optional[Binning] = None) -> Binning:
    """The single source of truth for the binning a formulation's histograms use.

    Every hot path (``quantify``, ``unfairness``, ``unfairness_breakdown``,
    the score store) resolves its binning through this function, so a
    formulation that omits an explicit ``binning`` gets one consistent
    default (the unit interval with ``formulation.bins`` bins) everywhere.
    Passing an explicit ``binning`` that disagrees with the formulation's is
    an error: histograms built over mismatched binnings silently produce
    meaningless distances, so the mismatch is raised instead.
    """
    effective = formulation.effective_binning
    if binning is not None and binning != effective:
        raise FormulationError(
            f"explicit binning {binning} conflicts with the formulation's binning "
            f"{effective}; drop the explicit binning or build the formulation with "
            "binning=... so every histogram uses the same bins"
        )
    return effective


#: The paper's default formulation (Definitions 1 and 2).
MOST_UNFAIR_AVG_EMD = Formulation()

#: The "Least Unfair Partitioning Problem" variant.
LEAST_UNFAIR_AVG_EMD = Formulation(objective=Objective.LEAST_UNFAIR)
