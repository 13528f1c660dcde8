"""Information-loss and privacy metrics for anonymised datasets.

The transparency experiments need to report not only how k-anonymisation
changes the *measured unfairness* but also how much data utility was paid for
the privacy.  The metrics here are the standard ones ARX reports:

* **generalisation intensity** — average fraction of each hierarchy's height
  that was consumed (0 = raw data, 1 = everything suppressed);
* **discernibility** — sum over records of the size of their equivalence
  class (Bayardo & Agrawal), lower is better;
* **average equivalence-class size ratio** (``C_avg``) — average class size
  divided by k, the classic normalised class-size metric;
* **suppression rate** — fraction of records dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.anonymize.hierarchy import GeneralizationHierarchy
from repro.anonymize.kanonymity import (
    CATEGORICAL_JOINER,
    AnonymizationResult,
    equivalence_classes,
)
from repro.data.dataset import Dataset
from repro.errors import AnonymizationError

__all__ = ["InformationLoss", "information_loss", "discernibility", "average_class_size_ratio"]


@dataclass(frozen=True)
class InformationLoss:
    """Bundle of utility metrics for one anonymisation result."""

    generalization_intensity: float
    discernibility: float
    average_class_size_ratio: float
    suppression_rate: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "generalization_intensity": self.generalization_intensity,
            "discernibility": self.discernibility,
            "average_class_size_ratio": self.average_class_size_ratio,
            "suppression_rate": self.suppression_rate,
        }


def discernibility(dataset: Dataset, quasi_identifiers: Sequence[str]) -> float:
    """Discernibility metric: sum over records of their equivalence-class size."""
    classes = equivalence_classes(dataset, quasi_identifiers)
    return float(sum(size * size for size in classes.values()))


def average_class_size_ratio(dataset: Dataset, quasi_identifiers: Sequence[str], k: int) -> float:
    """``C_avg``: (n / number of classes) / k; 1.0 is the ideal value."""
    if k < 1:
        raise AnonymizationError(f"k must be >= 1, got {k}")
    if not len(dataset):
        return 0.0
    classes = equivalence_classes(dataset, quasi_identifiers)
    return (len(dataset) / len(classes)) / k


def information_loss(
    result: AnonymizationResult,
    hierarchies: Optional[Mapping[str, GeneralizationHierarchy]] = None,
) -> InformationLoss:
    """Compute the information-loss bundle for an anonymisation result.

    ``hierarchies`` is only needed to normalise the generalisation intensity
    of global recoding; Mondrian results (no global levels) report intensity
    based on how many quasi-identifier values became non-atomic (interval or
    set labels).
    """
    quasi_identifiers = result.quasi_identifiers
    dataset = result.dataset

    if result.levels:
        ratios = []
        for name in quasi_identifiers:
            level = result.levels.get(name, 0)
            if hierarchies and name in hierarchies:
                height = max(hierarchies[name].height, 1)
            else:
                height = max(level, 1)
            ratios.append(level / height)
        intensity = sum(ratios) / len(ratios) if ratios else 0.0
    else:
        # Local recoding: count generalised (non-atomic) cells, value by value.
        generalised_cells = sum(
            count
            for name in quasi_identifiers
            for value, count in dataset.value_counts(name).items()
            if isinstance(value, str)
            and (value.startswith("[") or CATEGORICAL_JOINER in value or value == "*")
        )
        total_cells = len(dataset) * len(quasi_identifiers)
        intensity = generalised_cells / total_cells if total_cells else 0.0

    return InformationLoss(
        generalization_intensity=float(intensity),
        discernibility=discernibility(dataset, quasi_identifiers),
        average_class_size_ratio=average_class_size_ratio(dataset, quasi_identifiers, result.k),
        suppression_rate=result.suppression_rate,
    )
