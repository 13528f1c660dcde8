"""Pre-defined group baselines from prior work.

The paper positions FaiRank against earlier group-fairness studies that
"either assumed that groups are pre-defined or that they are defined using a
single protected attribute (e.g., males vs females or whites vs blacks)"
(citing Hannák et al. [5] and Singh & Joachims [9]).  The single-attribute
baseline is reproduced here so experiment E12 can show what that view
misses: intersectional (subgroup) bias that only appears when several
protected attributes are combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.formulations import Formulation, MOST_UNFAIR_AVG_EMD
from repro.core.partition import Partitioning
from repro.core.unfairness import unfairness
from repro.data.dataset import Dataset
from repro.errors import PartitioningError
from repro.scoring.base import ScoringFunction

__all__ = ["SingleAttributeResult", "single_attribute_baseline"]


@dataclass(frozen=True)
class SingleAttributeResult:
    """Unfairness measured when groups are defined by one protected attribute."""

    attribute: str
    partitioning: Partitioning
    unfairness: float

    def summary(self) -> Dict[str, object]:
        return {
            "attribute": self.attribute,
            "groups": list(self.partitioning.labels),
            "unfairness": self.unfairness,
        }


def single_attribute_baseline(
    dataset: Dataset,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    attributes: Optional[Sequence[str]] = None,
) -> List[SingleAttributeResult]:
    """Measure unfairness separately for each single protected attribute.

    This is the "males vs females", "whites vs blacks" view of prior work:
    one flat partitioning per protected attribute, no combinations.  Results
    are sorted best-first for the chosen objective.
    """
    dataset.require_non_empty()
    if attributes is None:
        attributes = dataset.schema.protected_names
    results: List[SingleAttributeResult] = []
    for attribute in attributes:
        dataset.schema.require_protected(attribute)
        if len(dataset.distinct_values(attribute)) < 2:
            continue
        partitioning = Partitioning.by_attributes(dataset, [attribute])
        value = unfairness(partitioning, function, formulation)
        results.append(
            SingleAttributeResult(attribute=attribute, partitioning=partitioning, unfairness=value)
        )
    if not results:
        raise PartitioningError(
            "no protected attribute has at least two values; the single-attribute "
            "baseline cannot form any groups"
        )
    results.sort(
        key=lambda r: (-r.unfairness if formulation.objective.is_maximizing else r.unfairness,
                       r.attribute)
    )
    return results

