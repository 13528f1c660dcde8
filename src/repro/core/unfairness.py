"""Computing ``unfairness(P, f)`` for a partitioning under a formulation.

Definition 2 of the paper: the unfairness of a scoring function ``f`` for a
partitioning ``P`` is the average pairwise Earth Mover's Distance between the
score histograms of the partitions of ``P``.  Other aggregations and
distances come from the :class:`~repro.core.formulations.Formulation`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.formulations import Formulation, MOST_UNFAIR_AVG_EMD, resolve_binning
from repro.core.partition import Partitioning
from repro.core.scorestore import ScoreStore, store_for
from repro.errors import FormulationError
from repro.metrics.histogram import Binning, Histogram
from repro.scoring.base import ScoringFunction

__all__ = [
    "unfairness",
    "pairwise_distances",
    "upper_pairs",
    "UnfairnessBreakdown",
    "unfairness_breakdown",
    "favored_groups",
]

#: Histogram counts whose upper-triangle pair indices are memoised; a node
#: rarely has more than a few dozen children plus siblings, and the bound
#: keeps the memo under ~16MB even when filled with the largest entries.
_PAIR_MEMO_MAX_COUNT = 256


@functools.lru_cache(maxsize=32)
def _upper_pairs(count: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(count, k=1)`` as read-only arrays, memoised per count."""
    rows, cols = np.triu_indices(count, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def upper_pairs(count: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(count, k=1)``: every pair ``i < j`` in row-major order.

    Read-only arrays, memoised for counts up to ``_PAIR_MEMO_MAX_COUNT``.
    """
    if count <= _PAIR_MEMO_MAX_COUNT:
        return _upper_pairs(count)
    return np.triu_indices(count, k=1)


def _row_distances(counts: np.ndarray, binning: Binning, formulation: Formulation) -> np.ndarray:
    """Every pairwise distance between the rows of ``counts`` (maybe none), in i < j order."""
    rows = counts.reshape(len(counts), binning.bins)
    return formulation.distance(rows, binning, *upper_pairs(len(counts)))


def pairwise_distances(
    histograms: Sequence[Histogram],
    formulation: Formulation,
) -> List[float]:
    """All pairwise distances between the given histograms (i < j order).

    The histograms must share the formulation's binning (see
    :func:`~repro.core.formulations.resolve_binning`), as in
    :func:`unfairness`.
    """
    if not histograms:
        return []
    binning = resolve_binning(formulation, histograms[0].binning)
    if any(histogram.binning != binning for histogram in histograms):
        raise FormulationError("histograms must share a binning to be compared")
    if len(histograms) < 2:
        return []
    counts = np.array([histogram.counts for histogram in histograms], dtype=np.int64)
    return _row_distances(counts, binning, formulation).tolist()


def unfairness(
    partitioning: Partitioning,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    binning: Optional[Binning] = None,
    store: Optional[ScoreStore] = None,
) -> float:
    """``unfairness(P, f)``: aggregated pairwise histogram distance over ``P``.

    A partitioning with a single partition has unfairness 0 (there are no
    pairs to compare), matching the convention of the paper's optimisation
    problem where at least two groups are needed for unequal treatment.
    An explicit ``binning`` must agree with the formulation's (see
    :func:`~repro.core.formulations.resolve_binning`).  Histograms come from
    ``store`` (a private store over the partitioning's dataset by default,
    see :func:`~repro.core.scorestore.store_for`).
    """
    effective = resolve_binning(formulation, binning)
    store = store_for(partitioning.dataset, function, store)
    counts = np.array([store._counts(partition, effective) for partition in partitioning])
    return formulation.aggregate(_row_distances(counts, effective, formulation))


def _leaf_means(partitioning: Partitioning, store: ScoreStore) -> Dict[str, float]:
    """Mean score per partition label, in label order (0.0 for an empty partition)."""
    means: Dict[str, float] = {}
    for partition, label in zip(partitioning, partitioning.labels):
        scores = store.scores(partition)
        means[label] = float(scores.mean()) if scores.size else 0.0
    return means


def _extremes(means: Dict[str, float]) -> Tuple[Optional[str], Optional[str]]:
    """``(highest, lowest)`` label by mean score; the first label wins a tie."""
    if not means:
        return None, None
    return max(means, key=means.__getitem__), min(means, key=means.__getitem__)


def favored_groups(
    partitioning: Partitioning,
    function: ScoringFunction,
    store: Optional[ScoreStore] = None,
) -> Tuple[Optional[str], Optional[str]]:
    """``(most, least)`` favoured partition labels: highest / lowest mean score.

    The same labels as :attr:`UnfairnessBreakdown.most_favored` and
    :attr:`~UnfairnessBreakdown.least_favored`, from the leaf means alone:
    no histograms and no pairwise distances.  Scores come from ``store``
    (see :func:`~repro.core.scorestore.store_for`).
    """
    store = store_for(partitioning.dataset, function, store)
    return _extremes(_leaf_means(partitioning, store))


@dataclass(frozen=True)
class UnfairnessBreakdown:
    """Detailed unfairness report for a partitioning (session-layer General box)."""

    value: float
    formulation_name: str
    partition_labels: Tuple[str, ...]
    partition_sizes: Tuple[int, ...]
    pairwise: Dict[Tuple[str, str], float]
    most_separated_pair: Optional[Tuple[str, str]]
    least_separated_pair: Optional[Tuple[str, str]]
    mean_scores: Dict[str, float]

    @property
    def most_favored(self) -> Optional[str]:
        """Label of the partition with the highest mean score."""
        return _extremes(self.mean_scores)[0]

    @property
    def least_favored(self) -> Optional[str]:
        """Label of the partition with the lowest mean score."""
        return _extremes(self.mean_scores)[1]

    def as_dict(self) -> Dict[str, object]:
        return {
            "unfairness": self.value,
            "formulation": self.formulation_name,
            "partitions": list(self.partition_labels),
            "sizes": list(self.partition_sizes),
            "most_favored": self.most_favored,
            "least_favored": self.least_favored,
            "most_separated_pair": self.most_separated_pair,
            "least_separated_pair": self.least_separated_pair,
        }


def unfairness_breakdown(
    partitioning: Partitioning,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    binning: Optional[Binning] = None,
    store: Optional[ScoreStore] = None,
) -> UnfairnessBreakdown:
    """Compute unfairness plus the per-pair and per-partition detail.

    The breakdown backs the auditor's fairness report: which pair of groups
    is most separated, which group is most / least favoured (highest / lowest
    mean score), and the individual pairwise distances.  The binning is
    resolved through :func:`~repro.core.formulations.resolve_binning`, so it
    always matches what ``quantify`` optimised; pass the search's ``store``
    to reuse its scoring pass (a private store is built otherwise).
    """
    effective = resolve_binning(formulation, binning)
    store = store_for(partitioning.dataset, function, store)
    counts = np.array([store._counts(partition, effective) for partition in partitioning])
    labels = partitioning.labels

    # Distances come in (i < j) order, as combinations of the labels do.
    values = _row_distances(counts, effective, formulation).tolist()
    pairwise: Dict[Tuple[str, str], float] = dict(zip(itertools.combinations(labels, 2), values))

    most_separated = max(pairwise, key=lambda k: pairwise[k]) if pairwise else None
    least_separated = min(pairwise, key=lambda k: pairwise[k]) if pairwise else None

    return UnfairnessBreakdown(
        value=formulation.aggregate(values),
        formulation_name=formulation.name,
        partition_labels=tuple(labels),
        partition_sizes=partitioning.sizes,
        pairwise=pairwise,
        most_separated_pair=most_separated,
        least_separated_pair=least_separated,
        mean_scores=_leaf_means(partitioning, store),
    )
