"""Partition statistics (the "Node box" of the FaiRank interface).

"The user can interact with the returned partitions, view statistics such as
the number of individuals in each partition, as well as a histogram of the
scores of the individuals in each partition" (paper §2).  :func:`node_stats`
computes exactly that bundle for one partition; :func:`tree_stats` summarises
a whole partitioning tree (the "General box").
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.formulations import Formulation, MOST_UNFAIR_AVG_EMD
from repro.core.partition import Partition
from repro.core.scorestore import ScoreStore, store_for
from repro.core.tree import PartitionTree
from repro.core.unfairness import unfairness_breakdown
from repro.scoring.base import ScoringFunction

__all__ = ["node_stats", "tree_stats"]


def node_stats(
    partition: Partition,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    store: Optional[ScoreStore] = None,
) -> Dict[str, object]:
    """Statistics for one partition: size, score summary and histogram.

    This is what clicking a node in the partitioning tree shows in the demo's
    Node box.  Served by ``store`` (a private store over the partition's
    members by default).
    """
    store = store_for(partition.members, function, store)
    histogram = store.histogram(partition, formulation.effective_binning)
    stats = store.statistics(partition)
    return {
        "label": partition.label,
        "constraints": dict(partition.constraints),
        "size": stats["size"],
        "score_mean": stats["mean"],
        "score_min": stats["min"],
        "score_max": stats["max"],
        "score_std": stats["std"],
        "histogram_counts": list(histogram.counts),
        "histogram_edges": [float(edge) for edge in histogram.binning.edges],
        "histogram": histogram.describe(),
    }


def tree_stats(
    tree: PartitionTree,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    store: Optional[ScoreStore] = None,
) -> Dict[str, object]:
    """Statistics for a whole partitioning tree (the demo's General box).

    Includes the tree shape, the unfairness of the leaf partitioning, the
    most and least favoured groups, and the most separated pair of groups.
    Served by ``store`` (a private store over the tree's root by default).
    """
    partitioning = tree.to_partitioning()
    breakdown = unfairness_breakdown(partitioning, function, formulation, store=store)
    summary = tree.summary()
    summary.update(
        {
            "unfairness": breakdown.value,
            "formulation": formulation.name,
            "most_favored": breakdown.most_favored,
            "least_favored": breakdown.least_favored,
            "most_separated_pair": breakdown.most_separated_pair,
        }
    )
    return summary
