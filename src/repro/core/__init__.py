"""Core contribution: partitionings, unfairness, QUANTIFY and the exact baseline (S4-S7)."""

from repro.core.exhaustive import (
    ExhaustiveResult,
    count_partitionings,
    enumerate_partitionings,
    exhaustive_search,
)
from repro.core.formulations import (
    LEAST_UNFAIR_AVG_EMD,
    MOST_UNFAIR_AVG_EMD,
    Aggregation,
    Formulation,
    Objective,
    resolve_binning,
)
from repro.core.partition import Partition, Partitioning, root_partition, split_partition
from repro.core.quantify import QuantifyResult, most_unfair_attribute, quantify
from repro.core.scorestore import ScoreStore, ScoreStoreStats
from repro.core.tree import PartitionNode, PartitionTree
from repro.core.unfairness import (
    UnfairnessBreakdown,
    favored_groups,
    pairwise_distances,
    unfairness,
    unfairness_breakdown,
)

__all__ = [
    "Partition",
    "Partitioning",
    "root_partition",
    "split_partition",
    "PartitionNode",
    "PartitionTree",
    "Objective",
    "Aggregation",
    "Formulation",
    "MOST_UNFAIR_AVG_EMD",
    "LEAST_UNFAIR_AVG_EMD",
    "resolve_binning",
    "ScoreStore",
    "ScoreStoreStats",
    "unfairness",
    "unfairness_breakdown",
    "UnfairnessBreakdown",
    "favored_groups",
    "pairwise_distances",
    "quantify",
    "QuantifyResult",
    "most_unfair_attribute",
    "exhaustive_search",
    "ExhaustiveResult",
    "enumerate_partitionings",
    "count_partitionings",
]
