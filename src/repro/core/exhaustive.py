"""Exhaustive enumeration of tree-structured partitionings (exact baseline).

"To identify the most unfair partitioning, one must exhaust all possible full
disjoint partitionings of individuals based on their protected attributes"
(paper §3.1) — which is exponential in the number of protected attribute
values, and is exactly why the greedy Algorithm 1 exists.  This module
implements that exhaustive search so the reproduction can measure how close
the greedy heuristic gets to the true optimum and how much faster it is
(experiment E4 of DESIGN.md).

The enumerated space is the space the greedy algorithm searches over:
*hierarchical* partitionings in which a group is either kept whole or split
by one of the remaining protected attributes, recursively (each branch may
use a different attribute order).  This matches the paper's decision-tree
framing of the problem and keeps the optimum comparable to the greedy output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.core.formulations import Formulation, MOST_UNFAIR_AVG_EMD
from repro.core.partition import Partition, Partitioning, root_partition, split_partition
from repro.core.scorestore import ScoreStore, store_for
from repro.core.unfairness import unfairness
from repro.data.dataset import Dataset
from repro.errors import PartitioningError
from repro.scoring.base import ScoringFunction

__all__ = [
    "ExhaustiveResult",
    "enumerate_partitionings",
    "exhaustive_search",
    "count_partitionings",
]


@dataclass
class ExhaustiveResult:
    """Output of the exhaustive search.

    ``partitioning``/``unfairness`` describe the optimum; ``explored`` is the
    number of distinct full-disjoint partitionings whose unfairness was
    evaluated (the cost the greedy heuristic avoids).
    """

    partitioning: Partitioning
    unfairness: float
    formulation: Formulation
    explored: int

    def summary(self) -> Dict[str, object]:
        return {
            "unfairness": self.unfairness,
            "partitions": len(self.partitioning),
            "labels": list(self.partitioning.labels),
            "explored": self.explored,
            "formulation": self.formulation.name,
        }


def _enumerate_group(
    partition: Partition, attributes: Tuple[str, ...]
) -> Iterator[Tuple[Partition, ...]]:
    """All hierarchical partitionings of one group over the given attributes.

    Yields tuples of leaf partitions.  The group can always be kept whole;
    otherwise it is split on any one attribute and the children's
    sub-partitionings are combined in every possible way.
    """
    yield (partition,)
    if partition.size < 2:
        return
    for attribute in attributes:
        children = split_partition(partition, attribute)
        if len(children) < 2:
            continue
        remaining = tuple(a for a in attributes if a != attribute)
        yield from _combine_children(children, remaining, index=0, prefix=())


def _combine_children(
    children: Tuple[Partition, ...],
    attributes: Tuple[str, ...],
    index: int,
    prefix: Tuple[Partition, ...],
) -> Iterator[Tuple[Partition, ...]]:
    """Cartesian product of the sub-partitionings of each child."""
    if index == len(children):
        yield prefix
        return
    for sub in _enumerate_group(children[index], attributes):
        yield from _combine_children(children, attributes, index + 1, prefix + sub)


def enumerate_partitionings(
    dataset: Dataset,
    attributes: Optional[Sequence[str]] = None,
    require_multiple: bool = True,
    limit: Optional[int] = None,
) -> Iterator[Partitioning]:
    """Enumerate distinct full-disjoint hierarchical partitionings of ``dataset``.

    Parameters
    ----------
    dataset:
        The population to partition.
    attributes:
        Protected attributes to consider (default: all).
    require_multiple:
        Skip the trivial single-partition partitioning (whose unfairness is 0
        and which is never a meaningful "most unfair" answer).
    limit:
        Safety cap on the number of partitionings yielded; exceeding it
        raises :class:`PartitioningError` so callers notice they asked for an
        infeasible enumeration instead of silently truncating the search.
    """
    dataset.require_non_empty()
    if attributes is None:
        attributes = dataset.schema.protected_names
    else:
        for attribute in attributes:
            dataset.schema.require_protected(attribute)
    attributes = tuple(dict.fromkeys(attributes))

    seen: set = set()
    produced = 0
    root = root_partition(dataset)
    for leaves in _enumerate_group(root, attributes):
        if require_multiple and len(leaves) < 2:
            continue
        partitioning = Partitioning(dataset, leaves, validate=False)
        key = partitioning.key()
        if key in seen:
            continue
        seen.add(key)
        produced += 1
        if limit is not None and produced > limit:
            raise PartitioningError(
                f"exhaustive enumeration exceeded the limit of {limit} partitionings; "
                "reduce the number of protected attributes or use quantify() instead"
            )
        yield partitioning


def count_partitionings(
    dataset: Dataset,
    attributes: Optional[Sequence[str]] = None,
    limit: Optional[int] = 1_000_000,
) -> int:
    """Number of distinct hierarchical partitionings (the search-space size)."""
    return sum(
        1
        for _ in enumerate_partitionings(
            dataset, attributes=attributes, require_multiple=True, limit=limit
        )
    )


def exhaustive_search(
    dataset: Dataset,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    attributes: Optional[Sequence[str]] = None,
    limit: Optional[int] = 200_000,
    *,
    store: Optional[ScoreStore] = None,
) -> ExhaustiveResult:
    """Find the exact optimum partitioning by enumerating the whole space.

    Ties are broken in favour of the partitioning with fewer partitions
    (simpler explanations first), then by label order, so results are
    deterministic across runs.

    The same leaf partitions recur in exponentially many enumerated
    partitionings, so the search scores through one
    :class:`~repro.core.scorestore.ScoreStore`: a private store over
    ``dataset``, or ``store=`` to share an existing one.
    """
    store = store_for(dataset, function, store)
    best_partitioning: Optional[Partitioning] = None
    best_value = 0.0
    explored = 0
    for partitioning in enumerate_partitionings(
        dataset, attributes=attributes, require_multiple=True, limit=limit
    ):
        explored += 1
        value = unfairness(partitioning, function, formulation, store=store)
        if best_partitioning is None:
            best_partitioning, best_value = partitioning, value
            continue
        if formulation.is_better(value, best_value):
            best_partitioning, best_value = partitioning, value
        elif abs(value - best_value) <= 1e-12:
            candidate_key = (len(partitioning), partitioning.labels)
            incumbent_key = (len(best_partitioning), best_partitioning.labels)
            if candidate_key < incumbent_key:
                best_partitioning, best_value = partitioning, value

    if best_partitioning is None:
        # No attribute can split the population (all constant): the only
        # partitioning is the trivial one.
        best_partitioning = Partitioning.single(dataset)
        best_value = 0.0
        explored = 1

    return ExhaustiveResult(
        partitioning=best_partitioning,
        unfairness=best_value,
        formulation=formulation,
        explored=explored,
    )
