"""The greedy QUANTIFY algorithm (Algorithm 1 of the paper).

Exhaustively enumerating every full-disjoint partitioning of the population
over its protected attribute values is exponential; to keep response time
interactive FaiRank greedily grows a partitioning tree instead:

1. split the whole population on the *most unfair* attribute (the attribute
   whose split produces the most unfair set of children under the chosen
   formulation);
2. for each resulting partition, recursively decide whether to split it
   further: compute the unfairness of the local partitioning formed by the
   partition and its siblings (``currentAvg``), tentatively split it on the
   locally most unfair remaining attribute, compute the unfairness of the
   local partitioning with the partition replaced by its children
   (``childrenAvg``), and keep the split only if it improves the objective
   (for the most-unfair objective: ``childrenAvg > currentAvg``);
3. stop when no attributes remain or no split improves the objective.

This mirrors the local gain test of decision-tree induction.  The result is
returned both as a :class:`~repro.core.tree.PartitionTree` (what the UI
renders) and as the leaf :class:`~repro.core.partition.Partitioning`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.formulations import Formulation, MOST_UNFAIR_AVG_EMD, resolve_binning
from repro.core.partition import Partition, Partitioning, root_partition, split_partition
from repro.core.scorestore import ScoreStore, store_for
from repro.core.tree import PartitionNode, PartitionTree
from repro.core.unfairness import pairwise_distances, unfairness
from repro.data.dataset import Dataset
from repro.errors import PartitioningError
from repro.metrics.histogram import Binning, Histogram
from repro.scoring.base import ScoringFunction

__all__ = ["QuantifyResult", "quantify", "most_unfair_attribute"]


@dataclass
class QuantifyResult:
    """Output of the greedy QUANTIFY search.

    Attributes
    ----------
    tree:
        The partitioning tree grown by the algorithm (internal nodes record
        which attribute they were split on).
    partitioning:
        The final full-disjoint partitioning (the tree's leaves).
    unfairness:
        ``unfairness(P, f)`` of that partitioning under the formulation used.
    formulation:
        The formulation the search optimised.
    splits_evaluated:
        Number of candidate (partition, attribute) splits whose histograms
        were evaluated — the work measure reported by the scalability bench.
    """

    tree: PartitionTree
    partitioning: Partitioning
    unfairness: float
    formulation: Formulation
    splits_evaluated: int = 0

    @property
    def partition_labels(self) -> Tuple[str, ...]:
        return self.partitioning.labels

    def summary(self) -> Dict[str, object]:
        summary = self.tree.summary()
        summary["unfairness"] = self.unfairness
        summary["formulation"] = self.formulation.name
        summary["splits_evaluated"] = self.splits_evaluated
        return summary


class _SplitCounter:
    """Mutable counter shared across the recursion (explicit, no globals)."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, amount: int = 1) -> None:
        self.count += amount


def _candidate_histograms(
    partition: Partition,
    attributes: Sequence[str],
    binning: Binning,
    min_partition_size: int,
    store: ScoreStore,
) -> Dict[str, Tuple[Histogram, ...]]:
    """Admissible candidate splits as histogram batches, one per attribute.

    A split is admissible when it yields at least two children and every
    child keeps at least ``min_partition_size`` members, so the search never
    considers splits it would have to reject later.  Candidates are evaluated
    by the store without materialising child partitions; the caller
    materialises only the winner.
    """
    schema = partition.members.schema
    evaluated: Dict[str, Tuple[Histogram, ...]] = {}
    for attribute in attributes:
        attr = schema.require_protected(attribute)
        if attribute in partition.constrained_attributes:
            raise PartitioningError(
                f"partition {partition.label!r} already constrains {attribute!r}"
            )
        values, sizes, batch = store.candidate_split(partition, attr, binning)
        if len(values) < 2 or any(size < min_partition_size for size in sizes):
            continue
        evaluated[attribute] = batch
    return evaluated


def most_unfair_attribute(
    partition: Partition,
    function: ScoringFunction,
    attributes: Sequence[str],
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    siblings: Sequence[Histogram] = (),
    counter: Optional[_SplitCounter] = None,
    min_partition_size: int = 1,
    store: Optional[ScoreStore] = None,
) -> Optional[Tuple[str, Tuple[Partition, ...], float]]:
    """Pick the attribute whose split of ``partition`` is best for the objective.

    Candidate splits are scored by the aggregated pairwise distance among the
    children *and* the existing siblings (when provided), i.e. the unfairness
    the overall partitioning would exhibit locally if the split were applied.
    Returns ``(attribute, children, score)`` or ``None`` when no attribute
    can split the partition into two or more children of at least
    ``min_partition_size`` members.  The :class:`~repro.core.scorestore.ScoreStore`
    (a private one over the partition's members by default, see
    :func:`~repro.core.scorestore.store_for`) serves every candidate's
    histograms, and only the winning attribute's children are materialised.
    """
    store = store_for(partition.members, function, store)
    evaluated = _candidate_histograms(
        partition, attributes, resolve_binning(formulation), min_partition_size, store
    )
    if not evaluated:
        return None

    best_attribute: Optional[str] = None
    best_score = 0.0
    for attribute in sorted(evaluated):
        child_histograms = evaluated[attribute]
        if counter is not None:
            counter.add(len(child_histograms))
        all_histograms = list(child_histograms) + list(siblings)
        score = formulation.aggregate(pairwise_distances(all_histograms, formulation))
        if best_attribute is None or formulation.is_better(score, best_score):
            best_attribute, best_score = attribute, score
    assert best_attribute is not None
    return (best_attribute, split_partition(partition, best_attribute, store=store), best_score)


def _quantify_node(
    node: PartitionNode,
    sibling_histograms: Sequence[Histogram],
    function: ScoringFunction,
    attributes: Tuple[str, ...],
    formulation: Formulation,
    counter: _SplitCounter,
    max_depth: Optional[int],
    min_partition_size: int,
    depth: int,
    store: ScoreStore,
) -> None:
    """Recursive body of Algorithm 1, growing the tree in place."""
    binning = resolve_binning(formulation)
    partition = node.partition

    if not attributes:
        return
    if max_depth is not None and depth >= max_depth:
        return
    if partition.size < 2 * min_partition_size:
        # Splitting cannot yield two children of at least min_partition_size.
        return

    current_histogram = store.histogram(partition, binning)
    # currentAvg (Algorithm 1, line 4): the unfairness the local partitioning
    # {current} ∪ siblings exhibits, i.e. the aggregated pairwise distance
    # over that set of histograms.
    current_value = formulation.aggregate(
        pairwise_distances([current_histogram] + list(sibling_histograms), formulation)
    )
    node.annotation["vs_siblings"] = current_value

    choice = most_unfair_attribute(
        partition,
        function,
        attributes,
        formulation=formulation,
        siblings=sibling_histograms,
        counter=counter,
        min_partition_size=min_partition_size,
        store=store,
    )
    if choice is None:
        return
    attribute, children, _ = choice

    # childrenAvg (Algorithm 1, line 8): the unfairness the local partitioning
    # would exhibit if current were replaced by its children.
    child_histograms = [store.histogram(child, binning) for child in children]
    children_value = formulation.aggregate(
        pairwise_distances(child_histograms + list(sibling_histograms), formulation)
    )
    node.annotation["children_vs_siblings"] = children_value

    # Algorithm 1, line 9: keep the partition unless replacing it by its
    # children improves the objective of the local partitioning.  (With no
    # siblings this degenerates to "split only if the children differ at
    # all", since a single partition has zero unfairness.)
    if not formulation.is_better(children_value, current_value):
        return

    remaining = tuple(a for a in attributes if a != attribute)
    node.split_attribute = attribute
    child_nodes = [node.add_child(PartitionNode(partition=child)) for child in children]

    for index, child_node in enumerate(child_nodes):
        new_siblings = [h for i, h in enumerate(child_histograms) if i != index]
        _quantify_node(
            child_node,
            new_siblings,
            function,
            remaining,
            formulation,
            counter,
            max_depth,
            min_partition_size,
            depth + 1,
            store=store,
        )


def quantify(
    dataset: Dataset,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    attributes: Optional[Sequence[str]] = None,
    max_depth: Optional[int] = None,
    min_partition_size: int = 1,
    *,
    store: Optional[ScoreStore] = None,
) -> QuantifyResult:
    """Run the greedy QUANTIFY search (Algorithm 1) end to end.

    Parameters
    ----------
    dataset:
        The individuals to partition.
    function:
        The scoring function under audit.
    formulation:
        Objective / aggregation / distance / binning (paper default:
        maximise the average pairwise EMD).
    attributes:
        Protected attributes the search may split on (default: every
        protected attribute of the dataset schema).
    max_depth:
        Optional cap on tree depth (number of nested splits); at least 1,
        since the search always tries the root split.
    min_partition_size:
        Minimum number of individuals a partition must keep for a split to
        be considered (1 reproduces the paper exactly; larger values avoid
        singleton groups on large noisy datasets).
    store:
        The :class:`~repro.core.scorestore.ScoreStore` serving scores and
        histograms; by default a private store over ``dataset``, so the
        search scores each individual exactly once.  Pass the service
        layer's store to share one scoring pass across requests over the
        same (dataset, function); a store for another function raises
        :class:`~repro.errors.ScoringError`.

    Returns
    -------
    QuantifyResult
        Tree, leaf partitioning, its unfairness and search statistics.
    """
    dataset.require_non_empty()
    if min_partition_size < 1:
        raise PartitioningError(f"min_partition_size must be >= 1, got {min_partition_size}")
    if max_depth is not None and max_depth < 1:
        raise PartitioningError(f"max_depth must be >= 1, got {max_depth}")
    if attributes is None:
        attributes = dataset.schema.protected_names
    else:
        for attribute in attributes:
            dataset.schema.require_protected(attribute)
        attributes = tuple(dict.fromkeys(attributes))
    if not attributes:
        raise PartitioningError("QUANTIFY needs at least one protected attribute to split on")

    counter = _SplitCounter()
    root = PartitionNode(partition=root_partition(dataset))
    binning = resolve_binning(formulation)
    store = store_for(dataset, function, store)

    # First invocation (paper §3.2): split the whole population on the most
    # unfair attribute, then run the recursive procedure once per resulting
    # partition with the other partitions as its siblings.
    first_choice = most_unfair_attribute(
        root.partition,
        function,
        attributes,
        formulation=formulation,
        siblings=(),
        counter=counter,
        min_partition_size=min_partition_size,
        store=store,
    )
    if first_choice is not None:
        attribute, children, _ = first_choice
        root.split_attribute = attribute
        remaining = tuple(a for a in attributes if a != attribute)
        child_nodes = [root.add_child(PartitionNode(partition=child)) for child in children]
        child_histograms = [store.histogram(child, binning) for child in children]
        for index, child_node in enumerate(child_nodes):
            siblings = [h for i, h in enumerate(child_histograms) if i != index]
            _quantify_node(
                child_node,
                siblings,
                function,
                remaining,
                formulation,
                counter,
                max_depth,
                min_partition_size,
                depth=1,
                store=store,
            )

    tree = PartitionTree(root)
    # The tree was grown by recursive splits, so its leaves partition the
    # population by construction; re-validating would re-walk every uid.
    partitioning = tree.to_partitioning(validate=False)
    value = unfairness(partitioning, function, formulation, store=store)
    return QuantifyResult(
        tree=tree,
        partitioning=partitioning,
        unfairness=value,
        formulation=formulation,
        splits_evaluated=counter.count,
    )
