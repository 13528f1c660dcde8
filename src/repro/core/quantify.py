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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.formulations import Formulation, MOST_UNFAIR_AVG_EMD, resolve_binning
from repro.core.partition import Partition, Partitioning, root_partition, split_partition
from repro.core.scorestore import ScoreStore, store_for
from repro.core.tree import PartitionNode, PartitionTree
from repro.core.unfairness import _row_distances, upper_pairs
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


def _candidate_counts(
    partition: Partition,
    attributes: Sequence[str],
    binning: Binning,
    min_partition_size: int,
    store: ScoreStore,
) -> Dict[str, np.ndarray]:
    """Admissible candidate splits as count-row batches, one per attribute.

    A split is admissible when it yields at least two children and every
    child keeps at least ``min_partition_size`` members, so the search never
    considers splits it would have to reject later.  Candidates are evaluated
    by the store without materialising child partitions; the caller
    materialises only the winner.
    """
    schema = partition.members.schema
    evaluated: Dict[str, np.ndarray] = {}
    for attribute in attributes:
        attr = schema.require_protected(attribute)
        if attribute in partition.constrained_attributes:
            raise PartitioningError(
                f"partition {partition.label!r} already constrains {attribute!r}"
            )
        values, sizes, counts = store.candidate_split(partition, attr, binning)
        if len(values) < 2 or any(size < min_partition_size for size in sizes):
            continue
        evaluated[attribute] = counts
    return evaluated


def _score_node(
    own: Optional[np.ndarray],
    siblings: np.ndarray,
    candidates: Sequence[np.ndarray],
    binning: Binning,
    formulation: Formulation,
) -> Tuple[float, List[float]]:
    """``(currentAvg, one score per candidate)`` for one node, in one batch.

    ``own`` (a count row; currentAvg is 0.0 without it) is scored as a first
    candidate with one child.  Sibling and child rows form one count matrix,
    and every distance comes from one ``formulation.distance`` call.  A
    candidate's score aggregates the distances of ``children + siblings`` in
    the i < j order of :func:`~repro.core.unfairness.pairwise_distances`:
    first every pair that involves a child, then the sibling×sibling block,
    computed once and shared by every candidate.  So ``aggregate`` sees the
    same floats in the same order as from one ``pairwise_distances`` call
    per set.
    """
    if own is not None:
        candidates = [own[None, :], *candidates]
    count = len(siblings)
    block_rows, block_cols = upper_pairs(count)
    blocks, rows, cols = [siblings], [block_rows], [block_cols]
    start = count
    for children in candidates:
        # Each candidate's rows are its children followed by a repeat of the
        # siblings' rows, so its pairs are upper_pairs(children + siblings)
        # shifted by one offset.  Row-major, the pairs whose first member is
        # a child come first.
        pair_rows, pair_cols = upper_pairs(len(children) + count)
        involving = pair_rows.size - block_rows.size
        rows.append(pair_rows[:involving] + start)
        cols.append(pair_cols[:involving] + start)
        blocks.extend((children, siblings))
        start += len(children) + count
    if start < 2:
        return 0.0, []
    values = formulation.distance(
        np.concatenate(blocks), binning, np.concatenate(rows), np.concatenate(cols)
    )
    ends = np.cumsum([part.size for part in rows]).tolist()
    block = values[: ends[0]]
    scores = [
        formulation.aggregate(np.concatenate((values[start:end], block)))
        for start, end in zip(ends, ends[1:])
    ]
    if own is None:
        return 0.0, scores
    return scores[0], scores[1:]


@dataclass
class _Search:
    """What every node of one greedy search shares, its split count and leaf rows.

    Depth first, :meth:`grow` keeps leaf rows in :meth:`PartitionNode.leaves` order.
    """

    formulation: Formulation
    binning: Binning
    store: ScoreStore
    min_partition_size: int = 1
    max_depth: Optional[int] = None
    splits_evaluated: int = 0
    leaves: List[np.ndarray] = field(default_factory=list)

    def best_split(
        self,
        partition: Partition,
        own: Optional[np.ndarray],
        siblings: np.ndarray,
        attributes: Sequence[str],
    ) -> Tuple[float, Optional[Tuple[str, Tuple[Partition, ...], float, np.ndarray]]]:
        """``(currentAvg, best split)`` of one node, scored by :func:`_score_node`.

        The best split is ``(attribute, children, score, child count rows)``,
        or ``None`` when no attribute is admissible; currentAvg is 0.0 when
        ``own`` is not given.  Ties go to the first attribute by name.
        """
        evaluated = _candidate_counts(
            partition, attributes, self.binning, self.min_partition_size, self.store
        )
        order = sorted(evaluated)
        candidates = [evaluated[attribute] for attribute in order]
        current, scores = _score_node(own, siblings, candidates, self.binning, self.formulation)
        best: Optional[Tuple[str, float]] = None
        for attribute, score in zip(order, scores):
            self.splits_evaluated += len(evaluated[attribute])
            if best is None or self.formulation.is_better(score, best[1]):
                best = (attribute, score)
        if best is None:
            return current, None
        attribute, score = best
        children = split_partition(partition, attribute, store=self.store)
        return current, (attribute, children, score, evaluated[attribute])

    def grow(
        self,
        node: PartitionNode,
        attribute: str,
        children: Tuple[Partition, ...],
        counts: np.ndarray,
        attributes: Tuple[str, ...],
        depth: int,
    ) -> None:
        """Split ``node`` on ``attribute`` and run Algorithm 1 on each child."""
        remaining = tuple(a for a in attributes if a != attribute)
        node.split_attribute = attribute
        for index, child in enumerate(children):
            child_node = node.add_child(PartitionNode(partition=child))
            self.visit(child_node, counts, index, remaining, depth)
            if child_node.is_leaf:
                # Finalised: any leaves below a child were kept while visiting it.
                self.leaves.append(counts[index])

    def visit(
        self,
        node: PartitionNode,
        counts: np.ndarray,
        index: int,
        attributes: Tuple[str, ...],
        depth: int,
    ) -> None:
        """Algorithm 1 for the node of row ``counts[index]``, growing the tree in place."""
        if not attributes:
            return
        if self.max_depth is not None and depth >= self.max_depth:
            return
        if node.partition.size < 2 * self.min_partition_size:
            # Splitting cannot yield two children of at least min_partition_size.
            return

        # currentAvg (Algorithm 1, line 4): the unfairness the local
        # partitioning {current} ∪ siblings exhibits, i.e. the aggregated
        # pairwise distance over that set of histograms.  childrenAvg
        # (line 8): the unfairness it would exhibit if current were replaced
        # by its children, which is the winning candidate's score (the same
        # histograms in the same order).
        own, siblings = counts[index], np.delete(counts, index, axis=0)
        current_value, choice = self.best_split(node.partition, own, siblings, attributes)
        node.annotation["vs_siblings"] = current_value
        if choice is None:
            return
        attribute, children, children_value, child_counts = choice
        node.annotation["children_vs_siblings"] = children_value

        # Algorithm 1, line 9: keep the partition unless replacing it by its
        # children improves the objective of the local partitioning.  (With
        # no siblings this degenerates to "split only if the children differ
        # at all", since a single partition has zero unfairness.)
        if self.formulation.is_better(children_value, current_value):
            self.grow(node, attribute, children, child_counts, attributes, depth + 1)


def most_unfair_attribute(
    partition: Partition,
    function: ScoringFunction,
    attributes: Sequence[str],
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    siblings: Sequence[Histogram] = (),
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
    search = _Search(formulation, resolve_binning(formulation), store, min_partition_size)
    rows = np.array([sibling.counts for sibling in siblings], dtype=np.int64)
    rows = rows.reshape(len(siblings), search.binning.bins)
    _, choice = search.best_split(partition, None, rows, attributes)
    return None if choice is None else choice[:3]


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

    root = PartitionNode(partition=root_partition(dataset))
    store = store_for(dataset, function, store)
    search = _Search(
        formulation, resolve_binning(formulation), store, min_partition_size, max_depth
    )

    # First invocation (paper §3.2): split the whole population on the most
    # unfair attribute, then run the recursive procedure once per resulting
    # partition with the other partitions as its siblings.
    no_siblings = np.empty((0, search.binning.bins), dtype=np.int64)
    _, first_choice = search.best_split(root.partition, None, no_siblings, attributes)
    if first_choice is not None:
        attribute, children, _, counts = first_choice
        search.grow(root, attribute, children, counts, attributes, depth=1)

    tree = PartitionTree(root)
    # The tree was grown by recursive splits, so its leaves partition the
    # population by construction; re-validating would re-walk every uid.
    partitioning = tree.to_partitioning(validate=False)
    # unfairness(P, f) from the leaves' rows, kept in partitioning order (a
    # root that no attribute splits is the only leaf: no pairs, so 0).
    return QuantifyResult(
        tree=tree,
        partitioning=partitioning,
        unfairness=formulation.aggregate(
            _row_distances(np.array(search.leaves), search.binning, formulation)
        ),
        formulation=formulation,
        splits_evaluated=search.splits_evaluated,
    )
