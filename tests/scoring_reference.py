"""Independent, store-free reference for partition scores and QUANTIFY.

``repro`` answers every "scores / histogram of this partition under this
function" question through :class:`repro.core.scorestore.ScoreStore`.  This
module answers the same questions the direct way — score each partition's
members with :func:`repro.scoring.base.frozen_scores` and bin them with
:func:`repro.metrics.histogram.build_histogram`, compare them one pair at a
time (``distance_reference``) — and runs the greedy Algorithm 1 over
group-by splits on top of that.  The store-equivalence tests and
``benchmarks/bench_quantify.py`` compare the store against it: results must
match exactly, and the store must be faster.

The rank-derived scores of the function-opaque setting and the end
user's rank statistics have their one-position-at-a-time references here
too (:func:`reference_rank_scores`, :func:`reference_rank_fingerprint`,
:func:`reference_group_ranks`): the library computes them as arrays.

Tests import it as ``scoring_reference``; the benchmarks as
``tests.scoring_reference``.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.formulations import MOST_UNFAIR_AVG_EMD, Formulation, resolve_binning
from repro.core.partition import Partition, Partitioning, root_partition, split_partition
from repro.core.quantify import QuantifyResult
from repro.core.tree import PartitionNode, PartitionTree
from repro.core.unfairness import UnfairnessBreakdown
from repro.data.dataset import Dataset, order_values
from repro.data.schema import Attribute
from repro.metrics.histogram import Binning, Histogram, build_histogram
from repro.scoring.base import Ranking, ScoringFunction, frozen_scores

if __package__:  # imported as ``tests.scoring_reference``
    from tests.distance_reference import reference_pairwise
else:
    from distance_reference import reference_pairwise

__all__ = [
    "DirectScorer",
    "reference_bin_codes",
    "reference_breakdown",
    "reference_candidate_counts",
    "reference_candidate_split",
    "reference_group_ranks",
    "reference_quantify",
    "reference_rank_fingerprint",
    "reference_rank_scores",
    "reference_statistics",
    "reference_unfairness",
]


class DirectScorer:
    """Scores each partition's members directly, once per members object."""

    def __init__(self, function: ScoringFunction) -> None:
        self.function = function
        # id(members) -> (members, scores); holding members keeps ids unique.
        self._memo: Dict[int, Tuple[Dataset, np.ndarray]] = {}

    def scores(self, partition: Partition) -> np.ndarray:
        members = partition.members
        cached = self._memo.get(id(members))
        if cached is None:
            cached = (members, frozen_scores(self.function, members))
            self._memo[id(members)] = cached
        return cached[1]

    def histogram(self, partition: Partition, binning: Optional[Binning] = None) -> Histogram:
        return build_histogram(self.scores(partition), binning=binning)


def reference_bin_codes(scores: np.ndarray, binning: Binning) -> np.ndarray:
    """Per-row bin codes by binary search: the store's codes, computed the slow way.

    Clip into the binning's range, ``searchsorted`` into the edges (right-open
    bins, last edge inclusive), and give NaN the sentinel code ``bins``.
    """
    edges = binning.edges
    clipped = np.clip(scores, edges[0], edges[-1])
    codes = np.searchsorted(edges, clipped, side="right") - 1
    np.clip(codes, 0, binning.bins - 1, out=codes)
    codes[np.isnan(clipped)] = binning.bins
    return codes


def reference_candidate_counts(
    dataset: Dataset,
    attr: Attribute,
    bin_codes: np.ndarray,
    binning: Binning,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(value code × bin code) counts of one attribute: one ``bincount`` per attribute.

    The score store's kernel before it counted root attributes in packs,
    over the rows at ``rows`` (every row when ``None``); ``bin_codes`` are
    per-row codes of ``dataset``'s full score vector (see
    :func:`reference_bin_codes`).  Column ``bins`` holds the NaN-scored rows.
    """
    codes, decode, _ = dataset.codes(attr.name)
    stride = binning.bins + 1
    if rows is None:
        cells = codes * stride
        cells += bin_codes
    else:
        cells = codes[rows] * stride
        cells += bin_codes[rows]
    counts = np.bincount(cells, minlength=len(decode) * stride)
    return counts.reshape(len(decode), stride)


def reference_candidate_split(
    dataset: Dataset,
    attr: Attribute,
    bin_codes: np.ndarray,
    binning: Binning,
    rows: Optional[np.ndarray] = None,
) -> Tuple[Tuple[object, ...], Tuple[int, ...], np.ndarray]:
    """One candidate split from :func:`reference_candidate_counts`.

    Returns ``(ordered values, sizes, counts)`` like
    ``ScoreStore.candidate_split``: one ``int64`` count row per child, in
    value order; sizes count NaN-scored members too.
    """
    _, decode, encode = dataset.codes(attr.name)
    counts = reference_candidate_counts(dataset, attr, bin_codes, binning, rows)
    sizes = counts.sum(axis=1).tolist()
    ordered = tuple(value for value in order_values(attr, decode) if sizes[encode[value]])
    return (
        ordered,
        tuple(sizes[encode[value]] for value in ordered),
        np.array(
            [counts[encode[value], : binning.bins] for value in ordered], dtype=np.int64
        ).reshape(len(ordered), binning.bins),
    )


def reference_statistics(partition: Partition, function: ScoringFunction) -> Dict[str, float]:
    values = DirectScorer(function).scores(partition)
    if values.size == 0:
        return {"size": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "std": 0.0}
    return {
        "size": int(values.size),
        "mean": float(values.mean()),
        "min": float(values.min()),
        "max": float(values.max()),
        "std": float(values.std()),
    }


def reference_unfairness(
    partitioning: Partitioning,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    scorer: Optional[DirectScorer] = None,
) -> float:
    scorer = scorer or DirectScorer(function)
    binning = resolve_binning(formulation)
    histograms = [scorer.histogram(partition, binning) for partition in partitioning]
    return formulation.aggregate(reference_pairwise(histograms, formulation))


def reference_breakdown(
    partitioning: Partitioning,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
) -> UnfairnessBreakdown:
    scorer = DirectScorer(function)
    binning = resolve_binning(formulation)
    histograms = [scorer.histogram(partition, binning) for partition in partitioning]
    labels = partitioning.labels
    values = reference_pairwise(histograms, formulation)
    pairs = [(labels[i], labels[j]) for i in range(len(labels)) for j in range(i + 1, len(labels))]
    pairwise = dict(zip(pairs, values))
    mean_scores = {}
    for partition, label in zip(partitioning, labels):
        scores = scorer.scores(partition)
        mean_scores[label] = float(scores.mean()) if scores.size else 0.0
    return UnfairnessBreakdown(
        value=formulation.aggregate(values),
        formulation_name=formulation.name,
        partition_labels=tuple(labels),
        partition_sizes=partitioning.sizes,
        pairwise=pairwise,
        most_separated_pair=max(pairwise, key=pairwise.get) if pairwise else None,
        least_separated_pair=min(pairwise, key=pairwise.get) if pairwise else None,
        mean_scores=mean_scores,
    )


def reference_quantify(
    dataset: Dataset,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    attributes: Optional[Sequence[str]] = None,
    max_depth: Optional[int] = None,
    min_partition_size: int = 1,
) -> QuantifyResult:
    """Greedy Algorithm 1 over group-by splits and directly scored histograms."""
    scorer = DirectScorer(function)
    binning = resolve_binning(formulation)
    if attributes is None:
        attributes = dataset.schema.protected_names
    attributes = tuple(dict.fromkeys(attributes))
    splits_evaluated = 0

    def best_split(partition: Partition, names: Tuple[str, ...], siblings: List[Histogram]):
        nonlocal splits_evaluated
        candidates = {}
        for attribute in names:
            children = split_partition(partition, attribute)
            if len(children) >= 2 and all(c.size >= min_partition_size for c in children):
                candidates[attribute] = children
        best = None
        for attribute in sorted(candidates):
            histograms = [scorer.histogram(child, binning) for child in candidates[attribute]]
            splits_evaluated += len(histograms)
            score = formulation.aggregate(reference_pairwise(histograms + siblings, formulation))
            if best is None or formulation.is_better(score, best[2]):
                best = (attribute, candidates[attribute], score)
        return best

    def split(node: PartitionNode, attribute, children, names: Tuple[str, ...], depth: int):
        node.split_attribute = attribute
        remaining = tuple(name for name in names if name != attribute)
        histograms = [scorer.histogram(child, binning) for child in children]
        nodes = [node.add_child(PartitionNode(partition=child)) for child in children]
        for index, child_node in enumerate(nodes):
            siblings = [h for i, h in enumerate(histograms) if i != index]
            grow(child_node, siblings, remaining, depth + 1)

    def grow(node: PartitionNode, siblings: List[Histogram], names, depth: int) -> None:
        partition = node.partition
        if not names or (max_depth is not None and depth >= max_depth):
            return
        if partition.size < 2 * min_partition_size:
            return
        current = formulation.aggregate(
            reference_pairwise([scorer.histogram(partition, binning)] + siblings, formulation)
        )
        node.annotation["vs_siblings"] = current
        choice = best_split(partition, names, siblings)
        if choice is None:
            return
        attribute, children, _ = choice
        histograms = [scorer.histogram(child, binning) for child in children]
        children_value = formulation.aggregate(
            reference_pairwise(histograms + siblings, formulation)
        )
        node.annotation["children_vs_siblings"] = children_value
        if formulation.is_better(children_value, current):
            split(node, attribute, children, names, depth)

    root = PartitionNode(partition=root_partition(dataset))
    first = best_split(root.partition, attributes, [])
    if first is not None:
        split(root, first[0], first[1], attributes, 0)
    tree = PartitionTree(root)
    partitioning = tree.to_partitioning(validate=False)
    return QuantifyResult(
        tree=tree,
        partitioning=partitioning,
        unfairness=reference_unfairness(partitioning, function, formulation, scorer),
        formulation=formulation,
        splits_evaluated=splits_evaluated,
    )


def reference_rank_scores(ranking: Ranking, weighting: str) -> Dict[str, float]:
    """Rank-derived scores one position at a time (``math.log2`` for exposure).

    ``linear``: the best gets 1.0, the worst 0.0, evenly spaced; ``exposure``:
    ``1 / log2(position + 1)`` min-max scaled to [0, 1].
    """
    count = len(ranking)
    scores: Dict[str, float] = {}
    if weighting == "linear":
        for position, uid in enumerate(ranking.uids, start=1):
            if count == 1:
                scores[uid] = 1.0
            else:
                scores[uid] = 1.0 - (position - 1) / (count - 1)
        return scores
    raw = {
        uid: 1.0 / math.log2(position + 1)
        for position, uid in enumerate(ranking.uids, start=1)
    }
    max_exposure = max(raw.values())
    min_exposure = min(raw.values())
    span = max_exposure - min_exposure
    for uid, exposure in raw.items():
        scores[uid] = 1.0 if span == 0 else (exposure - min_exposure) / span
    return scores


def reference_rank_fingerprint(ranking: Ranking, weighting: str) -> str:
    """The rank-derived scorer's fingerprint, one ``update`` per uid."""
    digest = hashlib.sha256()
    digest.update(b"rank-derived\x00")
    digest.update(weighting.encode("ascii") + b"\x00")
    for uid in ranking.uids:
        digest.update(uid.encode("utf-8") + b"\x00")
    return digest.hexdigest()


def reference_group_ranks(ranking: Ranking, members: Dataset) -> Tuple[float, float]:
    """A group's mean rank and exposure share, one member at a time.

    Positions are looked up by uid, and both exposure sums are generator
    sums over ``1 / np.log2(position + 1)``, left to right.
    """
    position = {uid: rank for rank, uid in enumerate(ranking.uids, start=1)}
    member_positions = [position[uid] for uid in members.uids]
    exposure = sum(1.0 / np.log2(rank + 1) for rank in member_positions)
    total_exposure = sum(1.0 / np.log2(rank + 1) for rank in range(1, len(ranking) + 1))
    share = float(exposure / total_exposure) if total_exposure else 0.0
    return float(np.mean(member_positions)), share
