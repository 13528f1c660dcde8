"""Text rendering of partitioning trees and histograms.

The demo displays partitioning trees graphically (Figure 2 / Figure 3).  The
headless reproduction renders the same structures as indented ASCII trees and
bar-style histograms, which is what the examples print and what the Figure 2
benchmark compares against the paper's worked example.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.formulations import Formulation, MOST_UNFAIR_AVG_EMD
from repro.core.partition import Partitioning
from repro.core.scorestore import ScoreStore, store_for
from repro.core.tree import PartitionNode, PartitionTree
from repro.metrics.histogram import Histogram
from repro.scoring.base import ScoringFunction

__all__ = ["render_tree", "render_partitioning", "render_histogram"]


def render_histogram(histogram: Histogram, width: int = 20) -> str:
    """Render a histogram as one bar line per bin, e.g. ``[0.2-0.4) ███ 3``."""
    lines: List[str] = []
    counts = histogram.counts
    max_count = max(counts) if counts else 0
    edges = histogram.binning.edges
    for index, count in enumerate(counts):
        low, high = edges[index], edges[index + 1]
        bar_length = 0 if max_count == 0 else int(round(width * count / max_count))
        bar = "#" * bar_length
        closing = "]" if index == len(counts) - 1 else ")"
        lines.append(f"[{low:.2f}-{high:.2f}{closing} {bar} {count}")
    return "\n".join(lines)


def _node_line(
    node: PartitionNode,
    store: Optional[ScoreStore],
    formulation: Formulation,
    show_histograms: bool,
) -> str:
    text = f"{node.label} (n={node.size}"
    if node.split_attribute:
        text += f", split on {node.split_attribute}"
    text += ")"
    if store is not None:
        scores = store.scores(node.partition)
        if scores.size:
            text += f" mean={scores.mean():.3f}"
        if show_histograms:
            histogram = store.histogram(node.partition, formulation.effective_binning)
            text += f" {histogram.describe()}"
    return text


def render_tree(
    tree: PartitionTree,
    function: Optional[ScoringFunction] = None,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    show_histograms: bool = True,
    store: Optional[ScoreStore] = None,
) -> str:
    """Render a partitioning tree as an indented ASCII tree.

    When a scoring function is supplied, each node shows its mean score and
    (optionally) its score histogram, mirroring Figure 2 of the paper.  They
    come from ``store`` (a private store over the tree's root population by
    default; pass the search's store to avoid a second scoring pass).
    """
    store = None if function is None else store_for(tree.dataset, function, store)
    lines: List[str] = []

    def _walk(node: PartitionNode, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(_node_line(node, store, formulation, show_histograms))
            child_prefix = ""
        else:
            connector = "`-- " if is_last else "|-- "
            lines.append(
                prefix + connector + _node_line(node, store, formulation, show_histograms)
            )
            child_prefix = prefix + ("    " if is_last else "|   ")
        for index, child in enumerate(node.children):
            _walk(child, child_prefix, index == len(node.children) - 1, False)

    _walk(tree.root, "", True, True)
    return "\n".join(lines)


def render_partitioning(
    partitioning: Partitioning,
    function: Optional[ScoringFunction] = None,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    store: Optional[ScoreStore] = None,
) -> str:
    """Render a flat partitioning: one line per partition plus its histogram.

    Scores and histograms come from ``store`` (a private store over the
    partitioning's dataset by default).
    """
    if function is not None:
        store = store_for(partitioning.dataset, function, store)
    lines: List[str] = []
    for partition in partitioning:
        line = f"- {partition.label} (n={partition.size})"
        if function is not None:
            scores = store.scores(partition)
            histogram = store.histogram(partition, formulation.effective_binning)
            if scores.size:
                line += f" mean={scores.mean():.3f} {histogram.describe()}"
        lines.append(line)
    return "\n".join(lines)
