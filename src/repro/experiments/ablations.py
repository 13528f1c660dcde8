"""Ablation studies over the design choices DESIGN.md calls out.

Three knobs of the reproduction materially affect what FaiRank measures, and
none of them is pinned down by the paper beyond a default:

* **histogram resolution** (`bins`) — the paper builds "equal bins over the
  range of f" without fixing their number; the EMD (in bin units) grows with
  resolution, so the ablation checks how the *ranking of partitionings* and
  the recovered least-favoured subgroup react to the bin count;
* **minimum partition size** — Algorithm 1 as published can isolate single
  individuals; the ablation measures how unfairness and group counts change
  as singleton/micro groups are disallowed;
* **split selection criterion** — Algorithm 1 picks the "most unfair
  attribute" locally; the ablation compares that greedy choice against a
  cheaper mean-gap criterion and a random-attribute baseline to quantify how
  much the informed choice actually buys.

Each ablation returns a :class:`~repro.roles.report.ReportTable` so it plugs
into the same harness as the main experiments.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.formulations import Formulation
from repro.core.partition import Partitioning, root_partition, split_partition
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import unfairness, unfairness_breakdown
from repro.data.dataset import Dataset
from repro.errors import ExperimentError
from repro.roles.report import ReportTable
from repro.scoring.base import ScoringFunction

__all__ = [
    "ablate_bins",
    "ablate_min_partition_size",
    "ablate_split_criterion",
]

_DEFAULT_ATTRIBUTES = ("Gender", "Country", "Language", "Ethnicity")


def ablate_bins(
    dataset: Dataset,
    function: ScoringFunction,
    bin_counts: Sequence[int] = (3, 5, 10, 20),
    attributes: Sequence[str] = _DEFAULT_ATTRIBUTES,
    min_partition_size: int = 2,
) -> ReportTable:
    """How does histogram resolution affect the measured unfairness?"""
    if not bin_counts:
        raise ExperimentError("ablate_bins needs at least one bin count")
    table = ReportTable(
        title="Ablation: histogram bins vs measured unfairness",
        headers=["bins", "unfairness (bin units)", "unfairness (normalised)",
                 "#groups", "least favored"],
    )
    store = ScoreStore(dataset, function)
    for bins in bin_counts:
        formulation = Formulation(bins=bins)
        result = quantify(dataset, function, formulation=formulation,
                          attributes=list(attributes), min_partition_size=min_partition_size,
                          store=store)
        breakdown = unfairness_breakdown(result.partitioning, function, formulation,
                                         store=store)
        normalised = result.unfairness / (bins - 1) if bins > 1 else 0.0
        table.add_row(bins, result.unfairness, normalised,
                      len(result.partitioning), breakdown.least_favored or "-")
    table.add_note("EMD in bin units grows with resolution; the normalised column divides by "
                   "the maximum possible EMD (bins-1) and should stay roughly stable")
    return table


def ablate_min_partition_size(
    dataset: Dataset,
    function: ScoringFunction,
    sizes: Sequence[int] = (1, 2, 5, 10, 25),
    attributes: Sequence[str] = _DEFAULT_ATTRIBUTES,
) -> ReportTable:
    """How does forbidding micro-groups change the result?"""
    if not sizes:
        raise ExperimentError("ablate_min_partition_size needs at least one size")
    table = ReportTable(
        title="Ablation: minimum partition size",
        headers=["min size", "unfairness", "#groups", "smallest group", "least favored"],
    )
    store = ScoreStore(dataset, function)
    for size in sizes:
        result = quantify(dataset, function, attributes=list(attributes),
                          min_partition_size=size, store=store)
        breakdown = unfairness_breakdown(result.partitioning, function, result.formulation,
                                         store=store)
        table.add_row(size, result.unfairness, len(result.partitioning),
                      min(result.partitioning.sizes), breakdown.least_favored or "-")
    table.add_note("larger minimum sizes trade measured unfairness for statistically "
                   "sturdier (larger) groups")
    return table


def _greedy_like_partitioning(
    dataset: Dataset,
    function: ScoringFunction,
    attributes: Sequence[str],
    chooser: str,
    formulation: Formulation,
    min_partition_size: int,
    rng: np.random.Generator,
) -> Partitioning:
    """One-level-at-a-time splitting with a pluggable attribute chooser.

    This mirrors the structure of Algorithm 1 but replaces the "most unfair
    attribute" selection with either a mean-gap criterion or a random pick,
    splitting the whole frontier once per chosen attribute (global recoding
    of the tree), which is enough to compare selection criteria.
    """
    store = ScoreStore(dataset, function)
    remaining = list(attributes)
    partitions = [root_partition(dataset)]
    while remaining:
        scored = []
        for attribute in remaining:
            candidate: List = []
            ok = True
            for partition in partitions:
                if attribute in partition.constrained_attributes:
                    candidate.append([partition])
                    continue
                children = split_partition(partition, attribute, store=store)
                if len(children) < 2 or any(c.size < min_partition_size for c in children):
                    candidate.append([partition])
                else:
                    candidate.append(list(children))
            flattened = [p for group in candidate for p in group]
            if len(flattened) == len(partitions):
                ok = False
            if not ok:
                continue
            partitioning = Partitioning(dataset, flattened, validate=False)
            if chooser == "mean_gap":
                means = [store.scores(p).mean() for p in partitioning if p.size]
                score = float(max(means) - min(means)) if len(means) > 1 else 0.0
            elif chooser == "random":
                score = float(rng.random())
            else:  # "emd" — the paper's criterion
                score = unfairness(partitioning, function, formulation, store=store)
            scored.append((score, attribute, flattened))
        if not scored:
            break
        scored.sort(key=lambda item: (-item[0], item[1]))
        best_score, best_attribute, best_partitions = scored[0]
        current_value = unfairness(Partitioning(dataset, partitions, validate=False),
                                   function, formulation, store=store)
        new_value = unfairness(Partitioning(dataset, best_partitions, validate=False),
                               function, formulation, store=store)
        if new_value <= current_value + 1e-12:
            break
        partitions = best_partitions
        remaining.remove(best_attribute)
    return Partitioning(dataset, partitions, validate=False)


def ablate_split_criterion(
    dataset: Dataset,
    function: ScoringFunction,
    attributes: Sequence[str] = _DEFAULT_ATTRIBUTES,
    min_partition_size: int = 2,
    random_trials: int = 5,
    seed: int = 7,
) -> ReportTable:
    """Compare the paper's EMD-driven attribute choice against cheaper ones."""
    formulation = Formulation()
    table = ReportTable(
        title="Ablation: split-selection criterion",
        headers=["criterion", "unfairness", "#groups"],
    )

    reference = quantify(dataset, function, formulation=formulation,
                         attributes=list(attributes), min_partition_size=min_partition_size)
    table.add_row("Algorithm 1 (local most-unfair attribute)", reference.unfairness,
                  len(reference.partitioning))

    rng = np.random.default_rng(seed)
    for chooser, label in (("emd", "level-wise EMD"), ("mean_gap", "level-wise mean gap")):
        partitioning = _greedy_like_partitioning(
            dataset, function, attributes, chooser, formulation, min_partition_size, rng
        )
        table.add_row(label, unfairness(partitioning, function, formulation), len(partitioning))

    random_values = []
    for _ in range(random_trials):
        partitioning = _greedy_like_partitioning(
            dataset, function, attributes, "random", formulation, min_partition_size, rng
        )
        random_values.append(unfairness(partitioning, function, formulation))
    table.add_row(f"random attribute order (mean of {random_trials})",
                  float(np.mean(random_values)), "-")
    table.add_note("the informed criteria should dominate the random order; Algorithm 1's "
                   "per-node choice should be at least as good as level-wise splitting")
    return table
