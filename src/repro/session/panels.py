"""Panels: one configured analysis plus its results.

The FaiRank interface lets the user "obtain several panels to explore how
[changing the scoring function or the fairness formulation] impacts fairness
quantification" (paper §2) — each panel shows the partitioning tree produced
by one configuration.  A :class:`Panel` here is that pairing of a
:class:`~repro.session.config.SessionConfig` with the computed
:class:`~repro.core.quantify.QuantifyResult`, plus the statistics and text
renderings the interface would display.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.quantify import QuantifyResult
from repro.core.scorestore import ScoreStore, StoreProvider
from repro.core.unfairness import UnfairnessBreakdown
from repro.data.dataset import Dataset
from repro.errors import SessionError
from repro.roles.report import ReportTable
from repro.scoring.base import ScoringFunction
from repro.session.config import SessionConfig
from repro.session.render import render_tree
from repro.session.stats import node_stats, tree_stats

__all__ = ["Panel", "compare_panels"]


@dataclass
class Panel:
    """One analysis panel: configuration, effective inputs and results."""

    panel_id: str
    config: SessionConfig
    #: The population actually analysed (after filtering / anonymisation).
    population: Dataset
    #: The scoring function actually used (rank-derived when ranks-only).
    effective_function: ScoringFunction
    result: QuantifyResult
    breakdown: UnfairnessBreakdown
    #: ``(population, function) -> ScoreStore`` serving the boxes and the
    #: rendering: the engine's service pool, so they reuse the scoring pass
    #: the search made.
    store_provider: StoreProvider

    def _store(self) -> ScoreStore:
        return self.store_provider(self.population, self.effective_function)

    @property
    def unfairness(self) -> float:
        return self.result.unfairness

    @property
    def partition_count(self) -> int:
        return len(self.result.partitioning)

    # -- interface boxes ---------------------------------------------------------

    def general_box(self) -> Dict[str, object]:
        """The General box: tree-level statistics."""
        stats = tree_stats(
            self.result.tree,
            self.effective_function,
            self.config.formulation,
            store=self._store(),
        )
        stats["panel"] = self.panel_id
        stats["configuration"] = self.config.describe()
        return stats

    def node_box(self, label: str) -> Dict[str, object]:
        """The Node box: statistics of one clicked partition."""
        node = self.result.tree.find(label)
        return node_stats(
            node.partition,
            self.effective_function,
            self.config.formulation,
            store=self._store(),
        )

    def partition_labels(self) -> List[str]:
        return list(self.result.partition_labels)

    def render(self, show_histograms: bool = True) -> str:
        """Full text rendering of the panel (configuration + tree)."""
        header = f"Panel {self.panel_id}: unfairness = {self.unfairness:.4f}"
        tree_text = render_tree(
            self.result.tree,
            self.effective_function,
            self.config.formulation,
            show_histograms=show_histograms,
            store=self._store(),
        )
        return "\n".join([header, self.config.describe(), "", tree_text])


def compare_panels(panels: List[Panel]) -> ReportTable:
    """Side-by-side comparison of several panels (the multi-panel view).

    One row per panel: configuration highlights, unfairness, number of
    groups, most/least favoured group.
    """
    if not panels:
        raise SessionError("cannot compare zero panels")
    table = ReportTable(
        title="Panel comparison",
        headers=["panel", "dataset", "function", "criterion", "k", "ranks only",
                 "unfairness", "#groups", "most favored", "least favored"],
    )
    for panel in panels:
        table.add_row(
            panel.panel_id,
            panel.config.dataset_name,
            panel.config.function_name,
            panel.config.formulation.name,
            panel.config.anonymity_k,
            "yes" if panel.config.use_ranks_only else "no",
            panel.unfairness,
            panel.partition_count,
            panel.breakdown.most_favored or "-",
            panel.breakdown.least_favored or "-",
        )
    return table
