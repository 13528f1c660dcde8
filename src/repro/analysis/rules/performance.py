"""FL002: hot paths must never materialise per-row Python values.

``repro.core`` / ``repro.scoring`` / ``repro.metrics``, the serving
layers ``repro.roles`` / ``repro.service`` and row selection
(``repro/data/filters.py``) operate on ``codes()`` / ``numeric_column()``
array slices and decode tables.  The one per-row decode
the data plane still has is ``CodedColumn.decode_range()`` /
``NumericColumn.decode_range()``, which builds one Python value per row;
calling it on a hot path silently re-introduces the exact regression
class the million-row benchmarks guard against.  This rule keeps it out
of the hot modules entirely; its one remaining user is the record export
``Dataset.to_records()``.

Likewise the search, unfairness, distance and role modules compare score
histograms as count rows: a ``Histogram(...)`` built there re-opens the
per-pair distance path.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.source import Project, SourceModule

__all__ = ["HotPathMaterialisation"]

_HOT_PATHS = (
    "repro/core", "repro/scoring", "repro/metrics", "repro/roles", "repro/service",
    "repro/data/filters.py",
)
_ROW_DECODE = "decode_range"
#: Modules where a score histogram is a count row, never a ``Histogram``.
_COUNT_ROW_PATHS = (
    "repro/core/quantify.py", "repro/core/unfairness.py", "repro/metrics/distances.py",
    "repro/roles",
)


@register
class HotPathMaterialisation(Rule):
    id = "FL002"
    name = "hot-path-materialisation"
    description = (
        "A hot-path module (repro.core / repro.scoring / repro.metrics / "
        "repro.roles / repro.service / repro.data.filters) "
        "calls the per-row decode .decode_range().  Use the columnar "
        "slices — codes(), numeric_column(), value_counts() — so "
        "million-row datasets never materialise per-row Python values; "
        "or builds a Histogram(...) where histograms are count rows."
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterable[Finding]:
        if not module.in_path(*_HOT_PATHS):
            return
        tree = module.tree
        if tree is None:
            return
        count_rows = module.in_path(*_COUNT_ROW_PATHS)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == _ROW_DECODE:
                yield self.finding(
                    module, node.lineno, node.col_offset + 1,
                    f".{_ROW_DECODE}() decodes one Python value per row on the "
                    "hot path; use codes()/numeric_column() column slices",
                )
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if count_rows and name == "Histogram":
                yield self.finding(
                    module, node.lineno, node.col_offset + 1,
                    "Histogram(...) where histograms are count rows; "
                    "pass the rows to formulation.distance",
                )
