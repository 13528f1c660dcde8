"""The analysis driver: files -> rules -> suppressions -> baseline -> report.

``run_analysis`` is the one entry point the CLI (``fairank lint``) and the
CI gate (``scripts/check_analysis.py``) share.  The pipeline per file:

1. every registered rule checks the module (AST rules skip files that do
   not parse; FL900 reports those),
2. ``# fairlint: disable=`` directives drop matching findings on their
   line, and directives that matched nothing become FL000 findings,
3. the surviving findings are diffed against the committed baseline —
   masked legacy findings pass, anything new fails, and stale baseline
   entries fail too (the ratchet only ever shrinks).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.baseline import Baseline, BaselineDiff, baseline_from_findings
from repro.analysis.findings import Finding
from repro.analysis.registry import all_rules
from repro.analysis.source import Project, collect_files, load_module
from repro.analysis.suppress import parse_suppressions

__all__ = ["AnalysisReport", "run_analysis"]

#: The roots `fairank lint` and CI analyse when none are given (tests are
#: excluded on purpose: fixture files carry deliberate violations).
DEFAULT_TARGETS = ("src", "scripts", "benchmarks", "examples", "perfbench")

#: Where the committed ratchet lives, relative to the repo root.
DEFAULT_BASELINE_NAME = ".fairlint-baseline.json"


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one analysis run produced."""

    #: Findings that survived suppression, in location order (includes
    #: baseline-masked ones; see ``diff`` for the split).
    findings: Tuple[Finding, ...]
    diff: BaselineDiff
    files_analyzed: int
    baseline_total: int

    @property
    def failed(self) -> bool:
        """CI verdict: any new finding, or any stale baseline slack."""
        return bool(self.diff.new) or bool(self.diff.stale)

    def to_json(self) -> dict:
        return {
            "version": 1,
            "files_analyzed": self.files_analyzed,
            "findings": [finding.to_json() for finding in self.diff.new],
            "baseline": {
                "total": self.baseline_total,
                "masked": len(self.diff.masked),
                "stale": [
                    {"path": path, "rule": rule, "count": count}
                    for path, rule, count in self.diff.stale
                ],
            },
            "failed": self.failed,
        }

    def render_text(self) -> str:
        lines = [finding.text() for finding in self.diff.new]
        for path, rule, count in self.diff.stale:
            lines.append(
                f"{path}:0:0 {rule} stale baseline entry: {count} tolerated "
                "finding(s) no longer occur — run 'fairank lint "
                "--update-baseline' to ratchet the baseline down"
            )
        summary = (
            f"fairank lint: {len(self.diff.new)} finding(s), "
            f"{len(self.diff.masked)} baseline-masked, "
            f"{len(self.diff.stale)} stale baseline entr(ies) across "
            f"{self.files_analyzed} file(s)"
        )
        return "\n".join(lines + [summary])

    def render(self, output_format: str) -> str:
        if output_format == "json":
            return json.dumps(self.to_json(), indent=2, sort_keys=True)
        return self.render_text()


def run_analysis(
    paths: Sequence[Path],
    *,
    root: Path,
    baseline: Optional[Baseline] = None,
) -> AnalysisReport:
    """Analyse ``paths`` (files or directories) against the rule pack."""
    rules = all_rules()
    project = Project(Path(root))
    kept: List[Finding] = []
    files = collect_files(tuple(Path(path) for path in paths))
    for path in files:
        module = load_module(path, root)
        suppressions = parse_suppressions(module)
        for rule in rules:
            for finding in rule.check_module(module, project):
                if not suppressions.suppresses(finding.line, finding.rule):
                    kept.append(finding)
        kept.extend(suppressions.unused_findings(module))
    kept.sort()
    diff = (baseline or Baseline()).diff(kept)
    return AnalysisReport(
        findings=tuple(kept),
        diff=diff,
        files_analyzed=len(files),
        baseline_total=baseline.total if baseline is not None else 0,
    )


def update_baseline(report: AnalysisReport, path: Path) -> Baseline:
    """Write the baseline that exactly masks the report's findings."""
    baseline = baseline_from_findings(report.findings)
    baseline.save(path)
    return baseline
