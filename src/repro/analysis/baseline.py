"""The committed ratchet: legacy findings are masked, new ones fail.

A baseline is a JSON map of ``path -> rule -> count``.  Counts (rather
than line numbers) make the mask robust to unrelated edits shifting code
around, while still ratcheting: when a legacy violation is fixed the
baseline entry becomes *stale*, and the CI gate fails until the baseline
is regenerated with ``fairank lint --update-baseline`` — so the count can
only go down.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from repro.analysis.findings import Finding
from repro.bundle import replace_text

__all__ = ["Baseline", "BaselineDiff", "baseline_from_findings"]

_VERSION = 1


@dataclass(frozen=True)
class BaselineDiff:
    """The outcome of checking findings against a baseline."""

    new: Tuple[Finding, ...]
    masked: Tuple[Finding, ...]
    #: ``(path, rule, unmatched_count)`` entries whose violations no longer
    #: exist — the ratchet: regenerate the baseline to shrink it.
    stale: Tuple[Tuple[str, str, int], ...]


@dataclass
class Baseline:
    """``entries[path][rule] = count`` of tolerated legacy findings."""

    entries: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or payload.get("version") != _VERSION:
            raise ValueError(
                f"{path}: not a fairlint baseline "
                f"(expected a JSON object with version={_VERSION})"
            )
        raw = payload.get("entries", {})
        entries: Dict[str, Dict[str, int]] = {}
        for file_path, rules in raw.items():
            entries[str(file_path)] = {
                str(rule): int(count) for rule, count in rules.items()
            }
        return cls(entries=entries)

    def save(self, path: Path) -> None:
        replace_text(Path(path), self.to_text())

    def to_text(self) -> str:
        payload = {
            "version": _VERSION,
            "entries": {
                file_path: {
                    rule: count
                    for rule, count in sorted(self.entries[file_path].items())
                    if count > 0
                }
                for file_path in sorted(self.entries)
                if any(count > 0 for count in self.entries[file_path].values())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @property
    def total(self) -> int:
        return sum(
            count for rules in self.entries.values() for count in rules.values()
        )

    def diff(self, findings: Iterable[Finding]) -> BaselineDiff:
        """Split findings into baseline-masked and new; report stale slack."""
        remaining = {
            file_path: dict(rules) for file_path, rules in self.entries.items()
        }
        new: List[Finding] = []
        masked: List[Finding] = []
        for finding in sorted(findings):
            budget = remaining.get(finding.path, {})
            if budget.get(finding.rule, 0) > 0:
                budget[finding.rule] -= 1
                masked.append(finding)
            else:
                new.append(finding)
        stale = tuple(
            (file_path, rule, count)
            for file_path in sorted(remaining)
            for rule, count in sorted(remaining[file_path].items())
            if count > 0
        )
        return BaselineDiff(new=tuple(new), masked=tuple(masked), stale=stale)


def baseline_from_findings(findings: Iterable[Finding]) -> Baseline:
    """The baseline that exactly masks ``findings`` (``--update-baseline``)."""
    entries: Dict[str, Dict[str, int]] = {}
    for finding in findings:
        rules = entries.setdefault(finding.path, {})
        rules[finding.rule] = rules.get(finding.rule, 0) + 1
    return Baseline(entries=entries)
