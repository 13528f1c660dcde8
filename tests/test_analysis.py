"""The analysis engine, baseline ratchet, CLI and CI gate end to end.

The rule-level fixtures live in ``test_analysis_rules.py``; this module
covers everything around them: the self-lint invariant (the committed
tree is clean against the committed baseline), the rule self-test
harness, the baseline diff/ratchet semantics (including a hypothesis
round-trip property), ``fairank lint`` and ``scripts/check_analysis.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    DEFAULT_BASELINE_NAME,
    DEFAULT_TARGETS,
    Baseline,
    Finding,
    all_rules,
    baseline_from_findings,
    rule_ids,
    run_analysis,
)
from repro.analysis.selftest import SELFTEST_CASES, run_selftest
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestSelfLint:
    """The repository must pass its own gate."""

    def test_committed_tree_is_clean_against_committed_baseline(self):
        baseline_path = REPO_ROOT / DEFAULT_BASELINE_NAME
        assert baseline_path.is_file(), "the baseline ratchet must be committed"
        baseline = Baseline.load(baseline_path)
        targets = [
            REPO_ROOT / target
            for target in DEFAULT_TARGETS
            if (REPO_ROOT / target).exists()
        ]
        report = run_analysis(targets, root=REPO_ROOT, baseline=baseline)
        assert not report.diff.new, "\n".join(
            finding.text() for finding in report.diff.new
        )
        assert not report.diff.stale, (
            "stale baseline entries: run 'fairank lint --update-baseline' "
            f"-> {report.diff.stale}"
        )
        assert report.files_analyzed > 50

    def test_selftest_every_rule_detects_its_seed(self):
        results = run_selftest()
        assert set(results) == set(rule_ids())
        rotted = sorted(rule for rule, count in results.items() if count == 0)
        assert not rotted, f"rules no longer detect their seeds: {rotted}"

    def test_rule_catalogue_shape(self):
        rules = all_rules()
        assert len(rules) == len(SELFTEST_CASES)
        for rule in rules:
            assert rule.id and rule.name and rule.description
            assert rule.severity in ("error", "warning")


def _finding(path: str, rule: str, line: int = 1) -> Finding:
    return Finding(path=path, line=line, col=1, rule=rule, message="m")


class TestBaseline:
    def test_new_finding_fails_the_diff(self):
        diff = Baseline().diff([_finding("a.py", "FL103")])
        assert len(diff.new) == 1 and not diff.masked and not diff.stale

    def test_masked_finding_passes(self):
        baseline = Baseline(entries={"a.py": {"FL103": 1}})
        diff = baseline.diff([_finding("a.py", "FL103")])
        assert not diff.new and len(diff.masked) == 1 and not diff.stale

    def test_count_overflow_is_new(self):
        baseline = Baseline(entries={"a.py": {"FL103": 1}})
        diff = baseline.diff(
            [_finding("a.py", "FL103", line=1), _finding("a.py", "FL103", line=2)]
        )
        assert len(diff.masked) == 1 and len(diff.new) == 1

    def test_fixed_violation_leaves_stale_slack(self):
        baseline = Baseline(entries={"a.py": {"FL103": 2}})
        diff = baseline.diff([_finding("a.py", "FL103")])
        assert diff.stale == (("a.py", "FL103", 1),)

    def test_load_rejects_wrong_version(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99, "entries": {}}', encoding="utf-8")
        with pytest.raises(ValueError):
            Baseline.load(bad)

    def test_to_text_drops_zero_counts(self):
        baseline = Baseline(entries={"a.py": {"FL103": 0}, "b.py": {"FL102": 1}})
        payload = json.loads(baseline.to_text())
        assert payload["entries"] == {"b.py": {"FL102": 1}}

    @given(
        entries=st.dictionaries(
            st.from_regex(r"[a-z]{1,8}\.py", fullmatch=True),
            st.dictionaries(
                st.from_regex(r"FL[0-9]{3}", fullmatch=True),
                st.integers(min_value=1, max_value=5),
                min_size=1,
                max_size=3,
            ),
            max_size=4,
        )
    )
    # No deadline: an example's work is ~1ms, but its file operations wait
    # on the disk.  With another process writing 1.5GB files, saving over an
    # existing file (ext4 flushes the new data at the rename) took up to
    # 260ms, and creating and removing a fresh directory up to 470ms.
    @settings(deadline=None)
    def test_baseline_round_trips_losslessly(self, entries):
        """save -> load preserves the mask, and a finding set built from
        the mask diffs to exactly (no new, no stale, all masked).  Each
        example saves into its own fresh directory."""
        findings = [
            _finding(path, rule, line=index)
            for path, rules in entries.items()
            for rule, count in rules.items()
            for index in range(1, count + 1)
        ]
        baseline = baseline_from_findings(findings)
        with tempfile.TemporaryDirectory() as directory:
            target = Path(directory) / "baseline.json"
            baseline.save(target)
            reloaded = Baseline.load(target)
        assert reloaded.entries == baseline.entries
        assert reloaded.total == len(findings)
        diff = reloaded.diff(findings)
        assert not diff.new
        assert not diff.stale
        assert len(diff.masked) == len(findings)
        # Serialisation is canonical: a second round trip is byte-identical.
        assert reloaded.to_text() == baseline.to_text()


def _violating_tree(root: Path) -> Path:
    relpath, source = SELFTEST_CASES["FL103"]
    target = root / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return target


class TestLintCommand:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in output

    def test_clean_tree_exits_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tidy.py").write_text("value = 1\n", encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violations_exit_one_and_print_findings(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        _violating_tree(tmp_path)
        assert main(["lint", str(tmp_path)]) == 1
        assert "FL103" in capsys.readouterr().out

    def test_json_format_is_machine_readable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _violating_tree(tmp_path)
        assert main(["lint", "--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is True
        assert payload["findings"][0]["rule"] == "FL103"

    def test_update_baseline_then_masked_run_passes(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        _violating_tree(tmp_path)
        baseline = tmp_path / "mask.json"
        assert main(
            ["lint", "--baseline", str(baseline), "--update-baseline",
             str(tmp_path)]
        ) == 0
        assert baseline.is_file()
        capsys.readouterr()
        assert main(["lint", "--baseline", str(baseline), str(tmp_path)]) == 0
        assert "1 baseline-masked" in capsys.readouterr().out

    def test_default_baseline_is_picked_up_from_cwd(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        _violating_tree(tmp_path)
        assert main(["lint", "--update-baseline", str(tmp_path)]) == 0
        assert (tmp_path / DEFAULT_BASELINE_NAME).is_file()
        capsys.readouterr()
        assert main(["lint", str(tmp_path)]) == 0

    def test_missing_explicit_baseline_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tidy.py").write_text("value = 1\n", encoding="utf-8")
        assert main(
            ["lint", "--baseline", str(tmp_path / "nope.json"), str(tmp_path)]
        ) == 2

    def test_missing_lint_path_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(tmp_path / "ghost")]) == 2


class TestCheckAnalysisGate:
    """``scripts/check_analysis.py`` exactly as CI runs it."""

    @staticmethod
    def _run_gate(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_analysis.py"),
             *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PATH": "/usr/bin:/bin"},
        )

    def test_gate_passes_on_repo_with_selftest(self, tmp_path):
        output = tmp_path / "findings.json"
        completed = self._run_gate("--self-test", "--output", str(output))
        assert completed.returncode == 0, completed.stderr
        assert "analysis check OK" in completed.stdout
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert payload["failed"] is False
        assert payload["findings"] == []

    def test_gate_fails_on_a_violating_tree(self, tmp_path):
        root = tmp_path / "project"
        (root / "src").mkdir(parents=True)
        _violating_tree(root / "src")
        completed = self._run_gate("--root", str(root))
        assert completed.returncode == 1
        assert "FL103" in completed.stderr
