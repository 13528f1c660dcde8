"""The docs tree and its CI gate (``scripts/check_docs.py``).

The gate promises six invariants: every internal link in ``docs/*.md``
and ``README.md`` resolves to a real file, every ``#fragment`` in those
links names a real heading in its target, every ``--flag`` the docs name
exists in the ``fairank`` CLI parser, every ``FLnnn`` rule id the docs
mention exists in the ``repro.analysis`` registry, every request
example in ``docs/PROTOCOL.md`` parses into a request, and every dotted
``repro.…`` name in the docs and README resolves.  These tests run
the gate exactly as CI does (a subprocess from the repository root),
check the negative paths on synthetic broken docs, and pin the docs
tree's required files.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"


def _run_gate(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_docs.py"), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_docs_tree_exists():
    """The documented docs tree ships its four core files."""
    for name in ("ARCHITECTURE.md", "PROTOCOL.md", "OPERATIONS.md", "ANALYSIS.md"):
        assert (DOCS / name).is_file(), f"docs/{name} is missing"


def test_docs_gate_passes_on_repo():
    """The CI gate passes on the committed docs tree."""
    completed = _run_gate()
    assert completed.returncode == 0, completed.stderr
    assert "docs check OK" in completed.stdout


def test_docs_gate_rejects_broken_link(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "BAD.md").write_text(
        "see [the missing page](NOPE.md)\n", encoding="utf-8"
    )
    completed = _run_gate("--root", str(tmp_path))
    assert completed.returncode == 1
    assert "broken link -> NOPE.md" in completed.stderr


def test_docs_gate_rejects_unknown_flag(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "BAD.md").write_text(
        "run `fairank serve --does-not-exist`\n", encoding="utf-8"
    )
    completed = _run_gate("--root", str(tmp_path))
    assert completed.returncode == 1
    assert "--does-not-exist" in completed.stderr


def test_docs_gate_rejects_dead_anchor(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "PAGE.md").write_text(
        "# Real heading\n\nsee [elsewhere](#no-such-section)\n",
        encoding="utf-8",
    )
    completed = _run_gate("--root", str(tmp_path))
    assert completed.returncode == 1
    assert "dead anchor -> #no-such-section" in completed.stderr


def test_docs_gate_resolves_cross_file_anchor(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "A.md").write_text(
        "see [the B section](B.md#the-target-section)\n", encoding="utf-8"
    )
    (tmp_path / "docs" / "B.md").write_text(
        "# Intro\n\n## The `target` section\n", encoding="utf-8"
    )
    completed = _run_gate("--root", str(tmp_path))
    assert completed.returncode == 0, completed.stderr


def test_docs_gate_ignores_headings_inside_code_fences(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "A.md").write_text(
        "see [fake](#not-a-heading)\n\n```text\n# not a heading\n```\n",
        encoding="utf-8",
    )
    completed = _run_gate("--root", str(tmp_path))
    assert completed.returncode == 1
    assert "dead anchor" in completed.stderr


def test_docs_gate_rejects_unknown_rule_id(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "BAD.md").write_text(
        "rule FL666 does not exist\n", encoding="utf-8"
    )
    completed = _run_gate("--root", str(tmp_path))
    assert completed.returncode == 1
    assert "FL666" in completed.stderr
    assert "not in the repro.analysis registry" in completed.stderr


def test_docs_gate_rejects_a_request_example_the_server_refuses(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "PROTOCOL.md").write_text(
        "# Requests\n\n"
        '```json\n{"kind": "quantify", "dataset": "d", "function": "f"}\n```\n\n'
        '```json\n{"kind": "compare", "dataset": "d", "functions": "f"}\n```\n\n'
        '```json\n{"kind": "quantify", "key": "k", "payload": {}}\n```\n',
        encoding="utf-8",
    )
    completed = _run_gate("--root", str(tmp_path))
    assert completed.returncode == 1
    problems = completed.stderr.strip().splitlines()
    assert problems[0].endswith(
        "documented compare request is rejected: compare request field "
        "'functions' must be an array of strings, got string"
    )
    assert problems[1:] == ["docs check: 1 problem(s)"]


def test_docs_gate_rejects_a_symbol_that_does_not_resolve(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "BAD.md").write_text(
        "Build a `repro.core.FairnessProblem` or import `repro.nosuchmodule`;\n"
        "`repro.core.scorestore.ScoreStore` and `repro.service` are real.\n"
        "A path such as src/repro.broken is not a name.\n",
        encoding="utf-8",
    )
    completed = _run_gate("--root", str(tmp_path))
    assert completed.returncode == 1
    problems = completed.stderr.strip().splitlines()
    assert problems == [
        f"{tmp_path / 'docs' / 'BAD.md'}: names repro.core.FairnessProblem "
        "which does not resolve",
        f"{tmp_path / 'docs' / 'BAD.md'}: names repro.nosuchmodule which does not resolve",
        "docs check: 2 problem(s)",
    ]


def test_analysis_doc_catalogues_every_rule():
    """docs/ANALYSIS.md is the catalogue: every registered id appears."""
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.analysis import rule_ids

    text = (DOCS / "ANALYSIS.md").read_text(encoding="utf-8")
    missing = [rule_id for rule_id in rule_ids() if rule_id not in text]
    assert not missing, f"docs/ANALYSIS.md never mentions: {missing}"


def test_docs_gate_requires_docs_tree(tmp_path):
    completed = _run_gate("--root", str(tmp_path))
    assert completed.returncode == 1
    assert "no docs/*.md" in completed.stderr


@pytest.mark.parametrize(
    "flag", ["--catalog", "--workers", "--slow-ms", "--verbose"]
)
def test_operational_flags_are_documented(flag):
    """The serving flags OPERATIONS.md promises to cover are actually there."""
    text = "".join(
        (DOCS / name).read_text(encoding="utf-8")
        for name in ("OPERATIONS.md", "ARCHITECTURE.md")
    )
    assert flag in text, f"docs never mention {flag}"
