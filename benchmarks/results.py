"""Shared helper for persisting benchmark results as BENCH_*.json files.

Each benchmark module merges its result blocks into one JSON file at the
repository root; CI uploads the emitted files as workflow artifacts so the
perf trajectory is tracked per commit.  Every write also refreshes two
bookkeeping keys:

* ``meta`` — where the numbers came from: interpreter version, commit,
  CPU count, UTC timestamp, and any row counts the benchmark passes in;
* ``metrics`` — a snapshot of the process metrics registry
  (:mod:`repro.obs.metrics`), so a benchmark run's request counters and
  latency histograms land in the artifact next to its timings.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional

from repro.obs.metrics import get_registry

#: The repository root (benchmarks/ lives directly underneath it).
REPO_ROOT = Path(__file__).resolve().parent.parent


def _commit() -> Optional[str]:
    """The current commit hash, or None outside a usable git checkout."""
    try:
        probe = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = probe.stdout.strip()
    return commit if probe.returncode == 0 and commit else None


def run_meta(**rows: object) -> Dict[str, object]:
    """Provenance for one benchmark run (``rows`` records input sizes)."""
    meta: Dict[str, object] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    if rows:
        meta["rows"] = dict(rows)
    return meta


def write_results(
    path: Path, payload: Dict[str, object], **rows: object
) -> None:
    """Merge a block of results into the JSON file at ``path``.

    Merging (rather than overwriting) lets the several tests of one bench
    module contribute their own top-level keys to a single artifact.  The
    ``meta`` and ``metrics`` keys are refreshed on every write, so they
    describe the run that last touched the file.
    """
    existing: Dict[str, object] = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            existing = {}
    existing.update(payload)
    existing["meta"] = run_meta(**rows)
    existing["metrics"] = get_registry().snapshot()
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
