"""QUANTIFY hot path — the score store vs. the direct re-scoring reference.

The score store (:mod:`repro.core.scorestore`) materializes the full
per-(dataset, function) score vector once and derives every partition's
scores, histograms and candidate splits from row indices.  This benchmark
pins the perf trajectory of that layer:

* **speedup** — on a 10k-row synthetic population, QUANTIFY through the
  store must be at least 3x faster than the test-side reference
  (``tests/scoring_reference.py``: greedy Algorithm 1 over group-by splits,
  each partition scored directly and binned with ``build_histogram``);
* **exactness** — tree, unfairness, ``splits_evaluated`` and the breakdown
  must be byte-identical to the reference;
* **compute-once** — on the bundled marketplace workload every individual is
  scored exactly once per scoring function, by ``quantify`` and by each of
  the three roles (``Auditor.audit_job``, ``JobOwner.evaluate_function``,
  ``EndUser.assess_job``);
* **data plane** — at 100k rows, validate + cold QUANTIFY over the column
  store is recorded, and a dataset built from row input gives results
  identical to one built straight from the store;
* **million-row leg** — a 1M-row population is built and QUANTIFYed in a
  fresh interpreter; wall-clock and peak RSS (``ru_maxrss``) are recorded.

Results are written to ``BENCH_quantify.json`` at the repository root; CI
uploads the file as a workflow artifact so the trajectory is tracked per
commit.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import unfairness_breakdown
from repro.data.dataset import Dataset
from repro.experiments.workloads import crowdsourcing_marketplace, synthetic_population
from repro.marketplace.entities import Marketplace
from repro.roles.auditor import Auditor
from repro.roles.end_user import EndUser
from repro.roles.job_owner import JobOwner
from repro.scoring.linear import LinearScoringFunction

from benchmarks.results import REPO_ROOT, write_results
from tests.scoring_reference import reference_breakdown, reference_quantify

#: The 10k-row scalability workload (E11's generator, fixed seed).
POPULATION_SIZE = 10_000
SEED = 7
MIN_PARTITION_SIZE = 25
ROUNDS = 5
REQUIRED_SPEEDUP = 3.0

#: The data-plane leg (validate + cold QUANTIFY at 100k rows).
COLUMNAR_POPULATION = 100_000
COLUMNAR_MIN_PARTITION = 250
COLUMNAR_ROUNDS = 3

#: The million-row leg (a fresh interpreter, peak RSS via ru_maxrss).
MILLION = 1_000_000

_RESULTS_PATH = REPO_ROOT / "BENCH_quantify.json"


def _workload():
    dataset = synthetic_population(size=POPULATION_SIZE, seed=SEED)
    function = LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    return dataset, function


def _best_of_interleaved(first, second, rounds: int = ROUNDS) -> Tuple[float, float]:
    """Best wall-clock of ``rounds`` alternating runs of two callables.

    Interleaving keeps a drifting machine load from penalising whichever
    side happens to be measured last.
    """
    best_first = best_second = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        first()
        best_first = min(best_first, time.perf_counter() - started)
        started = time.perf_counter()
        second()
        best_second = min(best_second, time.perf_counter() - started)
    return best_first, best_second


def _write_results(payload: Dict[str, object]) -> None:
    write_results(_RESULTS_PATH, payload, population=POPULATION_SIZE)


class _CountingFunction(LinearScoringFunction):
    """A linear scorer that counts its scoring passes and rows scored."""

    def __init__(self, base: LinearScoringFunction) -> None:
        self.__dict__.update(base.__dict__)
        self.calls = 0
        self.rows = 0

    def score_dataset(self, dataset):
        self.calls += 1
        self.rows += len(dataset)
        return LinearScoringFunction.score_dataset(self, dataset)


def test_store_speedup_and_exactness(benchmark):
    """Materialized QUANTIFY is >= 3x the direct reference, with identical results."""
    dataset, function = _workload()

    def seed_run():
        return reference_quantify(dataset, function, min_partition_size=MIN_PARTITION_SIZE)

    def store_run():
        return quantify(dataset, function, min_partition_size=MIN_PARTITION_SIZE)

    seed_result = seed_run()
    store_result = benchmark.pedantic(store_run, rounds=1, iterations=1)

    # Byte-identical results: same tree, same unfairness, same work measure.
    assert store_result.summary() == seed_result.summary()
    assert store_result.unfairness == seed_result.unfairness
    assert store_result.splits_evaluated == seed_result.splits_evaluated
    assert store_result.partitioning.labels == seed_result.partitioning.labels
    assert store_result.partitioning.sizes == seed_result.partitioning.sizes
    seed_breakdown = reference_breakdown(seed_result.partitioning, function)
    store_breakdown = unfairness_breakdown(store_result.partitioning, function)
    assert store_breakdown.value == seed_breakdown.value
    assert store_breakdown.pairwise == seed_breakdown.pairwise
    assert store_breakdown.mean_scores == seed_breakdown.mean_scores

    seed_elapsed, store_elapsed = _best_of_interleaved(seed_run, store_run)
    speedup = seed_elapsed / max(store_elapsed, 1e-9)

    print()
    print(
        f"QUANTIFY {POPULATION_SIZE} rows: seed {seed_elapsed * 1000:.1f}ms  "
        f"store {store_elapsed * 1000:.1f}ms  speedup {speedup:.1f}x"
    )
    _write_results(
        {
            "quantify_10k": {
                "population": POPULATION_SIZE,
                "min_partition_size": MIN_PARTITION_SIZE,
                "seed_ms": round(seed_elapsed * 1000, 2),
                "store_ms": round(store_elapsed * 1000, 2),
                "speedup": round(speedup, 2),
                "required_speedup": REQUIRED_SPEEDUP,
                "partitions": len(store_result.partitioning),
                "splits_evaluated": store_result.splits_evaluated,
                "unfairness": store_result.unfairness,
            }
        }
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"score materialization must be >= {REQUIRED_SPEEDUP}x the direct reference "
        f"(seed {seed_elapsed * 1000:.1f}ms, store {store_elapsed * 1000:.1f}ms, "
        f"{speedup:.2f}x)"
    )


def test_columnar_data_plane():
    """Validate + cold QUANTIFY over the column store at 100k rows.

    Every dataset is column-backed; one built from row input (converted once
    through ``ColumnStoreBuilder``) must give results identical to one built
    straight from the store.  Each timed round constructs a fresh
    ``Dataset`` wrapper so per-object memos (integer codings, fingerprints)
    cannot leak between rounds.
    """
    function = LinearScoringFunction(
        {"Language Test": 0.5, "Rating": 0.5}, name="balanced"
    )
    population = synthetic_population(size=COLUMNAR_POPULATION, seed=SEED)
    schema, store = population.schema, population.store

    def columnar_pass():
        dataset = Dataset.from_store(
            schema, store, name="bench-columnar", validate=True
        )
        return quantify(
            dataset, function, min_partition_size=COLUMNAR_MIN_PARTITION
        )

    row_input = Dataset(schema, population.individuals, name="bench-rows")
    row_result = quantify(
        row_input, function, min_partition_size=COLUMNAR_MIN_PARTITION
    )
    columnar_result = columnar_pass()
    assert columnar_result.summary() == row_result.summary()
    assert columnar_result.unfairness == row_result.unfairness
    assert columnar_result.splits_evaluated == row_result.splits_evaluated
    assert columnar_result.partitioning.labels == row_result.partitioning.labels
    assert columnar_result.partitioning.sizes == row_result.partitioning.sizes

    columnar_elapsed = float("inf")
    for _ in range(COLUMNAR_ROUNDS):
        started = time.perf_counter()
        columnar_pass()
        columnar_elapsed = min(columnar_elapsed, time.perf_counter() - started)
    throughput = COLUMNAR_POPULATION / max(columnar_elapsed, 1e-9)

    print()
    print(
        f"data plane {COLUMNAR_POPULATION} rows: columnar "
        f"{columnar_elapsed * 1000:.0f}ms ({throughput:,.0f} rows/s)"
    )
    _write_results(
        {
            "columnar_100k": {
                "population": COLUMNAR_POPULATION,
                "min_partition_size": COLUMNAR_MIN_PARTITION,
                "columnar_ms": round(columnar_elapsed * 1000, 2),
                "columnar_rows_per_s": round(throughput),
                "identical_results": True,
            }
        }
    )


#: Runs in a fresh interpreter so ``ru_maxrss`` (the process high-water
#: mark) reflects exactly this workload.  Prints one JSON line.
_MILLION_LEG_SCRIPT = """
import json, resource, sys, time
from repro.core.quantify import quantify
from repro.experiments.workloads import synthetic_population
from repro.scoring.linear import LinearScoringFunction

size = int(sys.argv[1])
started = time.perf_counter()
dataset = synthetic_population(size=size)
build_s = time.perf_counter() - started
function = LinearScoringFunction(
    {"Language Test": 0.5, "Rating": 0.5}, name="balanced"
)
started = time.perf_counter()
result = quantify(dataset, function, min_partition_size=size // 400)
quantify_s = time.perf_counter() - started
print(json.dumps({
    "build_s": round(build_s, 3),
    "quantify_s": round(quantify_s, 3),
    "rows_per_s": round(size / quantify_s),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "unfairness": result.unfairness,
    "partitions": len(result.partitioning),
    "splits_evaluated": result.splits_evaluated,
}))
"""


def test_million_row_leg():
    """Build and QUANTIFY a million-row population; record time and peak RSS.

    Runs in its own interpreter so the kernel's peak-RSS high-water mark
    isolates this one workload.
    """
    completed = subprocess.run(
        [sys.executable, "-c", _MILLION_LEG_SCRIPT, str(MILLION)],
        capture_output=True,
        text=True,
        check=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    columnar = json.loads(completed.stdout.strip().splitlines()[-1])
    print()
    print(
        f"1M rows: build {columnar['build_s']}s  quantify "
        f"{columnar['quantify_s']}s ({columnar['rows_per_s']:,} rows/s)  "
        f"peak RSS {columnar['peak_rss_mb']}MB"
    )
    _write_results({"quantify_1m": {"population": MILLION, "columnar": columnar}})
    assert columnar["partitions"] >= 1


def _with_counting_job(marketplace: Marketplace, title: str):
    """A copy of ``marketplace`` whose job ``title`` scores through a counter."""
    counting = _CountingFunction(marketplace.job(title).function)
    jobs = [
        dataclasses.replace(job, function=counting) if job.title == title else job
        for job in marketplace
    ]
    return Marketplace(marketplace.name, marketplace.workers, jobs), counting


def test_marketplace_scores_each_individual_once():
    """On the bundled marketplace, each individual is scored once per function.

    ``quantify`` and each of the three roles must make exactly one counted
    scoring pass, over exactly the job's candidates, per job.
    """
    marketplace = crowdsourcing_marketplace(size=400, seed=SEED)
    roles = {
        "quantify": lambda market, job, counting: quantify(
            job.candidates(market.workers), counting, min_partition_size=5
        ),
        "audit_job": lambda market, job, counting: Auditor(min_partition_size=5).audit_job(
            market, job
        ),
        "evaluate_function": lambda market, job, counting: JobOwner(
            min_partition_size=5
        ).evaluate_function(job.candidates(market.workers), counting),
        "assess_job": lambda market, job, counting: EndUser(
            {"Gender": "Female"}
        ).assess_job(market, job.title),
    }
    passes: List[Dict[str, object]] = []
    for job in marketplace:
        candidates = job.candidates(marketplace.workers)
        entry: Dict[str, object] = {"job": job.title, "candidates": len(candidates)}
        for role, run in roles.items():
            market, counting = _with_counting_job(marketplace, job.title)
            outcome = run(market, market.job(job.title), counting)
            assert counting.calls == 1, (
                f"{job.title} / {role}: expected exactly one scoring pass, "
                f"saw {counting.calls}"
            )
            assert counting.rows == len(candidates), f"{job.title} / {role}"
            entry[f"{role}_scoring_passes"] = counting.calls
            if role == "quantify":
                entry["partitions"] = len(outcome.partitioning)
        passes.append(entry)
    print()
    for entry in passes:
        counts = " ".join(f"{role}={entry[f'{role}_scoring_passes']}" for role in roles)
        print(
            f"{entry['job']:<22} {entry['candidates']:>5} candidates  "
            f"{entry['partitions']:>3} groups  scoring passes: {counts}"
        )
    _write_results({"marketplace_single_pass": passes})


def test_store_histogram_reuse_accounting():
    """The store's histogram memo carries most of the search's requests."""
    dataset, function = _workload()
    store = ScoreStore(dataset, function)
    quantify(dataset, function, min_partition_size=MIN_PARTITION_SIZE, store=store)
    stats = store.stats
    print()
    print(f"store after one search: {stats.describe()}")
    assert stats.scoring_passes == 1
    # Re-running the identical search is served almost entirely from memos.
    quantify(dataset, function, min_partition_size=MIN_PARTITION_SIZE, store=store)
    warm = store.stats
    assert warm.scoring_passes == 1
    assert warm.histogram_hits > stats.histogram_hits
    _write_results(
        {
            "store_accounting": {
                "cold": stats.as_dict(),
                "warm_rerun": warm.as_dict(),
            }
        }
    )
