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
* **what-if leg** — the job owner's cold search shape: each round a fresh
  weight vector over one 100k-row population (``min_partition_size``
  2000, mostly the root split), QUANTIFY plus breakdown through a fresh
  store, checked against the reference every round; the median is recorded;
* **sweep-service leg** — the same shape served: each round one fresh
  single-vector sweep through ``FairnessService.execute`` (100k rows,
  ``min_partition_size`` 2000), so it misses the result cache and the
  store pool; every payload must equal, byte for byte, the one built from
  ``reference_quantify`` plus ``reference_breakdown``; the median is
  recorded;
* **ranks-only leg** — the function-opaque shape served: each round one
  cold ``use_ranks_only`` quantify through ``FairnessService.execute``
  (the seed-1 100k population, ``min_partition_size`` 2000, a fresh
  function per round), so the ranking, the rank-derived scorer and its
  fingerprint are all built inside the timed call; every payload must
  equal, byte for byte, the one built from ``reference_quantify`` plus
  ``reference_breakdown`` over the same ``RankDerivedScorer``; the median
  is recorded;
* **root-candidates leg** — at 100k rows, the six root candidate splits
  of a fresh store (its attributes counted in packs, one ``bincount`` per
  pack) must equal the per-attribute reference
  (``reference_candidate_split``) and take no longer than its counting
  alone (``reference_candidate_counts``, one ``bincount`` per attribute);
  both medians are recorded;
* **bins leg** — at 100k rows, the store's per-row bin codes (one count
  of interior edges per row) must equal the ``searchsorted`` reference
  (``reference_bin_codes``) and be no slower than it, at the default 5
  bins and at the 256-bin cap; both timings are recorded;
* **million-row leg** — a 1M-row population is built and QUANTIFYed in a
  fresh interpreter; wall-clock and peak RSS (``VmHWM``) are recorded;
* **deep leg** — the serving benchmark's hot quantify (10k rows,
  ``min_partition_size`` 24, a deep tree), under EMD and again under total
  variation: a fresh store per round, each result equal to
  ``reference_quantify``; the medians and their cost per evaluated split
  are recorded;
* **roles leg** — the three role scenarios of the serving benchmark run
  cold on a freshly generated 400-worker marketplace each round (audit of
  every job, job-owner sweep, end-user assessment); every search a role
  runs is checked against ``reference_quantify``; the medians are recorded.

Results are written to ``BENCH_quantify.json`` at the repository root; CI
uploads the file as a workflow artifact so the trajectory is tracked per
commit.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.formulations import Formulation
from repro.core.partition import root_partition
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import unfairness_breakdown
from repro.data.dataset import Dataset
from repro.experiments.workloads import crowdsourcing_marketplace, synthetic_population
from repro.marketplace.entities import Marketplace
from repro.metrics.histogram import MAX_BINS, Binning
from repro.roles.auditor import Auditor
from repro.roles.end_user import EndUser
from repro.roles.job_owner import JobOwner
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import RankDerivedScorer, observed_function
from repro.service import FairnessService, QuantifyRequest, SweepRequest

from benchmarks.results import REPO_ROOT, write_results
from tests.scoring_reference import (
    DirectScorer,
    reference_bin_codes,
    reference_breakdown,
    reference_candidate_counts,
    reference_candidate_split,
    reference_quantify,
)

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

#: The what-if leg (a fresh scoring function per round at 100k rows).
WHATIF_POPULATION = 100_000
WHATIF_MIN_PARTITION = 2000
WHATIF_ROUNDS = 9

#: The sweep-service leg (a fresh single-vector sweep per round at 100k rows).
SWEEP_POPULATION = 100_000
SWEEP_MIN_PARTITION = 2000
SWEEP_ROUNDS = 9

#: The ranks-only leg (a cold use_ranks_only quantify per round at 100k rows).
RANKS_POPULATION = 100_000
RANKS_SEED = 1
RANKS_MIN_PARTITION = 2000
RANKS_ROUNDS = 9

#: The root-candidates leg (the six root candidate splits at 100k rows).
ROOT_POPULATION = 100_000
ROOT_ROUNDS = 9

#: The bins leg (per-row bin codes of one 100k-row score vector).
BINS_POPULATION = 100_000
BINS_COUNTS = (5, MAX_BINS)
BINS_ROUNDS = 9

#: The million-row leg (a fresh interpreter, peak RSS via VmHWM).
MILLION = 1_000_000

#: The deep-search leg (the serving benchmark's 10k-row hot quantify).
DEEP_POPULATION = 10_000
DEEP_SEED = 1
DEEP_MIN_PARTITION = 24
DEEP_ROUNDS = 9
#: Result key -> the distance its deep search runs under.
DEEP_DISTANCES = {"deep_10k": "emd", "deep_10k_total_variation": "total_variation"}

#: The roles leg (the serving benchmark's role requests, cold).
ROLES_MARKET_SIZE = 400
ROLES_SEED = 1
ROLES_JOB = "Content writing"
ROLES_MIN_PARTITION = 5
ROLES_SWEEP_STEPS = 3
ROLES_ROUNDS = 5

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

    Every dataset is column-backed; one built from dict records (converted
    once through ``ColumnStoreBuilder``) must give results identical to one
    built straight from the store.  Each timed round constructs a fresh
    ``Dataset`` wrapper so per-object memos (integer codings, fingerprints)
    cannot leak between rounds.
    """
    function = LinearScoringFunction(
        {"Language Test": 0.5, "Rating": 0.5}, name="balanced"
    )
    population = synthetic_population(size=COLUMNAR_POPULATION, seed=SEED)
    schema, store = population.schema, population.store

    def columnar_pass():
        dataset = Dataset(schema, store, name="bench-columnar", validate=True)
        return quantify(
            dataset, function, min_partition_size=COLUMNAR_MIN_PARTITION
        )

    row_input = Dataset.from_records(
        schema, population.to_records(), name="bench-rows", uid_field="uid"
    )
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


def test_whatif_leg():
    """Cold QUANTIFY + breakdown at 100k rows, one fresh function per round.

    Every round's tree, unfairness, ``splits_evaluated`` and breakdown must
    be byte-identical to the direct reference.  The population (and its
    integer codings) is shared across rounds, as in a long-lived service;
    the score store is not, so each round pays one scoring pass.
    """
    dataset = synthetic_population(size=WHATIF_POPULATION, seed=SEED)

    def search(function):
        store = ScoreStore(dataset, function)
        result = quantify(
            dataset, function, min_partition_size=WHATIF_MIN_PARTITION, store=store
        )
        return result, unfairness_breakdown(result.partitioning, function, store=store)

    elapsed: List[float] = []
    for round_index in range(WHATIF_ROUNDS + 1):
        share = 0.05 + 0.9 * round_index / WHATIF_ROUNDS
        function = LinearScoringFunction(
            {"Language Test": share, "Rating": 1.0 - share}, name=f"whatif-{round_index}"
        )
        started = time.perf_counter()
        result, breakdown = search(function)
        took = time.perf_counter() - started
        reference = reference_quantify(
            dataset, function, min_partition_size=WHATIF_MIN_PARTITION
        )
        assert result.summary() == reference.summary()
        assert result.unfairness == reference.unfairness
        assert result.splits_evaluated == reference.splits_evaluated
        assert result.partitioning.labels == reference.partitioning.labels
        assert result.partitioning.sizes == reference.partitioning.sizes
        direct = reference_breakdown(reference.partitioning, function)
        assert breakdown.value == direct.value
        assert breakdown.pairwise == direct.pairwise
        assert breakdown.mean_scores == direct.mean_scores
        if round_index:  # round 0 warms the population's integer codings
            elapsed.append(took)
    median = statistics.median(elapsed)
    print()
    print(
        f"what-if {WHATIF_POPULATION} rows: median {median * 1000:.2f}ms over "
        f"{WHATIF_ROUNDS} fresh functions ({len(result.partitioning)} groups, "
        f"{result.splits_evaluated} splits evaluated)"
    )
    _write_results(
        {
            "whatif_100k": {
                "population": WHATIF_POPULATION,
                "min_partition_size": WHATIF_MIN_PARTITION,
                "rounds": WHATIF_ROUNDS,
                "median_ms": round(median * 1000, 2),
                "identical_results": True,
            }
        }
    )


def _reference_sweep_payload(dataset: Dataset, base: str, weights: Dict[str, float]):
    """A one-point sweep payload built from the direct reference alone."""
    variant = LinearScoringFunction(weights, name=f"{base}@sweep0")
    result = reference_quantify(dataset, variant, min_partition_size=SWEEP_MIN_PARTITION)
    breakdown = reference_breakdown(result.partitioning, variant)
    scores = DirectScorer(variant).scores(root_partition(dataset))
    return {
        "dataset": dataset.name,
        "function": base,
        "formulation": result.formulation.name,
        "population": len(dataset),
        "points": [
            {
                "weights": dict(variant.weights),
                "unfairness": result.unfairness,
                "groups": len(result.partitioning),
                "most_favored": breakdown.most_favored,
                "least_favored": breakdown.least_favored,
                "mean_score": float(scores.mean()),
                "splits_evaluated": result.splits_evaluated,
            }
        ],
        "fairest_index": 0,
        "fairest_weights": dict(variant.weights),
        "most_unfair_index": 0,
    }


def test_sweep_service_leg():
    """Fresh single-vector sweeps through the service at 100k rows.

    Each round's weight vector is new, so the sweep misses the result cache
    and the store pool: one scoring pass, the split search and the
    favoured groups, as a job owner tuning weights pays per point.  The
    dataset (and its integer codings and observed matrix) lives as long as
    the service.  Every payload must be byte-identical to the one built
    from the direct reference.
    """
    dataset = synthetic_population(size=SWEEP_POPULATION, seed=SEED)
    service = FairnessService()
    service.register_dataset(dataset, name=dataset.name)
    base = service.register_function(
        LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    )
    elapsed: List[float] = []
    for round_index in range(SWEEP_ROUNDS + 1):
        share = 0.07 + 0.9 * round_index / SWEEP_ROUNDS
        weights = {"Language Test": share, "Rating": 1.0 - share}
        request = SweepRequest(
            dataset=dataset.name, function=base, weights=(weights,),
            min_partition_size=SWEEP_MIN_PARTITION,
        )
        started = time.perf_counter()
        served = service.execute(request)
        took = time.perf_counter() - started
        assert served.ok and not served.cached, served.error
        expected = _reference_sweep_payload(dataset, base, weights)
        assert json.dumps(served.payload) == json.dumps(expected)
        if round_index:  # round 0 builds the dataset's codings and matrix
            elapsed.append(took)
    median = statistics.median(elapsed)
    print()
    print(
        f"sweep service {SWEEP_POPULATION} rows: median {median * 1000:.2f}ms over "
        f"{SWEEP_ROUNDS} fresh weight vectors"
    )
    _write_results(
        {
            "sweep_service_100k": {
                "population": SWEEP_POPULATION,
                "min_partition_size": SWEEP_MIN_PARTITION,
                "rounds": SWEEP_ROUNDS,
                "median_ms": round(median * 1000, 2),
                "identical_results": True,
            }
        }
    )


def _reference_ranks_payload(dataset: Dataset, name: str, scorer: RankDerivedScorer):
    """A ranks-only quantify payload built from the direct reference alone."""
    result = reference_quantify(dataset, scorer, min_partition_size=RANKS_MIN_PARTITION)
    breakdown = reference_breakdown(result.partitioning, scorer)
    return {
        "dataset": dataset.name,
        "function": name,
        "formulation": result.formulation.name,
        "population": len(dataset),
        "unfairness": result.unfairness,
        "partitions": [
            {"label": label, "size": size}
            for label, size in zip(result.partitioning.labels, result.partitioning.sizes)
        ],
        "splits_evaluated": result.splits_evaluated,
        "most_favored": breakdown.most_favored,
        "least_favored": breakdown.least_favored,
        "pairwise": [
            [first, second, value] for (first, second), value in breakdown.pairwise.items()
        ],
    }


def test_ranks_only_leg():
    """Cold ranks-only quantify requests through the service at 100k rows.

    Each round registers a fresh function, so the request misses the result
    cache and the store pool: the ranking, the rank-derived scorer, its
    fingerprint, one scoring pass and the search all run inside the timed
    ``execute``.  Every payload must be byte-identical to the one built from
    the direct reference over the same ``RankDerivedScorer``.
    """
    dataset = synthetic_population(size=RANKS_POPULATION, seed=RANKS_SEED)
    service = FairnessService()
    service.register_dataset(dataset, name=dataset.name)
    elapsed: List[float] = []
    for round_index in range(RANKS_ROUNDS + 1):
        share = 0.07 + 0.9 * round_index / RANKS_ROUNDS
        function = LinearScoringFunction(
            {"Language Test": share, "Rating": 1.0 - share}, name=f"ranks-{round_index}"
        )
        name = service.register_function(function)
        request = QuantifyRequest(
            dataset=dataset.name, function=name,
            min_partition_size=RANKS_MIN_PARTITION, use_ranks_only=True,
        )
        started = time.perf_counter()
        served = service.execute(request)
        took = time.perf_counter() - started
        assert served.ok and not served.cached, served.error
        scorer = RankDerivedScorer(function.rank(dataset), name=f"{name}-from-ranks")
        expected = _reference_ranks_payload(dataset, name, scorer)
        assert json.dumps(served.payload) == json.dumps(expected)
        if round_index:  # round 0 builds the dataset's codings
            elapsed.append(took)
    median = statistics.median(elapsed)
    print()
    print(
        f"ranks-only quantify {RANKS_POPULATION} rows: median {median * 1000:.2f}ms over "
        f"{RANKS_ROUNDS} fresh functions"
    )
    _write_results(
        {
            "ranks_only_100k": {
                "population": RANKS_POPULATION,
                "seed": RANKS_SEED,
                "min_partition_size": RANKS_MIN_PARTITION,
                "rounds": RANKS_ROUNDS,
                "median_ms": round(median * 1000, 2),
                "identical_results": True,
            }
        }
    )


def test_root_candidates_leg():
    """The root's six candidate splits at 100k rows: packed vs. per attribute.

    Each round takes a fresh store under a fresh function, its vector and
    bin codes made untimed, and times its six ``candidate_split`` calls
    (attributes counted in packs, then the results built) against the
    per-attribute reference counting the same bin codes, alternately.
    Every candidate's values, sizes and counts must equal the reference,
    and the packed side must be no slower even though only it builds
    results.
    """
    dataset = synthetic_population(size=ROOT_POPULATION, seed=SEED)
    schema = dataset.schema
    attrs = [schema.require_protected(name) for name in schema.protected_names]
    binning = Binning.unit()
    root = root_partition(dataset)
    packed_s: List[float] = []
    reference_s: List[float] = []
    for round_index in range(ROOT_ROUNDS + 1):
        share = 0.05 + 0.9 * round_index / ROOT_ROUNDS
        function = LinearScoringFunction(
            {"Language Test": share, "Rating": 1.0 - share}, name=f"root-{round_index}"
        )
        store = ScoreStore(dataset, function)
        codes = store._bin_codes_for(binning)
        started = time.perf_counter()
        packed = [store.candidate_split(root, attr, binning) for attr in attrs]
        took_packed = time.perf_counter() - started
        started = time.perf_counter()
        for attr in attrs:
            reference_candidate_counts(dataset, attr, codes, binning)
        took_reference = time.perf_counter() - started
        for attr, candidates in zip(attrs, packed):
            reference = reference_candidate_split(
                dataset, attr, reference_bin_codes(store.vector(), binning), binning
            )
            values, sizes, counts = candidates
            assert (values, sizes) == reference[:2]
            assert counts.dtype == reference[2].dtype
            assert counts.tolist() == reference[2].tolist()
        if round_index:  # round 0 builds the dataset's codings and packs
            packed_s.append(took_packed)
            reference_s.append(took_reference)
    packed_ms = statistics.median(packed_s) * 1000
    reference_ms = statistics.median(reference_s) * 1000
    print()
    print(
        f"root candidates {ROOT_POPULATION} rows: packed {packed_ms:.3f}ms, "
        f"per attribute {reference_ms:.3f}ms ({len(attrs)} attributes)"
    )
    assert packed_ms <= reference_ms
    _write_results(
        {
            "root_candidates_100k": {
                "population": ROOT_POPULATION,
                "attributes": len(attrs),
                "rounds": ROOT_ROUNDS,
                "packed_ms": round(packed_ms, 3),
                "per_attribute_ms": round(reference_ms, 3),
                "identical_results": True,
            }
        }
    )


def test_bins_leg():
    """Per-row bin codes at 100k rows: edge counting vs. the binary search.

    Each round times a fresh store's codes (its vector already
    materialized, so only the binning is timed) against
    ``reference_bin_codes`` on the same vector, interleaved; the codes must
    be identical and the store no slower, at 5 bins and at the cap.
    """
    dataset = synthetic_population(size=BINS_POPULATION, seed=SEED)
    function = LinearScoringFunction(
        {"Language Test": 0.5, "Rating": 0.5}, name="balanced"
    )
    vector = ScoreStore(dataset, function).vector()
    results: Dict[str, Dict[str, object]] = {}
    for bins in BINS_COUNTS:
        binning = Binning.unit(bins)
        # One fresh store per timed call, its vector materialized untimed.
        stores = [ScoreStore(dataset, function) for _ in range(BINS_ROUNDS + 1)]
        for store in stores:
            store.vector()
        assert np.array_equal(
            stores.pop()._bin_codes_for(binning), reference_bin_codes(vector, binning)
        )
        kernel_s, reference_s = _best_of_interleaved(
            lambda: stores.pop()._bin_codes_for(binning),
            lambda: reference_bin_codes(vector, binning),
            BINS_ROUNDS,
        )
        print()
        print(
            f"bins {bins} at {BINS_POPULATION} rows: edge count "
            f"{kernel_s * 1000:.2f}ms, searchsorted {reference_s * 1000:.2f}ms"
        )
        assert kernel_s <= reference_s
        results[str(bins)] = {
            "kernel_ms": round(kernel_s * 1000, 3),
            "searchsorted_ms": round(reference_s * 1000, 3),
            "identical_codes": True,
        }
    _write_results(
        {"bins_100k": {"population": BINS_POPULATION, "bins": results}}
    )


#: Runs in a fresh interpreter so the peak RSS reflects exactly this
#: workload.  It reads ``VmHWM``, the high-water mark of this process image:
#: Linux carries ``ru_maxrss`` across exec, so that would report the
#: forking pytest process's peak whenever it is the larger.  Prints one
#: JSON line.
def _assert_same_search(result, reference) -> None:
    assert result.summary() == reference.summary()
    assert result.unfairness == reference.unfairness
    assert result.splits_evaluated == reference.splits_evaluated
    assert result.partitioning.labels == reference.partitioning.labels


def test_deep_leg():
    """A deep search: 10k rows at ``min_partition_size`` 24, a fresh store per round.

    The cost is per evaluated split, not per row: every node scores all
    its candidate splits, so the median is also recorded per split.  The
    same search runs under the paper's EMD and under total variation: every
    distance scores count rows through one kernel call per node.
    """
    dataset = synthetic_population(size=DEEP_POPULATION, seed=DEEP_SEED)
    function = LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="skill-mix")
    for key, distance in DEEP_DISTANCES.items():
        formulation = Formulation.from_names(distance=distance)
        reference = reference_quantify(
            dataset, function, formulation, min_partition_size=DEEP_MIN_PARTITION
        )
        elapsed: List[float] = []
        for round_index in range(DEEP_ROUNDS + 1):
            started = time.perf_counter()
            result = quantify(dataset, function, formulation, min_partition_size=DEEP_MIN_PARTITION)
            took = time.perf_counter() - started
            _assert_same_search(result, reference)
            if round_index:  # round 0 builds the dataset's codings
                elapsed.append(took)
        median = statistics.median(elapsed)
        per_split_us = median / result.splits_evaluated * 1e6
        print()
        print(
            f"deep {DEEP_POPULATION} rows, {distance}: median {median * 1000:.2f}ms, "
            f"{result.splits_evaluated} splits evaluated ({per_split_us:.0f}us each), "
            f"{len(result.partitioning)} leaves"
        )
        _write_results(
            {
                key: {
                    "population": DEEP_POPULATION,
                    "min_partition_size": DEEP_MIN_PARTITION,
                    "distance": distance,
                    "rounds": DEEP_ROUNDS,
                    "median_ms": round(median * 1000, 2),
                    "per_split_us": round(per_split_us, 1),
                    "splits_evaluated": result.splits_evaluated,
                    "partitions": len(result.partitioning),
                    "identical_results": True,
                }
            }
        )


def _check_role_searches(market, audit, owner, formulation) -> None:
    """Every search the auditor and the job owner ran equals the reference."""
    for job_audit in audit.audits:
        job = market.job(job_audit.job_title)
        candidates = job.candidates(market.workers)
        function = observed_function(job.function, candidates, job.title)
        _assert_same_search(
            job_audit.result,
            reference_quantify(
                candidates, function, formulation, min_partition_size=ROLES_MIN_PARTITION
            ),
        )
    candidates = market.job(ROLES_JOB).candidates(market.workers)
    for evaluation in owner.evaluations:
        _assert_same_search(
            evaluation.result,
            reference_quantify(
                candidates, evaluation.function, formulation,
                min_partition_size=ROLES_MIN_PARTITION,
            ),
        )


def test_roles_leg():
    """The auditor, job-owner and end-user scenarios, cold, on 400 workers.

    Each round generates the marketplace afresh (untimed), so no coding,
    grouping or score store survives from the round before.  The end
    user's search (every protected attribute, ``min_partition_size`` 1)
    is checked against the reference directly.
    """
    elapsed: Dict[str, List[float]] = {"audit": [], "job_owner": [], "end_user": []}
    for round_index in range(ROLES_ROUNDS + 1):
        market = crowdsourcing_marketplace(ROLES_MARKET_SIZE, seed=ROLES_SEED)
        auditor = Auditor(min_partition_size=ROLES_MIN_PARTITION)
        owner = JobOwner(min_partition_size=ROLES_MIN_PARTITION)
        user = EndUser({"Gender": "Female"})
        timed = {
            "audit": lambda: auditor.audit_marketplace(market),
            "job_owner": lambda: owner.explore_job(
                market, ROLES_JOB, sweep_steps=ROLES_SWEEP_STEPS
            ),
            "end_user": lambda: user.assess_job(market, ROLES_JOB),
        }
        outcomes = {}
        for role, call in timed.items():
            started = time.perf_counter()
            outcomes[role] = call()
            took = time.perf_counter() - started
            if round_index:  # round 0 warms the interpreter's imports
                elapsed[role].append(took)
        if not round_index:
            _check_role_searches(market, outcomes["audit"], outcomes["job_owner"],
                                 auditor.formulation)
            job = market.job(ROLES_JOB)
            candidates = job.candidates(market.workers)
            function = observed_function(job.function, candidates, ROLES_JOB)
            _assert_same_search(
                quantify(candidates, function, user.formulation),
                reference_quantify(candidates, function, user.formulation),
            )
    medians = {role: statistics.median(times) for role, times in elapsed.items()}
    print()
    print(
        f"roles on {ROLES_MARKET_SIZE} workers (cold): "
        + ", ".join(f"{role} {value * 1000:.1f}ms" for role, value in medians.items())
    )
    _write_results(
        {
            "roles_market": {
                "workers": ROLES_MARKET_SIZE,
                "job": ROLES_JOB,
                "min_partition_size": ROLES_MIN_PARTITION,
                "rounds": ROLES_ROUNDS,
                **{f"{role}_ms": round(value * 1000, 2) for role, value in medians.items()},
                "identical_results": True,
            }
        }
    )


_MILLION_LEG_SCRIPT = """
import json, resource, sys, time
from repro.core.quantify import quantify
from repro.experiments.workloads import synthetic_population
from repro.scoring.linear import LinearScoringFunction
from repro.service.fingerprint import fingerprint_dataset

size = int(sys.argv[1])
started = time.perf_counter()
dataset = synthetic_population(size=size)
build_s = time.perf_counter() - started
started = time.perf_counter()
fingerprint_dataset(dataset)
fingerprint_s = time.perf_counter() - started
function = LinearScoringFunction(
    {"Language Test": 0.5, "Rating": 0.5}, name="balanced"
)
started = time.perf_counter()
result = quantify(dataset, function, min_partition_size=size // 400)
quantify_s = time.perf_counter() - started
try:
    with open("/proc/self/status") as status:
        peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "build_s": round(build_s, 3),
    "quantify_s": round(quantify_s, 3),
    "fingerprint_s": round(fingerprint_s, 4),
    "rows_per_s": round(size / quantify_s),
    "peak_rss_mb": round(peak_kb / 1024, 1),
    "unfairness": result.unfairness,
    "partitions": len(result.partitioning),
    "splits_evaluated": result.splits_evaluated,
}))
"""


def test_million_row_leg():
    """Build, fingerprint and QUANTIFY a million-row population.

    Records the three times and the peak RSS.  Runs in its own interpreter
    so the peak-RSS high-water mark isolates this one workload.
    Gate: the content fingerprint (hashed from the column buffers) costs
    less than the QUANTIFY it keys.
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
        f"1M rows: build {columnar['build_s']}s  fingerprint "
        f"{columnar['fingerprint_s']}s  quantify "
        f"{columnar['quantify_s']}s ({columnar['rows_per_s']:,} rows/s)  "
        f"peak RSS {columnar['peak_rss_mb']}MB"
    )
    _write_results({"quantify_1m": {"population": MILLION, "columnar": columnar}})
    assert columnar["partitions"] >= 1
    assert columnar["fingerprint_s"] < columnar["quantify_s"], columnar


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
