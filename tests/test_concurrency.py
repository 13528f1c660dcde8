"""Concurrency stress: one FairnessService hammered from many threads.

The serving stack multiplexes every transport — HTTP handler threads, the
batch executor's pool, the shard router's fan-out — onto one
:class:`~repro.service.service.FairnessService`.  Its result cache
(single-flight ``get_or_compute``) and score-store pool are the two shared
mutable structures; a race in either would surface as a divergent payload,
a double-computed store, or a crash.  These tests drive 16 threads of mixed
quantify / sweep / breakdown / batch traffic and require byte-identical
results versus serial execution on a fresh, identically-populated service.
"""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.formulations import MOST_UNFAIR_AVG_EMD
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.experiments.workloads import crowdsourcing_marketplace, synthetic_population
from repro.scoring.linear import LinearScoringFunction
from repro.service import (
    AuditRequest,
    BatchExecutor,
    BreakdownRequest,
    CompareRequest,
    FairnessService,
    QuantifyRequest,
    SweepRequest,
)

THREADS = 16


def build_service() -> FairnessService:
    service = FairnessService()
    service.register_dataset(load_example_table1(), name="table1")
    service.register_dataset(synthetic_population(size=120, seed=3), name="synthetic-120")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    service.register_function(
        LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    )
    service.register_marketplace(crowdsourcing_marketplace(size=40, seed=7))
    service.register_formulation(MOST_UNFAIR_AVG_EMD)
    return service


def mixed_requests():
    """A mixed workload hitting shared stores from several request kinds."""
    return [
        QuantifyRequest(dataset="table1", function="table1-f"),
        QuantifyRequest(dataset="table1", function="balanced", bins=7),
        QuantifyRequest(dataset="synthetic-120", function="balanced",
                        min_partition_size=5),
        BreakdownRequest(dataset="table1", function="table1-f"),
        BreakdownRequest(dataset="synthetic-120", function="balanced"),
        SweepRequest(dataset="table1", function="table1-f", steps=3),
        SweepRequest(dataset="synthetic-120", function="balanced", steps=3,
                     min_partition_size=5),
        CompareRequest(dataset="table1", functions=("table1-f", "balanced")),
        AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=5),
    ]


class TestServiceUnderThreadStress:
    def test_16_threads_of_mixed_traffic_match_serial_results(self):
        requests = mixed_requests()
        # The serial reference runs on its *own* service: any cross-thread
        # contamination of cache or stores in the stressed service shows up
        # as a canonical() mismatch.
        reference_service = build_service()
        reference = {
            request: reference_service.execute(request).canonical()
            for request in requests
        }

        service = build_service()
        errors: list = []
        mismatches: list = []
        barrier = threading.Barrier(THREADS)

        def worker(seed: int) -> None:
            generator = random.Random(seed)
            plan = requests * 3
            generator.shuffle(plan)
            barrier.wait()  # maximise simultaneous first-computation races
            for request in plan:
                try:
                    result = service.execute(request)
                except Exception as error:  # noqa: BLE001 - recorded for the assert
                    errors.append(error)
                    return
                if result.error is not None:
                    errors.append(result.error)
                    return
                if result.canonical() != reference[request]:
                    mismatches.append(request.kind)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, f"threaded execution failed: {errors[:3]}"
        assert not mismatches, f"divergent payloads under contention: {mismatches}"

        # Single-flight caching must hold under contention: every (dataset,
        # function) pair materialises exactly one store, and the cache never
        # computed one key twice (misses == distinct keys it ever computed).
        # Each execute makes exactly one lookup: the cache holds request keys only.
        stats = service.cache_stats
        assert stats.hits + stats.misses == THREADS * len(requests) * 3
        assert stats.misses == len(requests)

    def test_batch_executor_against_concurrent_raw_traffic(self):
        """Batches and raw executes share the cache without deadlock or drift."""
        service = build_service()
        requests = mixed_requests()
        reference_service = build_service()
        reference = {
            request: reference_service.execute(request).canonical()
            for request in requests
        }
        executor = BatchExecutor(service)

        def run_batch(round_index: int):
            return [result.canonical() for result in executor.run(requests)]

        def run_raw(round_index: int):
            generator = random.Random(round_index)
            plan = list(requests)
            generator.shuffle(plan)
            return [
                (request, service.execute(request).canonical()) for request in plan
            ]

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            batch_futures = [pool.submit(run_batch, index) for index in range(8)]
            raw_futures = [pool.submit(run_raw, index) for index in range(8)]
            batch_rounds = [future.result(timeout=300) for future in batch_futures]
            raw_rounds = [future.result(timeout=300) for future in raw_futures]

        expected_batch = [reference[request] for request in requests]
        for round_result in batch_rounds:
            assert round_result == expected_batch
        for round_result in raw_rounds:
            for request, canonical in round_result:
                assert canonical == reference[request], request.kind

    def test_store_pool_shares_one_scoring_pass_per_pair_under_contention(self):
        """N threads asking for the same store race to a single scoring pass."""
        service = build_service()
        dataset = service.dataset("table1")
        function = service.function("table1-f")
        barrier = threading.Barrier(THREADS)
        stores = []
        lock = threading.Lock()

        def fetch() -> None:
            barrier.wait()
            store = service.score_store(dataset, function)
            vector = store.vector()
            with lock:
                stores.append((store, vector.tobytes()))

        threads = [threading.Thread(target=fetch) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(stores) == THREADS
        first_store, first_vector = stores[0]
        assert all(store is first_store for store, _ in stores)
        assert all(vector == first_vector for _, vector in stores)
        assert first_store.stats.scoring_passes == 1
