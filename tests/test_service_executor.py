"""Batch executor: serial execution, deduplication, deterministic ordering."""

from __future__ import annotations

import threading
from typing import List

import pytest

from repro.catalog import Catalog
from repro.experiments.workloads import crowdsourcing_marketplace
from repro.marketplace.generator import CrowdsourcingGenerator
from repro.obs.trace import Trace, activate
from repro.server import FairnessHTTPServer, HTTPFairnessClient
from repro.scoring.linear import LinearScoringFunction
from repro.service import (
    AuditRequest,
    BatchExecutor,
    CompareRequest,
    FairnessService,
    QuantifyRequest,
)
from repro.shard import ShardRouter, WorkerPool
from repro.snapshot import snapshot_fingerprints


def build_service() -> FairnessService:
    service = FairnessService()
    service.register_dataset(
        CrowdsourcingGenerator(seed=13).generate(120, name="pop"), name="pop"
    )
    service.register_function(
        LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    )
    service.register_function(
        LinearScoringFunction({"Language Test": 0.9, "Rating": 0.1}, name="language-heavy")
    )
    service.register_marketplace(crowdsourcing_marketplace(size=100, seed=13))
    return service


def mixed_batch_16() -> List:
    """16 mixed requests, including duplicates and all three kinds."""
    quantify = [
        QuantifyRequest(dataset="pop", function=function, aggregation=aggregation,
                        min_partition_size=3)
        for function in ("balanced", "language-heavy")
        for aggregation in ("average", "maximum", "variance")
    ]  # 6 distinct
    extras = [
        QuantifyRequest(dataset="pop", function="balanced", objective="least_unfair",
                        min_partition_size=3),
        QuantifyRequest(dataset="pop", function="balanced", use_ranks_only=True,
                        min_partition_size=3),
        QuantifyRequest(dataset="crowdsourcing-sim", function="Content writing",
                        min_partition_size=3),
        AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=3),
        AuditRequest(marketplace="crowdsourcing-sim", job="Data labelling",
                     min_partition_size=3),
        CompareRequest(dataset="pop", functions=("balanced", "language-heavy"),
                       min_partition_size=3),
    ]  # 6 distinct
    duplicates = [quantify[0], quantify[3], extras[3], extras[5]]  # 4 duplicates
    batch = quantify + extras + duplicates
    assert len(batch) == 16
    return batch


class TestBatchExecution:
    def test_16_request_batch_matches_serial_byte_for_byte(self):
        serial = BatchExecutor(build_service()).run_serial(mixed_batch_16())
        batched = BatchExecutor(build_service()).run(mixed_batch_16())
        assert len(serial) == len(batched) == 16
        assert [r.canonical() for r in batched] == [r.canonical() for r in serial]

    def test_results_come_back_in_input_order(self):
        service = build_service()
        batch = mixed_batch_16()
        results = BatchExecutor(service).run(batch)
        assert [result.kind for result in results] == [request.kind for request in batch]
        assert [result.key for result in results] == [
            service.request_key(request) for request in batch
        ]

    def test_duplicate_requests_share_one_computation(self):
        service = build_service()
        request = QuantifyRequest(dataset="pop", function="balanced", min_partition_size=3)
        results = BatchExecutor(service).run([request] * 8)
        assert len(results) == 8
        assert len({id(result) for result in results}) == 1, "duplicates share the result"
        # Only one quantify computation hit the service cache as a miss.
        assert service.cache_stats.misses == 1

    def test_duplicates_in_a_mixed_batch_share_their_first_slots_result(self):
        service = build_service()
        batch = mixed_batch_16()
        results = BatchExecutor(service).run(batch)
        # Slots 12-15 repeat slots 0, 3, 9 and 11.
        for duplicate, first in zip(range(12, 16), (0, 3, 9, 11)):
            assert results[duplicate] is results[first]
        assert service.cache_stats.misses == 12

    def test_empty_batch(self):
        assert BatchExecutor(build_service()).run([]) == []


class TestSerialContract:
    def test_run_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"BatchExecutor.run started thread {thread.name}")

        service = build_service()
        monkeypatch.setattr(threading.Thread, "start", refuse)
        results = BatchExecutor(service).run(mixed_batch_16())
        assert all(result.error is None for result in results)

    def test_run_inherits_the_active_trace_id(self):
        batch = mixed_batch_16()[:4] + [QuantifyRequest(dataset="nope", function="balanced")]
        with activate(Trace("pinned-batch-trace")):
            results = BatchExecutor(build_service()).run(batch)
        assert [result.timings["trace_id"] for result in results] == [
            "pinned-batch-trace"
        ] * len(batch)

    def test_queue_ms_does_not_decrease_across_distinct_slots(self):
        batch = mixed_batch_16()[:12]  # all distinct
        results = BatchExecutor(build_service()).run(batch)
        queued = [float(result.timings.get("queue_ms", 0.0)) for result in results]
        assert queued == sorted(queued)
        # Each slot waits for every slot before it.
        assert queued[-1] >= sum(
            float(result.timings["compute_ms"]) for result in results[:-1]
        )


class TestWarmBatch:
    def test_second_run_is_fully_cached(self):
        service = build_service()
        executor = BatchExecutor(service)
        cold = executor.run(mixed_batch_16())
        warm = executor.run(mixed_batch_16())
        assert all(result.cached for result in warm)
        assert [r.canonical() for r in warm] == [r.canonical() for r in cold]


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("executor") / "deployment.json"
    build_service().catalog.save(path)
    return path


def _mixed_batch_with_a_bad_slot() -> List:
    batch = mixed_batch_16()
    batch.insert(5, QuantifyRequest(dataset="nope", function="balanced"))
    return batch


class TestBatchOverHTTP:
    """The same contract over ``/v2/batch``, single process and sharded."""

    def _expected(self, snapshot) -> List[bytes]:
        reference = FairnessService(catalog=Catalog.load(snapshot))
        serial = BatchExecutor(reference).run_serial(_mixed_batch_with_a_bad_slot())
        return [result.canonical() for result in serial]

    def test_single_process_batch_matches_serial(self, snapshot):
        service = FairnessService(catalog=Catalog.load(snapshot))
        with FairnessHTTPServer(service, port=0) as server:
            server.serve_in_background()
            results = HTTPFairnessClient(server.base_url).batch(
                _mixed_batch_with_a_bad_slot()
            )
        assert [r.canonical() for r in results] == self._expected(snapshot)
        assert results[5].error is not None
        # 12 distinct requests, 4 duplicates: one miss per distinct request.
        assert service.cache_stats.misses == 12

    def test_router_batch_matches_serial(self, snapshot):
        pool = WorkerPool(snapshot, 2, backoff_base_s=0.1, backoff_max_s=1.0)
        pool.start()
        router = ShardRouter(pool, fingerprints=snapshot_fingerprints(snapshot))
        router.serve_in_background()
        try:
            results = HTTPFairnessClient(router.base_url, timeout=120.0).batch(
                _mixed_batch_with_a_bad_slot()
            )
        finally:
            router.shutdown()
            router.server_close()
            pool.stop()
        assert [r.canonical() for r in results] == self._expected(snapshot)
        assert results[5].error is not None
        assert not any(result.cached for result in results)
