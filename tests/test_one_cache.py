"""One cache layer: request bytes in the result cache, scoring in the store pool.

A cold service answering one request of each of the seven v2 kinds scores
each distinct (population, function) pair exactly once, every pass lands in
the shared score-store pool (no role keeps a private store), and the result
cache ends up holding one encoded payload per request and nothing else.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.experiments.workloads import crowdsourcing_marketplace, synthetic_population
from repro.scoring.linear import LinearScoringFunction
from repro.service import (
    AuditRequest,
    BreakdownRequest,
    CompareRequest,
    EndUserRequest,
    FairnessService,
    JobOwnerRequest,
    QuantifyRequest,
    SweepRequest,
)
from repro.service.fingerprint import fingerprint_dataset, fingerprint_function

REQUESTS = (
    QuantifyRequest(dataset="pop", function="skill-mix", min_partition_size=5),
    CompareRequest(dataset="pop", functions=("skill-mix", "rating-heavy"),
                   min_partition_size=5),
    BreakdownRequest(dataset="pop", function="skill-mix"),
    SweepRequest(dataset="pop", function="skill-mix", steps=3, min_partition_size=5),
    AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=5),
    EndUserRequest(group={"Gender": "Female"}, marketplaces=("crowdsourcing-sim",),
                   job="Content writing"),
    JobOwnerRequest(marketplace="crowdsourcing-sim", job="Content writing",
                    sweep_steps=3, min_partition_size=5),
)


@pytest.fixture()
def scoring_calls(monkeypatch) -> List[Tuple[str, str]]:
    """Every ``score_dataset`` call of any linear scorer, as (dataset, function) fingerprints."""
    calls: List[Tuple[str, str]] = []
    score_dataset = LinearScoringFunction.score_dataset

    def counting(self, dataset):
        calls.append((fingerprint_dataset(dataset), fingerprint_function(self)))
        return score_dataset(self, dataset)

    monkeypatch.setattr(LinearScoringFunction, "score_dataset", counting)
    return calls


def build_service() -> FairnessService:
    service = FairnessService()
    service.register_dataset(synthetic_population(size=300, seed=31), name="pop")
    service.register_function(
        LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="skill-mix")
    )
    service.register_function(
        LinearScoringFunction({"Language Test": 0.2, "Rating": 0.8}, name="rating-heavy")
    )
    service.register_marketplace(crowdsourcing_marketplace(size=200, seed=31))
    return service


class TestOneCacheLayer:
    def test_cold_run_scores_each_pair_once_through_the_pool(self, scoring_calls):
        service = build_service()
        for request in REQUESTS:
            assert service.execute(request).ok, request.kind
        assert len({request.kind for request in REQUESTS}) == 7
        assert len(scoring_calls) == len(set(scoring_calls))
        assert len(scoring_calls) == service.store_stats.scoring_passes

    def test_result_cache_holds_one_payload_per_request(self, scoring_calls):
        service = build_service()
        first = [service.execute(request) for request in REQUESTS]
        assert len(service.cache) == len(REQUESTS)
        assert all(isinstance(value, bytes) for _, value in service.cache.items())
        passes = len(scoring_calls)
        # The second round is served from the request bytes alone.
        again = [service.execute(request) for request in REQUESTS]
        assert all(result.cached for result in again)
        assert [r.payload_json for r in again] == [r.payload_json for r in first]
        assert len(scoring_calls) == passes
        assert len(service.cache) == len(REQUESTS)
