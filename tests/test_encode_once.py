"""Encode once: cached payload bytes reach the wire without a re-encode.

The request-level cache holds ``json.dumps(payload)`` bytes; a
``ServiceResult`` built from them decodes ``payload`` lazily and
``ServiceResult.encode()`` splices the bytes into the envelope.  Every test
here pins a byte-level promise of that path against the plain
``json.dumps(result.to_json())`` encoding the wire format is defined by.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.formulations import MOST_UNFAIR_AVG_EMD
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.experiments.workloads import crowdsourcing_marketplace
from repro.obs.metrics import parse_prometheus
from repro.scoring.linear import LinearScoringFunction
from repro.server import FairnessHTTPServer
from repro.service import (
    AuditRequest,
    BreakdownRequest,
    CompareRequest,
    EndUserRequest,
    FairnessService,
    JobOwnerRequest,
    QuantifyRequest,
    ServiceResult,
    SweepRequest,
)

REQUESTS = [
    QuantifyRequest(dataset="table1", function="table1-f"),
    AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=5),
    CompareRequest(dataset="table1", functions=("table1-f", "balanced")),
    BreakdownRequest(dataset="table1", function="table1-f"),
    SweepRequest(dataset="table1", function="table1-f", steps=3),
    EndUserRequest(
        group={"Gender": "Female"},
        marketplaces=("crowdsourcing-sim",),
        job="Content writing",
    ),
    JobOwnerRequest(
        marketplace="crowdsourcing-sim", job="Content writing", sweep_steps=3
    ),
]


def build_service() -> FairnessService:
    service = FairnessService()
    service.register_dataset(load_example_table1(), name="table1")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    service.register_function(
        LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    )
    service.register_marketplace(crowdsourcing_marketplace(size=60, seed=7))
    service.register_formulation(MOST_UNFAIR_AVG_EMD)
    return service


def reference_encoding(result: ServiceResult) -> bytes:
    return json.dumps(result.to_json()).encode("utf-8")


@pytest.fixture(scope="module")
def server():
    with FairnessHTTPServer(build_service(), port=0) as running:
        running.serve_in_background()
        yield running


def post(server, path: str, document: object):
    request = urllib.request.Request(
        f"{server.base_url}{path}",
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestEncoder:
    @pytest.mark.parametrize("request_", REQUESTS, ids=lambda r: r.kind)
    def test_encode_matches_to_json_cold_and_warm(self, request_):
        service = build_service()
        cold = service.execute(request_)
        warm = service.execute(request_)
        assert (cold.cached, warm.cached) == (False, True)
        for result in (cold, warm):
            assert result.payload_json is not None
            assert result.encode() == reference_encoding(result)
        assert cold.payload == warm.payload

    def test_error_envelopes_encode_identically(self):
        service = build_service()
        failed = service.execute(QuantifyRequest(dataset="missing", function="table1-f"))
        assert not failed.ok and failed.payload_json is None
        assert failed.encode() == reference_encoding(failed)

    def test_results_built_from_dicts_encode_identically(self):
        result = ServiceResult(
            kind="quantify", key="k", payload={"é": [1e-07, float("inf"), None]},
            timings={"trace_id": "t", "total_ms": 0.5},
        )
        assert result.encode() == reference_encoding(result)

    def test_payload_decodes_lazily_into_a_private_tree(self):
        service = build_service()
        request = REQUESTS[0]
        service.execute(request)
        warm = service.execute(request)
        assert "payload" not in vars(warm)  # nothing decoded yet
        warm.payload["partitions"].clear()
        assert "payload" in vars(warm)
        # The bytes (and so the wire body) are untouched by the mutation...
        assert json.loads(warm.payload_json)["partitions"]
        # ...and so is the cache.
        assert service.execute(request).payload["partitions"]


class TestWire:
    @pytest.mark.parametrize("request_", REQUESTS, ids=lambda r: r.kind)
    def test_kind_bodies_are_plain_json_dumps(self, server, request_):
        for _ in range(2):  # cold, then warm
            status, body = post(server, f"/v2/{request_.kind}", request_.to_json())
            assert status == 200
            assert json.dumps(json.loads(body)).encode("utf-8") == body

    def test_error_body_is_plain_json_dumps(self, server):
        status, body = post(
            server, "/v2/quantify", {"dataset": "missing", "function": "table1-f"}
        )
        assert status == 422
        assert json.dumps(json.loads(body)).encode("utf-8") == body

    def test_batch_body_is_plain_json_dumps(self, server):
        document = {
            "requests": [request.to_json() for request in REQUESTS]
            + [{"kind": "quantify", "dataset": "missing", "function": "table1-f"},
               "not a request"]
        }
        status, body = post(server, "/v2/batch", document)
        assert status == 200
        decoded = json.loads(body)
        assert len(decoded["results"]) == len(REQUESTS) + 2
        assert json.dumps(decoded).encode("utf-8") == body

    def test_a_warm_hit_re_encodes_no_payload(self, server, monkeypatch):
        request = QuantifyRequest(dataset="table1", function="table1-f", bins=9)
        status, cold = post(server, "/v2/quantify", request.to_json())
        assert status == 200
        payload_text = json.dumps(json.loads(cold)["payload"])

        encoded = []
        real_dumps = json.dumps

        def spy(value, *args, **kwargs):
            text = real_dumps(value, *args, **kwargs)
            encoded.append(text)
            return text

        monkeypatch.setattr(json, "dumps", spy)
        request_body = real_dumps(request.to_json()).encode("utf-8")
        http_request = urllib.request.Request(
            f"{server.base_url}/v2/quantify", data=request_body, method="POST"
        )
        with urllib.request.urlopen(http_request, timeout=60) as response:
            warm = json.loads(response.read())
        monkeypatch.undo()
        assert warm["cached"] is True
        assert encoded, "the envelope fields are still encoded"
        assert not any(payload_text in text for text in encoded)

    def test_response_bytes_metric_records_the_body(self, server):
        def recorded():
            page = parse_prometheus(server.metrics_text())
            return (
                page.value("fairank_http_response_bytes_count", endpoint="/v2/quantify"),
                page.value("fairank_http_response_bytes_sum", endpoint="/v2/quantify"),
            )

        count_before, sum_before = recorded()
        _, body = post(server, "/v2/quantify", REQUESTS[0].to_json())
        count_after, sum_after = recorded()
        assert count_after == count_before + 1
        assert sum_after - sum_before == len(body)
