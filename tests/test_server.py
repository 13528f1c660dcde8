"""Tests for the HTTP front end (repro.server): endpoints, parity, errors."""

import json
import os
import re
import subprocess
import sys
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.formulations import MOST_UNFAIR_AVG_EMD
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.errors import ServiceError
from repro.experiments.workloads import crowdsourcing_marketplace
from repro.metrics.histogram import MAX_BINS
from repro.obs.trace import TRACE_HEADER
from repro.scoring.linear import LinearScoringFunction
from repro.server import REQUEST_ENDPOINTS, FairnessHTTPServer, HTTPFairnessClient
from repro.server.http import MAX_BODY_BYTES
from repro.service.jobs import MAX_SWEEP_POINTS
from repro.service import (
    AuditRequest,
    FairnessClient,
    FairnessService,
    QuantifyRequest,
    ServiceResult,
)


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


@pytest.fixture(scope="module")
def server():
    with FairnessHTTPServer(build_service(), port=0) as running:
        running.serve_in_background()
        yield running


@pytest.fixture(scope="module")
def client(server):
    return HTTPFairnessClient(server.base_url)


#: Well-typed requests outside a decode bound: ``(kind, body, message)``.
BOUND_CASES = [
    *(
        (kind, {**body, "min_partition_size": 0},
         f"{kind} request field 'min_partition_size' must be >= 1, got 0")
        for kind, body in (
            ("quantify", {"dataset": "table1", "function": "table1-f"}),
            ("audit", {"marketplace": "crowdsourcing-sim"}),
            ("compare", {"dataset": "table1", "functions": ["table1-f", "balanced"]}),
            ("breakdown", {"dataset": "table1", "function": "table1-f"}),
            ("sweep", {"dataset": "table1", "function": "table1-f"}),
            ("job_owner", {"marketplace": "crowdsourcing-sim", "job": "Content writing"}),
        )
    ),
    ("compare", {"dataset": "table1", "functions": ["table1-f"] * (MAX_SWEEP_POINTS + 1)},
     f"compare request field 'functions' must have length <= {MAX_SWEEP_POINTS}, "
     f"got {MAX_SWEEP_POINTS + 1}"),
    ("end_user", {"group": {"Gender": "Female"}, "job": "Content writing",
                  "marketplaces": ["crowdsourcing-sim"] * (MAX_SWEEP_POINTS + 1)},
     f"end_user request field 'marketplaces' must have length <= {MAX_SWEEP_POINTS}, "
     f"got {MAX_SWEEP_POINTS + 1}"),
]


def raw_call(server, path, method="GET", body=None, headers=None):
    """A raw HTTP exchange (status, parsed JSON) bypassing the typed client."""
    request = urllib.request.Request(
        f"{server.base_url}{path}",
        data=None if body is None else body,
        headers=headers or {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestReadEndpoints:
    def test_health_reports_liveness_and_stats(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == 2
        assert health["uptime_s"] >= 0
        assert set(health["cache"]) >= {"hits", "misses", "entries"}
        assert set(health["store_pool"]) >= {"stores", "scoring_passes"}
        assert health["catalog"]["dataset"] >= 2
        assert set(REQUEST_ENDPOINTS) <= set(health["endpoints"])

    def test_health_counts_served_requests(self, server, client):
        before = client.health()["requests_served"]
        client.health()
        assert client.health()["requests_served"] >= before + 2

    def test_catalog_lists_the_registry(self, client):
        listing = client.catalog()
        names = {entry["name"] for entry in listing["resources"]}
        assert {"table1", "table1-f", "crowdsourcing-sim"} <= names
        assert listing["counts"]["marketplace"] == 1

    def test_trailing_slash_is_tolerated(self, server):
        status, payload = raw_call(server, "/v2/health/")
        assert status == 200 and payload["status"] == "ok"


class TestRequestEndpoints:
    def test_every_kind_is_byte_identical_to_in_process(self, server, client):
        in_process = FairnessClient(server.service)
        calls = [
            ("quantify", lambda c: c.quantify("table1", "table1-f")),
            ("audit", lambda c: c.audit("crowdsourcing-sim", min_partition_size=5)),
            ("compare", lambda c: c.compare("table1", ["table1-f", "balanced"])),
            ("breakdown", lambda c: c.breakdown("table1", "table1-f")),
            ("sweep", lambda c: c.sweep("table1", "table1-f", steps=3)),
            (
                "end_user",
                lambda c: c.end_user(
                    {"Gender": "Female"}, ["crowdsourcing-sim"], "Content writing"
                ),
            ),
            (
                "job_owner",
                lambda c: c.job_owner(
                    "crowdsourcing-sim", "Content writing", sweep_steps=3
                ),
            ),
        ]
        for kind, call in calls:
            over_http = call(client)
            local = call(in_process)
            assert over_http.kind == kind
            assert over_http.canonical() == local.canonical(), kind

    def test_http_traffic_shares_the_service_cache(self, server, client):
        request = dict(dataset="table1", function="table1-f", bins=7)
        client.quantify(**request)
        assert client.quantify(**request).cached is True
        # ... and the same request in-process is a hit too: one cache.
        assert server.service.execute(
            QuantifyRequest(dataset="table1", function="table1-f", bins=7)
        ).cached is True

    def test_kind_field_in_body_is_optional(self, server):
        body = json.dumps({"dataset": "table1", "function": "table1-f"}).encode()
        status, payload = raw_call(
            server, "/v2/quantify", method="POST", body=body,
            headers={"Content-Type": "application/json"},
        )
        assert status == 200
        assert payload["kind"] == "quantify"
        assert payload["error"] is None

    def test_concurrent_requests_are_served(self, client):
        def fire(bins):
            return client.quantify("table1", "table1-f", bins=bins)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fire, [2, 3, 4, 5] * 4))
        assert len(results) == 16
        assert all(result.ok for result in results)
        assert len({result.key for result in results}) == 4


class TestErrorMapping:
    def test_unknown_resource_is_an_error_envelope_with_422(self, server):
        body = json.dumps({"dataset": "missing", "function": "table1-f"}).encode()
        status, payload = raw_call(server, "/v2/quantify", method="POST", body=body)
        assert status == 422
        assert payload["error"]["code"] == "service"
        assert "missing" in payload["error"]["message"]

    def test_client_raises_or_returns_the_envelope(self, server):
        raising = HTTPFairnessClient(server.base_url)
        with pytest.raises(ServiceError, match="unknown dataset"):
            raising.quantify("missing", "table1-f")
        inspecting = HTTPFairnessClient(server.base_url, raise_errors=False)
        envelope = inspecting.quantify("missing", "table1-f")
        assert not envelope.ok
        assert envelope.error["code"] == "service"

    def test_malformed_json_is_400(self, server):
        status, payload = raw_call(
            server, "/v2/quantify", method="POST", body=b"{not json"
        )
        assert status == 400
        assert "not valid JSON" in payload["error"]["message"]

    def test_empty_body_is_400(self, server):
        status, payload = raw_call(server, "/v2/quantify", method="POST", body=b"")
        assert status == 400
        assert "empty" in payload["error"]["message"]

    def test_kind_mismatch_between_path_and_body_is_400(self, server):
        body = json.dumps(
            {"kind": "audit", "dataset": "table1", "function": "table1-f"}
        ).encode()
        status, payload = raw_call(server, "/v2/quantify", method="POST", body=body)
        assert status == 400
        assert "declares kind 'audit'" in payload["error"]["message"]

    @pytest.mark.parametrize(
        "kind, body, field",
        [
            ("quantify", {"dataset": "table1", "function": "table1-f",
                          "min_partition_size": None}, "min_partition_size"),
            ("audit", {"marketplace": "crowdsourcing-sim", "attributes": "age"},
             "attributes"),
            ("compare", {"dataset": "table1", "functions": "abc"}, "functions"),
            ("breakdown", {"dataset": "table1", "function": "table1-f",
                           "use_ranks_only": "false"}, "use_ranks_only"),
            ("sweep", {"dataset": "table1", "function": "table1-f", "steps": 5.9},
             "steps"),
            ("end_user", {"group": [["Gender", "F"]], "marketplaces": ["m"],
                          "job": "J"}, "group"),
            ("job_owner", {"marketplace": ["crowdsourcing-sim"], "job": "J"},
             "marketplace"),
        ],
    )
    def test_wrong_typed_field_is_400_naming_the_field(self, server, kind, body, field):
        status, payload = raw_call(
            server, f"/v2/{kind}", method="POST", body=json.dumps(body).encode()
        )
        assert status == 400
        assert payload["error"]["code"] == "service"
        assert f"{kind} request field {field!r} must be" in payload["error"]["message"]

    @pytest.mark.parametrize("max_depth", [0, -1])
    @pytest.mark.parametrize(
        "kind, body",
        [
            ("quantify", {"dataset": "table1", "function": "table1-f"}),
            ("compare", {"dataset": "table1", "functions": ["table1-f", "balanced"]}),
            ("sweep", {"dataset": "table1", "function": "table1-f"}),
        ],
    )
    def test_max_depth_below_one_is_400_naming_the_bound(
        self, server, kind, body, max_depth
    ):
        status, payload = raw_call(
            server,
            f"/v2/{kind}",
            method="POST",
            body=json.dumps({**body, "max_depth": max_depth}).encode(),
        )
        assert status == 400
        assert payload["error"] == {
            "code": "service",
            "message": f"{kind} request field 'max_depth' must be >= 1, got {max_depth}",
        }

    @pytest.mark.parametrize("bins", [0, MAX_BINS + 1])
    def test_bins_outside_bounds_is_400_naming_the_bound(self, server, bins):
        body = {"dataset": "table1", "function": "table1-f", "bins": bins}
        status, payload = raw_call(
            server, "/v2/quantify", method="POST", body=json.dumps(body).encode()
        )
        assert status == 400
        assert payload["error"] == {
            "code": "service",
            "message": (
                f"quantify request field 'bins' must be in [1, {MAX_BINS}], got {bins}"
            ),
        }

    @pytest.mark.parametrize(
        "kind, body, message",
        [
            ("sweep", {"dataset": "table1", "function": "table1-f", "steps": 100_000},
             f"sweep request field 'steps' must be <= {MAX_SWEEP_POINTS}, got 100000"),
            ("sweep", {"dataset": "table1", "function": "table1-f",
                       "weights": [{"Rating": 1.0}] * (MAX_SWEEP_POINTS + 1)},
             f"sweep request field 'weights' must have length <= {MAX_SWEEP_POINTS}, "
             f"got {MAX_SWEEP_POINTS + 1}"),
            ("job_owner", {"marketplace": "crowdsourcing-sim", "job": "Content writing",
                           "sweep_steps": MAX_SWEEP_POINTS + 1},
             f"job_owner request field 'sweep_steps' must be <= {MAX_SWEEP_POINTS}, "
             f"got {MAX_SWEEP_POINTS + 1}"),
        ],
    )
    def test_oversized_sweep_is_400_naming_the_bound(self, server, kind, body, message):
        before = server.service.cache_stats
        status, payload = raw_call(
            server, f"/v2/{kind}", method="POST", body=json.dumps(body).encode()
        )
        assert status == 400
        assert payload["error"] == {"code": "service", "message": message}
        # Refused at decode: never keyed, never looked up.
        after = server.service.cache_stats
        assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("kind, body, message", BOUND_CASES)
    def test_partition_size_and_fan_out_bounds_are_400(self, server, kind, body, message):
        before = server.service.cache_stats
        status, payload = raw_call(
            server, f"/v2/{kind}", method="POST", body=json.dumps(body).encode()
        )
        assert status == 400
        assert payload["error"] == {"code": "service", "message": message}
        after = server.service.cache_stats
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_weights_whose_sum_overflows_are_422_scoring(self, server):
        # Each weight is finite; their sum is not, and normalising by it
        # used to turn every weight into 0 and score everyone 0.
        body = {"dataset": "table1", "function": "table1-f",
                "weights": [{"Language Test": 1e308, "Rating": 1e308}]}
        status, payload = raw_call(
            server, "/v2/sweep", method="POST", body=json.dumps(body).encode()
        )
        assert status == 422
        assert payload["error"]["code"] == "scoring"
        assert "sum is not finite" in payload["error"]["message"]

    def test_non_numeric_value_in_an_unvalidated_dataset_is_422_data(self):
        """A dataset built with ``validate=False`` may hold a non-number in a
        numeric column: scoring it answers a structured 4xx, never a 500."""
        from repro.data.dataset import Dataset, _build_store

        table1 = load_example_table1()
        records = table1.to_records()
        columns = {
            attribute.name: [record[attribute.name] for record in records]
            for attribute in table1.schema
        }
        columns["Rating"][3] = "high"
        service = build_service()
        service.register_dataset(
            Dataset(
                table1.schema, _build_store(table1.schema, columns, table1.uids),
                name="raw", validate=False,
            ),
            name="raw",
        )
        with FairnessHTTPServer(service, port=0) as running:
            running.serve_in_background()
            status, payload = raw_call(
                running, "/v2/quantify", method="POST",
                body=json.dumps({"dataset": "raw", "function": "table1-f"}).encode(),
            )
        assert status == 422
        assert payload["error"]["code"] == "data"
        assert "'high'" in payload["error"]["message"]
        assert "'Rating'" in payload["error"]["message"]

    def test_unknown_endpoint_is_404(self, server):
        status, payload = raw_call(server, "/v2/nonsense", method="POST", body=b"{}")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_wrong_methods_are_405(self, server):
        status, _ = raw_call(server, "/v2/quantify")
        assert status == 405
        status, _ = raw_call(server, "/v2/health", method="POST", body=b"{}")
        assert status == 405

    def test_rejected_posts_do_not_desync_keepalive_connections(self, server):
        """Error paths must drain the body: the next request on the same
        keep-alive connection has to parse cleanly (regression)."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            body = json.dumps({"dataset": "table1", "function": "table1-f"})
            for bad_path in ("/v2/health", "/v2/nonsense"):
                connection.request(
                    "POST", bad_path, body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status in (404, 405)
                response.read()
                # Same socket, next request: must be served normally.
                connection.request(
                    "POST", "/v2/quantify", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200
                assert payload["kind"] == "quantify"
        finally:
            connection.close()

    def test_keepalive_requests_do_not_stall(self, server, keepalive_posts):
        """Twenty POSTs on one HTTP/1.1 connection, each answered promptly.

        The handler writes headers and body separately; with Nagle's
        algorithm on, each answer would wait for the client's delayed ACK
        (about 40ms a request, 0.9s for twenty)."""
        body = json.dumps({"dataset": "table1", "function": "table1-f"})
        bodies, elapsed = keepalive_posts(server, "/v2/quantify", body, 20)
        expected = build_service().execute(
            QuantifyRequest(dataset="table1", function="table1-f")
        ).canonical()
        for raw in bodies:
            assert ServiceResult.from_json(json.loads(raw)).canonical() == expected
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f}s"

    def test_oversized_body_is_413_unread_and_closes_the_connection(
        self, server, claim_content_length
    ):
        status, connection, payload = claim_content_length(server, MAX_BODY_BYTES + 1)
        assert status == 413
        assert connection == "close"
        assert payload["error"]["code"] == "too_large"
        assert str(MAX_BODY_BYTES) in payload["error"]["message"]
        assert raw_call(server, "/v2/health")[0] == 200  # still serving

    def test_negative_content_length_is_400(self, server, claim_content_length):
        status, connection, payload = claim_content_length(server, -1)
        assert status == 400
        assert connection == "close"
        assert "Content-Length" in payload["error"]["message"]

    def test_invalid_parameters_fail_client_side(self, client):
        with pytest.raises(ServiceError, match="at least 2 steps"):
            client.sweep("table1", "table1-f", steps=1)


class TestBatchEndpoint:
    def test_batch_matches_serial_execution_in_order(self, server, client):
        requests = [
            QuantifyRequest(dataset="table1", function="table1-f"),
            AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=5),
            QuantifyRequest(dataset="table1", function="table1-f"),
        ]
        over_http = client.batch(requests)
        serial = [server.service.execute(request) for request in requests]
        assert [r.kind for r in over_http] == [r.kind for r in serial]
        for http_result, local in zip(over_http, serial):
            assert http_result.canonical() == local.canonical()

    def test_batch_keeps_errors_in_slot(self, client):
        requests = [
            QuantifyRequest(dataset="table1", function="table1-f"),
            QuantifyRequest(dataset="missing", function="table1-f"),
            QuantifyRequest(dataset="table1", function="balanced"),
        ]
        results = client.batch(requests)
        assert [result.ok for result in results] == [True, False, True]
        assert results[1].error["code"] == "service"

    def test_unparseable_slot_gets_an_error_envelope(self, server):
        body = json.dumps(
            {
                "requests": [
                    {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
                    {"kind": "frobnicate"},
                    {"kind": "quantify"},
                    {"kind": "quantify", "dataset": "table1", "function": "table1-f",
                     "bins": "x"},
                ]
            }
        ).encode()
        status, payload = raw_call(server, "/v2/batch", method="POST", body=body)
        assert status == 200
        results = payload["results"]
        assert len(results) == 4
        assert results[0]["error"] is None
        assert "unknown request kind" in results[1]["error"]["message"]
        assert "missing required field 'dataset'" in results[2]["error"]["message"]
        assert results[3]["kind"] == "quantify"
        assert results[3]["error"] == {
            "code": "service",
            "message": "quantify request field 'bins' must be an integer, got string",
        }

    def test_empty_batch_is_400(self, server):
        status, payload = raw_call(
            server, "/v2/batch", method="POST", body=b'{"requests": []}'
        )
        assert status == 400
        assert "non-empty" in payload["error"]["message"]


class TestServerLifecycle:
    def test_port_zero_binds_an_ephemeral_port(self):
        with FairnessHTTPServer(FairnessService(), port=0) as ephemeral:
            assert ephemeral.port > 0
            assert ephemeral.base_url.endswith(str(ephemeral.port))

    def test_binding_a_taken_port_raises_service_error(self, server):
        with pytest.raises(ServiceError, match="cannot bind"):
            FairnessHTTPServer(FairnessService(), port=server.port)

    def test_unreachable_server_raises_service_error(self, server):
        ghost = HTTPFairnessClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach"):
            ghost.quantify("table1", "table1-f")


QUANTIFY_BODY = json.dumps({"dataset": "table1", "function": "table1-f"})


class TestAcceptorThreads:
    """Each connection is served on the thread that accepted it."""

    def test_sequential_fresh_connections_start_at_most_one_thread(
        self, server, sequential_thread_starts
    ):
        started = sequential_thread_starts(server, "/v2/quantify", QUANTIFY_BODY, 50)
        assert len(started) <= 1, f"50 sequential connections started {started}"

    def test_client_is_answered_beside_idle_keepalive_connections(
        self, server, answer_beside_idle_keepalives
    ):
        status, elapsed = answer_beside_idle_keepalives(
            server, "/v2/quantify", QUANTIFY_BODY, idle=8
        )
        assert status == 200
        assert elapsed < 1.0, f"the 9th client waited {elapsed:.3f}s"

    def test_shutdown_never_waits_for_an_in_flight_request(
        self, request_gate, shutdown_with_request_in_flight
    ):
        service = build_service()
        service.execute = request_gate.hold(service.execute)
        server = FairnessHTTPServer(service, port=0)
        shutdown_s, close_s, status, body = shutdown_with_request_in_flight(
            server, request_gate, "/v2/quantify", QUANTIFY_BODY
        )
        assert shutdown_s < 1.0, f"shutdown() waited {shutdown_s:.3f}s"
        assert close_s >= 0.2, "server_close() returned before the response"
        assert status == 200
        expected = build_service().execute(
            QuantifyRequest(dataset="table1", function="table1-f")
        ).canonical()
        assert ServiceResult.from_json(json.loads(body)).canonical() == expected

    def test_concurrent_clients_leave_consistent_acceptor_counts(self):
        """Sixteen clients on two cores, a tiny switch interval: a lost update
        to the acceptor bookkeeping would hang ``shutdown()`` or the drain."""
        import sys
        import threading

        server = FairnessHTTPServer(build_service(), port=0)
        server.serve_in_background()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=16) as clients:
                statuses = list(clients.map(
                    lambda _: raw_call(server, "/v2/health")[0], range(160)
                ))
        finally:
            sys.setswitchinterval(interval)
            closer = threading.Thread(target=server.server_close)
            closer.start()
            closer.join(10)
        assert not closer.is_alive(), "shutdown or drain hung"
        assert statuses == [200] * 160
        assert server._accepting == 0 and not server._connection_threads

    def test_shutdown_before_serve_forever_returns_at_once(self):
        server = FairnessHTTPServer(FairnessService(), port=0)
        server.shutdown()
        serving = server.serve_in_background()
        serving.join(5)
        assert not serving.is_alive()
        server.server_close()

    def test_serving_goes_on_when_no_thread_can_be_started(self, monkeypatch):
        import threading

        server = FairnessHTTPServer(build_service(), port=0)
        start = threading.Thread.start
        acceptors = []

        def one_acceptor_only(thread):
            if thread.name.endswith("-conn"):
                acceptors.append(thread.name)
                if len(acceptors) > 1:
                    raise RuntimeError("can't start new thread")
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", one_acceptor_only)
        with server:
            server.serve_in_background()
            statuses = [raw_call(server, "/v2/health")[0] for _ in range(5)]
        assert statuses == [200] * 5
        assert len(acceptors) == 6  # the first, then one refused spare per request

    def test_accept_errors_back_off_instead_of_spinning(self, monkeypatch):
        import errno
        import time

        from repro.server.http import ACCEPT_RETRY_S

        server = FairnessHTTPServer(build_service(), port=0)
        accept = server.get_request
        failures = []

        def out_of_descriptors():
            if len(failures) < 3:
                failures.append(time.perf_counter())
                raise OSError(errno.EMFILE, "Too many open files")
            return accept()

        monkeypatch.setattr(server, "get_request", out_of_descriptors)
        with server:
            server.serve_in_background()
            status, _ = raw_call(server, "/v2/health")
        assert status == 200
        assert len(failures) == 3
        assert failures[-1] - failures[0] >= 2 * ACCEPT_RETRY_S * 0.9


class TestServeCLI:
    def test_serve_boots_from_a_snapshot_subprocess(self, tmp_path):
        """`fairank serve --catalog snap --port 0` answers real HTTP traffic."""
        snapshot = tmp_path / "snap.json"
        build_service().catalog.save(snapshot)
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--catalog", str(snapshot), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(os.environ, PYTHONPATH=repo_src),
        )
        try:
            port = None
            assert process.stdout is not None
            for line in process.stdout:
                match = re.search(r"http://[\d.]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port, "server never announced its port"
            client = HTTPFairnessClient(f"http://127.0.0.1:{port}", timeout=60)
            assert client.health()["status"] == "ok"
            result = client.quantify("table1", "table1-f")
            assert result.ok and result.payload["dataset"] == "table1"
        finally:
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=15)
            process.stdout.close()


class TestBatchMalformedSlotsOverHTTP:
    """Error paths for batch slots that are not even request-shaped objects."""

    def test_non_dict_slots_get_in_slot_envelopes(self, server):
        body = json.dumps(
            {
                "requests": [
                    {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
                    "not-a-request",
                    42,
                    None,
                ]
            }
        ).encode()
        status, payload = raw_call(server, "/v2/batch", method="POST", body=body)
        assert status == 200
        results = payload["results"]
        assert len(results) == 4
        assert results[0]["error"] is None
        for slot in results[1:]:
            assert slot["kind"] == "unknown"
            assert slot["error"]["code"] == "service"
            assert "must be a JSON object" in slot["error"]["message"]

    def test_unparsable_slot_has_the_envelope_wire_shape(self, server):
        body = json.dumps({"requests": [{"kind": "quantify", "bins": "x"}]}).encode()
        status, payload = raw_call(
            server, "/v2/batch", method="POST", body=body,
            headers={TRACE_HEADER: "0123456789abcdef"},
        )
        assert status == 200
        [slot] = payload["results"]
        assert slot["kind"] == "quantify" and slot["error"]["code"] == "service"
        assert slot["timings"] == {"trace_id": "0123456789abcdef"}
        assert json.dumps(slot) == json.dumps(ServiceResult.from_json(slot).to_json())

    def test_batch_body_that_is_not_a_list_is_400(self, server):
        status, payload = raw_call(
            server, "/v2/batch", method="POST", body=b'{"requests": {"kind": "x"}}'
        )
        assert status == 400
        assert "non-empty list" in payload["error"]["message"]

    def test_results_stay_in_input_order_around_bad_slots(self, server, client):
        body = json.dumps(
            {
                "requests": [
                    "bad",
                    {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
                    "also bad",
                    {"kind": "quantify", "dataset": "table1", "function": "balanced"},
                ]
            }
        ).encode()
        status, payload = raw_call(server, "/v2/batch", method="POST", body=body)
        assert status == 200
        oks = [entry["error"] is None for entry in payload["results"]]
        assert oks == [False, True, False, True]
        assert payload["results"][1]["payload"]["function"] == "table1-f"
        assert payload["results"][3]["payload"]["function"] == "balanced"
