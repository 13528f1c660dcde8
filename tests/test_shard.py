"""Tests for repro.shard: routing, worker pool lifecycle, router parity."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.errors import ServiceError
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import TRACE_HEADER
from repro.scoring.linear import LinearScoringFunction
from repro.server import HTTPFairnessClient
from repro.service import (
    AuditRequest,
    FairnessClient,
    FairnessService,
    QuantifyRequest,
    ServiceResult,
)
from repro.service.jobs import MAX_SWEEP_POINTS
from repro.shard import (
    ShardRouter,
    WorkerPool,
    request_references,
    routing_key,
    worker_slot,
)
from repro.snapshot import snapshot_fingerprints


def build_service() -> FairnessService:
    from repro.experiments.workloads import crowdsourcing_marketplace

    service = FairnessService()
    service.register_dataset(load_example_table1(), name="table1")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    service.register_function(
        LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    )
    service.register_marketplace(crowdsourcing_marketplace(size=40, seed=7))
    return service


class TestRouting:
    def test_references_cover_every_wire_field(self):
        payload = {
            "dataset": "d",
            "function": "f",
            "functions": ["f1", "f2"],
            "marketplace": "m",
            "marketplaces": ["m1"],
            "job": "ignored",
            "kind": "ignored",
        }
        assert request_references(payload) == (
            ("dataset", "d"),
            ("function", "f"),
            ("function", "f1"),
            ("function", "f2"),
            ("marketplace", "m"),
            ("marketplace", "m1"),
        )

    def test_references_tolerate_malformed_payloads(self):
        assert request_references({}) == ()
        assert request_references({"dataset": 7, "functions": "oops"}) == ()
        assert request_references({"functions": [1, "ok", None]}) == (
            ("function", "ok"),
        )

    def test_key_is_deterministic_and_order_insensitive(self):
        first = routing_key((("dataset", "d"), ("function", "f")))
        second = routing_key((("dataset", "d"), ("function", "f")))
        assert first == second
        assert routing_key(()) == ""

    def test_same_pair_same_slot_across_request_kinds(self):
        quantify = request_references({"dataset": "d", "function": "f"})
        breakdown = request_references(
            {"dataset": "d", "function": "f", "min_partition_size": 5}
        )
        assert worker_slot(routing_key(quantify), 5) == worker_slot(
            routing_key(breakdown), 5
        )

    def test_fingerprints_override_names(self):
        references = (("dataset", "d"),)
        by_name = routing_key(references)
        by_fingerprint = routing_key(references, {("dataset", "d"): "abc123"})
        assert by_name != by_fingerprint
        # Renaming content-identical data keeps the key (same fingerprint).
        renamed = routing_key(
            (("dataset", "other"),), {("dataset", "other"): "abc123"}
        )
        assert renamed == by_fingerprint

    def test_slots_are_stable_and_in_range(self):
        keys = [routing_key((("dataset", f"d{i}"),)) for i in range(64)]
        slots = [worker_slot(key, 3) for key in keys]
        assert slots == [worker_slot(key, 3) for key in keys]
        assert set(slots) <= {0, 1, 2}
        assert len(set(slots)) > 1  # 64 distinct datasets spread over workers

    def test_single_worker_and_empty_key_route_to_slot_zero(self):
        assert worker_slot(routing_key((("dataset", "d"),)), 1) == 0
        assert worker_slot("", 7) == 0
        with pytest.raises(ValueError):
            worker_slot("abc", 0)


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("shard") / "deployment.json"
    build_service().catalog.save(path)
    return path


@pytest.fixture(scope="module")
def fleet(snapshot):
    """A started 2-worker pool + router + client (shared across the module)."""
    pool = WorkerPool(snapshot, 2, backoff_base_s=0.1, backoff_max_s=1.0)
    pool.start()
    router = ShardRouter(pool, fingerprints=snapshot_fingerprints(snapshot))
    router.serve_in_background()
    try:
        yield pool, router, HTTPFairnessClient(router.base_url, timeout=120.0)
    finally:
        router.shutdown()
        router.server_close()
        pool.stop()


@pytest.fixture(scope="module")
def reference(snapshot):
    from repro.catalog import Catalog

    return FairnessClient(FairnessService(catalog=Catalog.load(snapshot)))


def scenario_calls(client):
    return [
        ("quantify", lambda: client.quantify("table1", "table1-f")),
        ("audit", lambda: client.audit("crowdsourcing-sim", min_partition_size=5)),
        ("compare", lambda: client.compare("table1", ["table1-f", "balanced"])),
        ("breakdown", lambda: client.breakdown("table1", "table1-f")),
        ("sweep", lambda: client.sweep("table1", "table1-f", steps=3)),
        (
            "end_user",
            lambda: client.end_user(
                {"Gender": "Female"}, ["crowdsourcing-sim"], "Content writing"
            ),
        ),
        (
            "job_owner",
            lambda: client.job_owner(
                "crowdsourcing-sim", "Content writing", sweep_steps=3
            ),
        ),
    ]


class TestWorkerPool:
    def test_rejects_bad_configuration(self, snapshot, tmp_path):
        with pytest.raises(ServiceError, match="at least 1 worker"):
            WorkerPool(snapshot, 0)
        with pytest.raises(ServiceError, match="does not exist"):
            WorkerPool(tmp_path / "missing.json", 2)

    def test_boots_and_reports_workers(self, fleet):
        pool, _, _ = fleet
        described = pool.describe()
        assert described["workers"] == 2
        assert described["alive"] == 2
        ports = {entry["port"] for entry in described["slots"]}
        assert len(ports) == 2  # distinct ephemeral ports
        for slot in (0, 1):
            handle = pool.peek(slot)
            assert handle is not None and handle.alive

    def test_workers_answer_health_directly(self, fleet):
        pool, _, _ = fleet
        for slot in range(pool.size):
            handle = pool.peek(slot)
            with urllib.request.urlopen(
                f"{handle.base_url}/v2/health", timeout=10
            ) as response:
                assert json.loads(response.read())["status"] == "ok"

    def test_cannot_start_twice(self, fleet):
        pool, _, _ = fleet
        with pytest.raises(ServiceError, match="already been started"):
            pool.start()

    def test_boot_failure_reports_the_worker_output(self, snapshot):
        crashing = WorkerPool(
            snapshot, 2, boot_timeout_s=30,
            command=lambda snap, host: [
                sys.executable, "-c", "print('worker exploded'); raise SystemExit(3)",
            ],
        )
        with pytest.raises(ServiceError, match="exited with code 3"):
            crashing.start()

    def test_boot_timeout_kills_the_silent_worker(self, snapshot):
        silent = WorkerPool(
            snapshot, 1, boot_timeout_s=1.0,
            command=lambda snap, host: [
                sys.executable, "-c", "import time; time.sleep(60)",
            ],
        )
        with pytest.raises(ServiceError, match="no bound port announced"):
            silent.start()


class TestShardRouterParity:
    def test_every_kind_is_byte_identical_to_in_process(self, fleet, reference):
        _, _, client = fleet
        for (kind, sharded), (_, in_process) in zip(
            scenario_calls(client), scenario_calls(reference)
        ):
            over_router = sharded()
            local = in_process()
            assert over_router.kind == kind
            assert over_router.canonical() == local.canonical(), kind

    def test_batch_is_split_and_reassembled_in_order(self, fleet, reference):
        _, _, client = fleet
        requests = [
            QuantifyRequest(dataset="table1", function="table1-f"),
            AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=5),
            QuantifyRequest(dataset="table1", function="balanced"),
            QuantifyRequest(dataset="table1", function="table1-f"),
        ]
        sharded = client.batch(requests)
        serial = [reference.service.execute(request) for request in requests]
        assert [result.kind for result in sharded] == [r.kind for r in serial]
        for over_router, local in zip(sharded, serial):
            assert over_router.canonical() == local.canonical()

    def test_batch_keeps_error_and_malformed_slots_in_place(self, fleet):
        _, router, _ = fleet
        body = json.dumps(
            {
                "requests": [
                    {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
                    {"kind": "quantify", "dataset": "missing", "function": "table1-f"},
                    {"kind": "frobnicate"},
                ]
            }
        ).encode()
        request = urllib.request.Request(
            f"{router.base_url}/v2/batch", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            payload = json.loads(response.read())
        results = payload["results"]
        assert [result["error"] is None for result in results] == [True, False, False]
        assert results[1]["error"]["code"] == "service"
        assert "unknown request kind" in results[2]["error"]["message"]

    def test_wrong_typed_slot_keeps_its_co_routed_neighbour(self, fleet, reference):
        from repro.server import FairnessHTTPServer

        pool, router, _ = fleet
        good = {"kind": "quantify", "dataset": "table1", "function": "table1-f"}
        bad = dict(good, bins="x")
        slots = {
            worker_slot(routing_key(request_references(entry), router.fingerprints),
                        pool.size)
            for entry in (good, bad)
        }
        assert len(slots) == 1  # one worker answers both slots
        body = json.dumps({"requests": [good, bad]}).encode()

        def post_batch(base_url):
            # One pinned trace id: the unparsable slot's envelope carries it.
            request = urllib.request.Request(
                f"{base_url}/v2/batch", data=body, method="POST",
                headers={"Content-Type": "application/json",
                         TRACE_HEADER: "5a5a5a5a5a5a5a5a"},
            )
            with urllib.request.urlopen(request, timeout=120) as response:
                assert response.status == 200
                return json.loads(response.read())["results"]

        sharded = post_batch(router.base_url)
        with FairnessHTTPServer(reference.service, port=0) as single:
            single.serve_in_background()
            single_process = post_batch(single.base_url)
        assert sharded[0]["error"] is None
        assert (
            ServiceResult.from_json(sharded[0]).canonical()
            == ServiceResult.from_json(single_process[0]).canonical()
        )
        assert sharded[1]["error"]["code"] == "service"
        assert "'bins' must be an integer" in sharded[1]["error"]["message"]
        assert json.dumps(sharded[1]) == json.dumps(single_process[1])

    def test_batch_carries_the_callers_trace_id_into_every_slot(self, fleet):
        _, router, _ = fleet
        requests = [
            QuantifyRequest(dataset="table1", function="table1-f"),
            AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=5),
            QuantifyRequest(dataset="table1", function="balanced"),
        ]
        request = urllib.request.Request(
            f"{router.base_url}/v2/batch",
            data=json.dumps({"requests": [r.to_json() for r in requests]}).encode(),
            method="POST",
            headers={"Content-Type": "application/json", TRACE_HEADER: "pinned-batch-1"},
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            results = json.loads(response.read())["results"]
        assert [result["timings"]["trace_id"] for result in results] == [
            "pinned-batch-1"
        ] * len(requests)

    def test_requests_for_same_pair_stick_to_one_worker(self, fleet):
        pool, router, client = fleet
        slot = worker_slot(
            routing_key(
                request_references({"dataset": "table1", "function": "table1-f"}),
                router.fingerprints,
            ),
            pool.size,
        )
        handle = pool.peek(slot)
        before = self._worker_requests(handle)
        client.quantify("table1", "table1-f")
        client.breakdown("table1", "table1-f")
        assert self._worker_requests(handle) >= before + 2

    @staticmethod
    def _worker_requests(handle) -> int:
        with urllib.request.urlopen(f"{handle.base_url}/v2/health", timeout=10) as r:
            return json.loads(r.read())["requests_served"]

    def test_health_aggregates_the_fleet(self, fleet):
        _, _, client = fleet
        health = client.health()
        assert health["status"] == "ok"
        assert health["role"] == "shard-router"
        assert health["workers"]["workers"] == 2
        assert health["workers"]["alive"] == 2
        assert len(health["workers"]["health"]) == 2
        for entry in health["workers"]["health"]:
            assert entry["alive"] is True
            assert set(entry["cache"]) >= {"hits", "misses"}
        assert health["routing"]["strategy"] == "resource-fingerprint"
        assert health["catalog"]["dataset"] >= 1  # proxied from a worker

    def test_catalog_is_proxied_from_a_worker(self, fleet, reference):
        _, _, client = fleet
        listing = client.catalog()
        names = {entry["name"] for entry in listing["resources"]}
        assert {"table1", "table1-f", "crowdsourcing-sim"} <= names

    def test_error_status_mapping_matches_single_process(self, fleet):
        _, router, _ = fleet

        def raw(path, method="POST", body=b"{}"):
            request = urllib.request.Request(
                f"{router.base_url}{path}", data=body, method=method
            )
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.status
            except urllib.error.HTTPError as error:
                error.read()
                return error.code

        assert raw("/v2/nonsense") == 404
        assert raw("/v2/quantify", method="GET", body=None) == 405
        assert raw("/v2/health", method="POST") == 405
        assert raw("/v2/quantify", body=b"{not json") == 400
        body = json.dumps({"dataset": "missing", "function": "table1-f"}).encode()
        assert raw("/v2/quantify", body=body) == 422
        body = json.dumps(
            {"dataset": "table1", "function": "table1-f", "use_ranks_only": "false"}
        ).encode()
        assert raw("/v2/quantify", body=body) == 400

    def test_keepalive_requests_do_not_stall(self, fleet, reference, keepalive_posts):
        """Twenty POSTs on one HTTP/1.1 connection to the router, each answered
        promptly and byte-identical to in-process (see the server twin)."""
        _, router, _ = fleet
        body = json.dumps({"dataset": "table1", "function": "table1-f"})
        bodies, elapsed = keepalive_posts(router, "/v2/quantify", body, 20)
        expected = reference.quantify("table1", "table1-f").canonical()
        for raw in bodies:
            assert ServiceResult.from_json(json.loads(raw)).canonical() == expected
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f}s"


class TestRouterRelay:
    def test_worker_bodies_are_relayed_byte_for_byte(self, fleet, monkeypatch):
        _, router, _ = fleet
        relayed = []
        forward = router.forward

        def spy(*args, **kwargs):
            status, body = forward(*args, **kwargs)
            relayed.append(body)
            return status, body

        monkeypatch.setattr(router, "forward", spy)
        request = urllib.request.Request(
            f"{router.base_url}/v2/quantify",
            data=json.dumps(
                QuantifyRequest(dataset="table1", function="table1-f").to_json()
            ).encode("utf-8"),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            body = response.read()
        assert relayed == [body]

    def test_router_bounds_request_bodies(self, fleet, claim_content_length):
        from repro.server.http import MAX_BODY_BYTES

        _, router, client = fleet
        status, connection, payload = claim_content_length(router, MAX_BODY_BYTES + 1)
        assert (status, connection) == (413, "close")
        assert payload["error"]["code"] == "too_large"
        status, connection, payload = claim_content_length(router, -5)
        assert (status, connection) == (400, "close")
        assert client.health()["status"] == "ok"

    @pytest.mark.parametrize(
        "kind, body, status, code, message",
        [
            ("quantify",
             {"dataset": "table1", "function": "table1-f", "min_partition_size": 0},
             400, "service", "quantify request field 'min_partition_size' must be >= 1, got 0"),
            ("compare",
             {"dataset": "table1", "functions": ["table1-f"] * (MAX_SWEEP_POINTS + 1)},
             400, "service",
             f"compare request field 'functions' must have length <= {MAX_SWEEP_POINTS}, "
             f"got {MAX_SWEEP_POINTS + 1}"),
            ("end_user",
             {"group": {"Gender": "Female"}, "job": "Content writing",
              "marketplaces": ["crowdsourcing-sim"] * (MAX_SWEEP_POINTS + 1)},
             400, "service",
             f"end_user request field 'marketplaces' must have length <= "
             f"{MAX_SWEEP_POINTS}, got {MAX_SWEEP_POINTS + 1}"),
            ("sweep",
             {"dataset": "table1", "function": "table1-f",
              "weights": [{"Language Test": 1e308, "Rating": 1e308}]},
             422, "scoring",
             "the weights' sum is not finite: {'Language Test': 1e+308, 'Rating': 1e+308}"),
        ],
    )
    def test_refusals_relay_through_the_router(self, fleet, kind, body, status, code, message):
        _, router, _ = fleet
        request = urllib.request.Request(
            f"{router.base_url}/v2/{kind}", data=json.dumps(body).encode("utf-8"),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as refused:
            urllib.request.urlopen(request, timeout=120)
        assert refused.value.code == status
        payload = json.loads(refused.value.read())
        assert payload["error"] == {"code": code, "message": message}

    def test_router_records_response_bytes(self, fleet):
        _, router, client = fleet
        histogram = get_registry().histogram("fairank_router_response_bytes")
        before = histogram.count(endpoint="/v2/quantify")
        client.quantify("table1", "table1-f")
        assert histogram.count(endpoint="/v2/quantify") == before + 1


class TestFailureRecovery:
    def test_killed_worker_loses_no_request_and_restarts(self, fleet, reference):
        pool, router, client = fleet
        expected = {
            "table1-f": reference.quantify("table1", "table1-f").canonical(),
            "balanced": reference.quantify("table1", "balanced").canonical(),
        }
        slot = worker_slot(
            routing_key(
                request_references({"dataset": "table1", "function": "table1-f"}),
                router.fingerprints,
            ),
            pool.size,
        )
        victim = pool.peek(slot)
        restarts_before = pool.restarts(slot)

        def fire(index: int) -> bool:
            if index == 8:  # kill the sticky worker mid-load
                victim.process.kill()
            function = "table1-f" if index % 2 == 0 else "balanced"
            result = client.quantify("table1", function)
            return result.ok and result.canonical() == expected[function]

        with ThreadPoolExecutor(max_workers=8) as load:
            outcomes = list(load.map(fire, range(32)))
        assert all(outcomes), "a request was lost or diverged during the kill"

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if pool.restarts(slot) > restarts_before and pool.alive_count == pool.size:
                break
            time.sleep(0.2)
        assert pool.restarts(slot) > restarts_before, "slot was never restarted"
        assert pool.alive_count == pool.size

        # The crash is accounted with its reason, in the pool and in the
        # aggregated health payload.
        assert pool.restart_reasons(slot)["crash"] >= 1
        health = client.health()
        assert health["status"] == "ok"
        slot_health = health["workers"]["health"][slot]
        assert slot_health["restart_reasons"]["crash"] >= 1

        # The restarted worker serves the same snapshot: parity holds again.
        assert client.quantify("table1", "table1-f").canonical() == expected["table1-f"]

    def test_stale_handle_reports_are_ignored(self, fleet):
        pool, _, _ = fleet
        current = pool.peek(0)
        restarts = pool.restarts(0)
        pool.report_failure(current)  # alive process: not a lifecycle event
        assert pool.peek(0) is current
        assert pool.restarts(0) == restarts

    def test_stop_terminates_a_replacement_worker_mid_boot(self, snapshot):
        """stop() during a restart's boot must not orphan the new process,
        and must not read as a failed boot in the metrics or the event log."""
        from io import StringIO

        failed_boots = get_registry().counter("fairank_worker_incidents_total")
        before = failed_boots.value(slot="0", reason="failed_boot")
        captured = StringIO()
        logger = get_logger()
        pool = WorkerPool(snapshot, 1, backoff_base_s=0.01, backoff_max_s=0.01)
        pool.start()
        logger.stream = captured
        try:
            victim = pool.peek(0)
            victim.process.kill()
            victim.process.wait(timeout=10)
            pool.candidates(0)  # reap: schedules the backoff restart
            # Catch the restart thread inside _boot_worker (the replacement
            # process is spawned but not yet slotted).
            deadline = time.monotonic() + 15
            replacement = None
            while time.monotonic() < deadline:
                with pool._lock:
                    if pool._booting:
                        replacement = next(iter(pool._booting))
                        break
                if pool.restarts(0) > 0:  # boot already finished: use the slot
                    replacement = pool.peek(0).process
                    break
                time.sleep(0.005)
            assert replacement is not None, "restart never spawned a process"
        finally:
            pool.stop()
            # The restart thread leaves _restarting once it has returned.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and pool._restarting:
                time.sleep(0.05)
            logger.stream = None
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and replacement.poll() is None:
            time.sleep(0.05)
        assert replacement.poll() is not None, "stop() orphaned the mid-boot worker"
        assert not pool._restarting, "the restart thread outlived stop()"
        assert pool.restart_reasons(0)["failed_boot"] == 0
        assert failed_boots.value(slot="0", reason="failed_boot") == before
        events = [json.loads(line)["event"] for line in captured.getvalue().splitlines()]
        assert "worker_boot_failed" not in events


class TestWorkerPipes:
    def test_stop_and_restart_close_every_worker_stdout(self, snapshot):
        """A worker's stdout pipe is closed once the worker is gone: after a
        crash restart (the old handle) and after stop() (the replacement)."""
        pool = WorkerPool(snapshot, 1, backoff_base_s=0.01, backoff_max_s=0.01)
        pool.start()
        try:
            victim = pool.peek(0)
            victim.process.kill()
            victim.process.wait(timeout=10)
            pool.candidates(0)  # reap: schedules the backoff restart
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and (
                pool.restarts(0) == 0 or pool.peek(0) is None
            ):
                time.sleep(0.05)
            replacement = pool.peek(0)
            assert replacement is not None and replacement is not victim
            victim.pump._thread.join(timeout=10)
            assert victim.process.stdout.closed
            assert not replacement.process.stdout.closed
        finally:
            pool.stop()
        replacement.pump._thread.join(timeout=10)
        assert replacement.process.stdout.closed


class TestUnreachableSlot:
    def test_unreachable_slot_has_the_envelope_wire_shape(self, fleet, snapshot):
        pool, _, _ = fleet

        def unreachable(*args, **kwargs):
            raise ServiceError("no worker answered")

        body = json.dumps(
            {"requests": [{"kind": "quantify", "dataset": "table1"}, "not-a-request"]}
        ).encode()
        with ShardRouter(pool, fingerprints=snapshot_fingerprints(snapshot)) as router:
            router.forward = unreachable
            router.serve_in_background()
            request = urllib.request.Request(
                f"{router.base_url}/v2/batch", data=body, method="POST",
                headers={TRACE_HEADER: "0123456789abcdef"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                results = json.loads(response.read())["results"]
        assert [slot["kind"] for slot in results] == ["quantify", "unknown"]
        for slot in results:
            assert slot["error"]["code"] == "unavailable"
            assert slot["timings"] == {"trace_id": "0123456789abcdef"}
            assert json.dumps(slot) == json.dumps(ServiceResult.from_json(slot).to_json())


class TestShutdownUnderRetry:
    def test_server_close_interrupts_the_retry_window(self, snapshot):
        """Regression: retry pacing used a bare sleep, so closing the router
        while a request swept a dead fleet stalled the drain for the rest of
        the retry window.  The stop-aware pause must wake immediately."""
        # One worker, huge restart backoff: once killed, the fleet stays
        # empty and a forward paces inside its (long) retry window.
        pool = WorkerPool(snapshot, 1, backoff_base_s=60.0, backoff_max_s=60.0)
        pool.start()
        router = ShardRouter(
            pool,
            fingerprints=snapshot_fingerprints(snapshot),
            retry_window_s=60.0,
        )
        router.serve_in_background()
        statuses = []
        try:
            victim = pool.peek(0)
            victim.process.kill()
            victim.process.wait(timeout=10)

            def fire():
                request = urllib.request.Request(
                    f"{router.base_url}/v2/quantify",
                    data=json.dumps(
                        {"dataset": "table1", "function": "table1-f"}
                    ).encode(),
                    method="POST",
                )
                try:
                    with urllib.request.urlopen(request, timeout=120) as response:
                        statuses.append(response.status)
                except urllib.error.HTTPError as error:
                    error.read()
                    statuses.append(error.code)

            requester = threading.Thread(target=fire)
            requester.start()
            time.sleep(1.0)  # let the request enter the retry pacing loop
            closed_in = time.monotonic()
        finally:
            router.shutdown()
            router.server_close()  # drains: joins the in-flight handler
            pool.stop()
        elapsed = time.monotonic() - closed_in
        assert elapsed < 10, f"server_close() stalled {elapsed:.1f}s behind the retry window"
        requester.join(timeout=10)
        assert statuses == [503], "the paced request must answer 503, not hang"


QUANTIFY_BODY = json.dumps({"dataset": "table1", "function": "table1-f"})


class TestRouterAcceptorThreads:
    """The router's ingress serves each connection on its accepting thread."""

    def test_sequential_fresh_connections_start_at_most_one_thread(
        self, fleet, sequential_thread_starts
    ):
        _, router, _ = fleet
        started = sequential_thread_starts(router, "/v2/quantify", QUANTIFY_BODY, 50)
        assert len(started) <= 1, f"50 sequential connections started {started}"

    def test_client_is_answered_beside_idle_keepalive_connections(
        self, fleet, answer_beside_idle_keepalives
    ):
        _, router, _ = fleet
        status, elapsed = answer_beside_idle_keepalives(
            router, "/v2/quantify", QUANTIFY_BODY, idle=8
        )
        assert status == 200
        assert elapsed < 1.0, f"the 9th client waited {elapsed:.3f}s"

    def test_shutdown_never_waits_for_an_in_flight_request(
        self, fleet, snapshot, reference, request_gate, shutdown_with_request_in_flight
    ):
        pool, _, _ = fleet
        # A second router over the module's fleet: closing it leaves the
        # pool (and the module's own router) serving.
        router = ShardRouter(pool, fingerprints=snapshot_fingerprints(snapshot))
        router.forward = request_gate.hold(router.forward)
        shutdown_s, close_s, status, body = shutdown_with_request_in_flight(
            router, request_gate, "/v2/quantify", QUANTIFY_BODY
        )
        assert shutdown_s < 1.0, f"shutdown() waited {shutdown_s:.3f}s"
        assert close_s >= 0.2, "server_close() returned before the response"
        assert status == 200
        expected = reference.quantify("table1", "table1-f").canonical()
        assert ServiceResult.from_json(json.loads(body)).canonical() == expected

    def test_binding_a_taken_port_raises_service_error(self, fleet):
        pool, router, _ = fleet
        with pytest.raises(ServiceError, match="cannot bind"):
            ShardRouter(pool, port=router.port)


class TestWarmRestart:
    """--warm-dir: a restarted fleet serves hot, byte-identically."""

    def _boot(self, snapshot, warm_root, size=2):
        pool = WorkerPool(
            snapshot, size, backoff_base_s=0.1, backoff_max_s=1.0,
            warm_dir=warm_root,
        )
        pool.start()
        router = ShardRouter(pool, fingerprints=snapshot_fingerprints(snapshot))
        router.serve_in_background()
        return pool, router, HTTPFairnessClient(router.base_url, timeout=120.0)

    @staticmethod
    def _stop(pool, router):
        router.shutdown()
        router.server_close()
        pool.stop()

    def test_restarted_fleet_serves_byte_identical_and_warm(
        self, snapshot, tmp_path, reference
    ):
        warm_root = tmp_path / "warm"
        expected = {
            "table1-f": reference.quantify("table1", "table1-f").canonical(),
            "balanced": reference.quantify("table1", "balanced").canonical(),
        }
        pool, router, client = self._boot(snapshot, warm_root)
        try:
            for function, canonical in expected.items():
                assert client.quantify("table1", function).canonical() == canonical
        finally:
            self._stop(pool, router)
        manifests = list(warm_root.glob("slot-*/manifest.json"))
        assert manifests, "graceful shutdown saved no warm bundle"
        for manifest in manifests:
            saved = sorted(path.name for path in manifest.parent.iterdir())
            assert saved == ["manifest.json", "results.json"]

        pool, router, client = self._boot(snapshot, warm_root)
        try:
            # Before any traffic: the reloaded result caches hold both
            # answers, and not a single scoring pass has run.
            health = client.health()["workers"]["health"]
            assert sum(entry["cache"]["entries"] for entry in health) == len(expected)
            assert sum(entry["store_pool"]["scoring_passes"] for entry in health) == 0
            for function, canonical in expected.items():
                result = client.quantify("table1", function)
                assert result.canonical() == canonical
                assert result.cached, "warm results must serve from the cache"
            # Serving those requests still required no re-scoring pass.
            pools = [
                entry["store_pool"]
                for entry in client.health()["workers"]["health"]
            ]
            assert sum(stats["scoring_passes"] for stats in pools) == 0
        finally:
            self._stop(pool, router)

    def test_crash_restarted_slot_reloads_its_warm_bundle(
        self, snapshot, tmp_path, reference
    ):
        warm_root = tmp_path / "warm"
        expected = reference.quantify("table1", "table1-f").canonical()
        pool, router, client = self._boot(snapshot, warm_root)
        try:
            assert client.quantify("table1", "table1-f").canonical() == expected
            slot = worker_slot(
                routing_key(
                    request_references(
                        {"dataset": "table1", "function": "table1-f"}
                    ),
                    router.fingerprints,
                ),
                pool.size,
            )
            victim = pool.peek(slot)
            # SIGTERM is graceful: the worker drains and saves its bundle...
            victim.process.send_signal(signal.SIGTERM)
            victim.process.wait(timeout=30)
            # ...then the pool heals the slot with a replacement booted from
            # the same argv — including its per-slot --warm-dir.
            deadline = time.monotonic() + 30
            handle = None
            while time.monotonic() < deadline:
                pool.candidates(slot)  # reap + schedule the backoff restart
                handle = pool.peek(slot)
                if handle is not None and handle is not victim:
                    break
                time.sleep(0.2)
            assert handle is not None and handle is not victim, "slot never healed"
            result = client.quantify("table1", "table1-f")
            assert result.canonical() == expected
            assert result.cached, "the replacement must reload the result cache"
            # The replacement's own health proves the warm reload: its result
            # cache is back, and the answer needed no scoring pass.
            with urllib.request.urlopen(
                f"{handle.base_url}/v2/health", timeout=10
            ) as response:
                payload = json.loads(response.read())
            assert payload["cache"]["entries"] >= 1
            assert payload["store_pool"]["scoring_passes"] == 0
        finally:
            self._stop(pool, router)


class TestTracePropagation:
    """One trace id must span client -> router -> worker, observably."""

    def test_trace_id_spans_a_three_worker_fleet(self, snapshot):
        from io import StringIO

        from repro.obs.log import ObsLogger
        from repro.shard.router import ROUTE_MS_HEADER

        pool = WorkerPool(
            snapshot, 3, backoff_base_s=0.1, backoff_max_s=1.0,
            worker_arguments=["--verbose"],
        )
        pool.start()
        router = ShardRouter(pool, fingerprints=snapshot_fingerprints(snapshot))
        captured = StringIO()
        router.obs = ObsLogger(captured, verbose=True)
        router.serve_in_background()
        try:
            request = urllib.request.Request(
                f"{router.base_url}/v2/quantify",
                data=json.dumps(
                    QuantifyRequest(dataset="table1", function="table1-f").to_json()
                ).encode("utf-8"),
                headers={TRACE_HEADER: "trace-propagation-e2e"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=120) as response:
                route_ms = response.headers[ROUTE_MS_HEADER]
                timings = json.loads(response.read())["timings"]

            # 1. The envelope's timing breakdown carries the pinned id plus
            #    worker-side phases; the router's forwarding time travels in
            #    its own header, outside the relayed envelope.
            assert timings["trace_id"] == "trace-propagation-e2e"
            assert "total_ms" in timings
            assert "route_ms" not in timings
            assert float(route_ms) >= 0.0

            # 2. The router logged structured events under the same id.
            deadline = time.monotonic() + 10
            router_events = []
            while time.monotonic() < deadline:
                router_events = [
                    json.loads(line)
                    for line in captured.getvalue().splitlines()
                ]
                if any(
                    event.get("trace_id") == "trace-propagation-e2e"
                    for event in router_events
                ):
                    break
                time.sleep(0.05)
            traced = [
                event for event in router_events
                if event.get("trace_id") == "trace-propagation-e2e"
            ]
            assert traced, router_events
            assert any(event["event"] == "route" for event in traced)

            # 3. The worker that served it logged the id too (its stderr is
            #    merged into the stdout tail the pool pumps), attributed to
            #    its slot via FAIRANK_WORKER_SLOT.
            worker_line = None
            deadline = time.monotonic() + 10
            while worker_line is None and time.monotonic() < deadline:
                for slot in range(pool.size):
                    handle = pool.peek(slot)
                    if handle is None:
                        continue
                    for line in list(handle.pump.tail):
                        if (
                            "trace-propagation-e2e" in line
                            and '"event":"http_request"' in line
                        ):
                            worker_line = json.loads(line)
                if worker_line is None:
                    time.sleep(0.05)
            assert worker_line is not None
            assert worker_line["trace_id"] == "trace-propagation-e2e"
            assert worker_line["path"] == "/v2/quantify"
            assert worker_line["worker"] in {"0", "1", "2"}
        finally:
            router.shutdown()
            router.server_close()
            pool.stop()

    def test_router_metrics_aggregate_the_fleet(self, fleet):
        from repro.obs.metrics import parse_prometheus

        pool, router, client = fleet
        client.quantify("table1", "table1-f")
        page = parse_prometheus(router.metrics_text())
        # Worker-side service counters and router-side ingress counters
        # land on one page without colliding.
        executed = page.sum_by_label("fairank_requests_total", "kind")
        assert executed.get("quantify", 0) >= 1
        assert page.value("fairank_router_workers_total") == pool.size
        assert page.value("fairank_router_workers_alive") >= 1
        assert page.types["fairank_request_seconds"] == "histogram"


REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def boot_serve(arguments, timeout_s=90):
    """Start `fairank serve` as a subprocess and wait for its bound port."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ, PYTHONPATH=REPO_SRC),
    )
    deadline = time.monotonic() + timeout_s
    assert process.stdout is not None
    for line in process.stdout:
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            return process, int(match.group(1))
        if time.monotonic() > deadline:
            break
    process.kill()
    process.wait(timeout=10)
    process.stdout.close()
    raise AssertionError("server never announced its port")


def remaining_output(process) -> str:
    """The rest of a `fairank serve` subprocess's output; closes its pipe."""
    with process.stdout:
        return process.stdout.read()


class TestServeCLISharded:
    def test_sharded_serve_answers_and_shuts_down_cleanly(self, snapshot):
        process, port = boot_serve(
            ["--workers", "2", "--catalog", str(snapshot), "--port", "0"]
        )
        try:
            client = HTTPFairnessClient(f"http://127.0.0.1:{port}", timeout=120)
            health = client.health()
            assert health["status"] == "ok"
            assert health["workers"]["workers"] == 2
            result = client.quantify("table1", "table1-f")
            assert result.ok and result.payload["dataset"] == "table1"
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                assert process.wait(timeout=30) == 0
            except subprocess.TimeoutExpired:
                process.kill()
                raise AssertionError("sharded serve did not exit after SIGTERM")
        assert "shutting down" in remaining_output(process)

    def test_workers_flag_must_be_positive(self, capsys):
        from repro.cli import main

        assert main(["serve", "--workers", "0", "--port", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err


class TestServeCLIGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self):
        process, port = boot_serve(["--port", "0", "--market-size", "30"])
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v2/health", timeout=10
            ) as response:
                assert json.loads(response.read())["status"] == "ok"
        finally:
            process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        assert "shutting down" in remaining_output(process)

    def test_sigint_is_equivalent(self):
        process, port = boot_serve(["--port", "0", "--market-size", "30"])
        # The listening socket must be released promptly: a second bind of the
        # same port succeeding is the observable proof of a clean close.
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 0
        assert "shutting down" in remaining_output(process)
        from repro.server import FairnessHTTPServer

        with FairnessHTTPServer(FairnessService(), port=port) as rebound:
            assert rebound.port == port
