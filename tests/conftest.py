"""Shared fixtures for the FaiRank reproduction test suite."""

from __future__ import annotations

import pytest

from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.marketplace.generator import CrowdsourcingGenerator
from repro.scoring.linear import LinearScoringFunction


@pytest.fixture(scope="session")
def table1_dataset():
    """The paper's Table 1 example dataset (10 individuals)."""
    return load_example_table1()


@pytest.fixture(scope="session")
def table1_function():
    """The scoring function that reproduces the paper's f(w) column."""
    return LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f")


@pytest.fixture(scope="session")
def small_population():
    """A small deterministic synthetic population (fast tests)."""
    return CrowdsourcingGenerator(seed=13).generate(80, name="test-pop-80")


@pytest.fixture(scope="session")
def medium_population():
    """A medium synthetic population for integration-style tests."""
    return CrowdsourcingGenerator(seed=29).generate(250, name="test-pop-250")


@pytest.fixture(scope="session")
def balanced_function():
    """An equal-weight scoring function over the default synthetic skills."""
    return LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")


@pytest.fixture(scope="session")
def crowdsourcing_marketplace_fixture():
    """A synthetic crowdsourcing marketplace with several jobs."""
    from repro.experiments.workloads import crowdsourcing_marketplace

    return crowdsourcing_marketplace(size=150, seed=13)


@pytest.fixture(scope="session")
def crawled_marketplace():
    """One simulated platform crawl (TaskRabbit profile)."""
    from repro.marketplace.crawler import MarketplaceCrawler

    return MarketplaceCrawler(seed=5).crawl("taskrabbit-sim", workers=120)


def _claim_content_length(server, length):
    """POST a two-byte body to ``server`` under a forged Content-Length.

    Returns ``(status, Connection header, parsed JSON body)``.
    """
    import http.client
    import json

    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.putrequest("POST", "/v2/quantify")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", str(length))
        connection.endheaders(b"{}")
        response = connection.getresponse()
        return response.status, response.getheader("Connection"), json.loads(response.read())
    finally:
        connection.close()


@pytest.fixture(scope="session")
def claim_content_length():
    """The forged-Content-Length POST helper (server and router tests)."""
    return _claim_content_length


def _keepalive_posts(server, path, body, count):
    """POST ``body`` to ``path`` ``count`` times over one keep-alive connection.

    One untimed POST first (it may compute the answer), then ``count`` timed
    ones.  Returns ``(response bodies, seconds for the timed POSTs)``.
    """
    import http.client
    import time

    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    headers = {"Content-Type": "application/json"}
    try:
        bodies = []
        started = None
        for index in range(count + 1):
            if index == 1:
                started = time.perf_counter()
            connection.request("POST", path, body=body, headers=headers)
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") != "close"
            bodies.append(response.read())
        return bodies[1:], time.perf_counter() - started
    finally:
        connection.close()


@pytest.fixture(scope="session")
def keepalive_posts():
    """The keep-alive POST loop helper (server and router tests)."""
    return _keepalive_posts


def _post(server, path, body, timeout=30):
    """One POST on a fresh connection: ``(status, body bytes)``."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        f"{server.base_url}{path}", data=body.encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _sequential_thread_starts(server, path, body, count, warmup=10):
    """Threads started in this process while ``count`` fresh-connection POSTs
    run one after another (after ``warmup`` untimed ones)."""
    import threading

    for _ in range(warmup):
        assert _post(server, path, body)[0] == 200
    started = []
    original = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        return original(thread)

    threading.Thread.start = counting_start
    try:
        for _ in range(count):
            assert _post(server, path, body)[0] == 200
    finally:
        threading.Thread.start = original
    return started


@pytest.fixture(scope="session")
def sequential_thread_starts():
    """The thread-start count helper (server and router tests)."""
    return _sequential_thread_starts


def _answer_beside_idle_keepalives(server, path, body, idle=8):
    """Hold ``idle`` keep-alive connections open (each served once, then
    idle), then time one POST on a fresh connection.

    Returns ``(status, seconds)`` of that POST.
    """
    import http.client
    import time

    connections = []
    try:
        for _ in range(idle):
            connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
            connections.append(connection)
            connection.request(
                "POST", path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            response.read()
            assert response.status == 200
        started = time.perf_counter()
        status, _ = _post(server, path, body, timeout=10)
        return status, time.perf_counter() - started
    finally:
        for connection in connections:
            connection.close()


@pytest.fixture(scope="session")
def answer_beside_idle_keepalives():
    """The idle keep-alive connections helper (server and router tests)."""
    return _answer_beside_idle_keepalives


class _Gate:
    """Holds every call of a wrapped function until ``release`` is set."""

    def __init__(self):
        import threading

        self.entered = threading.Event()
        self.release = threading.Event()

    def hold(self, function):
        def held(*args, **kwargs):
            self.entered.set()
            assert self.release.wait(30), "the gate was never released"
            return function(*args, **kwargs)

        return held


def _shutdown_with_request_in_flight(server, gate, path, body, release_after_s=0.3):
    """Serve ``server``, park one POST at ``gate``, then shut down and close.

    The gate opens ``release_after_s`` after ``shutdown()`` returns.
    Returns ``(shutdown seconds, server_close seconds, status, body)``.
    """
    import threading
    import time

    server.serve_in_background()
    answers = []
    requester = threading.Thread(
        target=lambda: answers.append(_post(server, path, body))
    )
    requester.start()
    try:
        assert gate.entered.wait(10), "the request never reached the gate"
        started = time.perf_counter()
        server.shutdown()
        shutdown_s = time.perf_counter() - started
        threading.Timer(release_after_s, gate.release.set).start()
        started = time.perf_counter()
        server.server_close()
        close_s = time.perf_counter() - started
    finally:
        gate.release.set()
        server.server_close()
        requester.join(30)
    assert len(answers) == 1, "the in-flight request got no answer"
    return (shutdown_s, close_s, *answers[0])


@pytest.fixture
def request_gate():
    """A fresh :class:`_Gate` (open it with ``gate.release.set()``)."""
    return _Gate()


@pytest.fixture(scope="session")
def shutdown_with_request_in_flight():
    """The shutdown-under-load helper (server and router tests)."""
    return _shutdown_with_request_in_flight
