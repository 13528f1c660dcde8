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
