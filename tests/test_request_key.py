"""Request keys: the request's own JSON plus its resources' fingerprints.

Two names for identical content ("twins": one population registered as
``alpha`` and ``beta``, a marketplace re-registered as ``twin-market``, or a
dataset addressed by a prefix of its content fingerprint) share one
content-keyed score store, but never a cached answer: every payload echoes
the name it was asked under, so a cache hit across twins would hand one
client the bytes another client asked for.  Every twin case checks the
second request against a *fresh* service that never saw the first, in
process and over HTTP.

The pool's content key is the only proof that two objects are twins: on a
hit it hands the caller's dataset and function to the store it returns
(``ScoreStore.adopt``), so the store serves a twin function (even one with
no ``fingerprint()``, keyed by its pickle) and treats a twin dataset's rows
as its own, one for one.
"""

from __future__ import annotations

import functools
import json
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.partition import root_partition
from repro.data.filters import Equals
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.experiments.workloads import biased_population, crowdsourcing_marketplace
from repro.marketplace.entities import Job, Marketplace
from repro.metrics.histogram import Binning
from repro.roles.auditor import Auditor
from repro.scoring.base import ScoringFunction
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
from repro.service.fingerprint import fingerprint_dataset

MARKET_SIZE = 40


@functools.lru_cache(maxsize=None)
def _market() -> Marketplace:
    return crowdsourcing_marketplace(size=MARKET_SIZE, seed=7)


def twin_service() -> FairnessService:
    """One population as ``alpha`` and ``beta``; one marketplace twice."""
    service = FairnessService()
    table1 = load_example_table1()
    service.register_dataset(table1, name="alpha")
    service.register_dataset(table1, name="beta")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    service.register_function(
        LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    )
    market = _market()
    service.register_marketplace(market)
    service.register_marketplace(Marketplace("twin-market", market.workers, market))
    return service


def table1_service() -> FairnessService:
    """``table1`` alone, so a prefix of its fingerprint is unambiguous."""
    service = FairnessService()
    service.register_dataset(load_example_table1(), name="table1")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    return service


TABLE1_PREFIX = next(
    entry.fingerprint[:12]
    for entry in table1_service().catalog.resources()
    if entry.name == "table1" and entry.kind.value == "dataset"
)

#: (id, catalogue builder, first request, its twin).
TWINS = [
    (
        "quantify",
        twin_service,
        QuantifyRequest(dataset="alpha", function="table1-f"),
        QuantifyRequest(dataset="beta", function="table1-f"),
    ),
    (
        "breakdown",
        twin_service,
        BreakdownRequest(dataset="alpha", function="table1-f"),
        BreakdownRequest(dataset="beta", function="table1-f"),
    ),
    (
        "sweep",
        twin_service,
        SweepRequest(dataset="alpha", function="table1-f", steps=3),
        SweepRequest(dataset="beta", function="table1-f", steps=3),
    ),
    (
        "compare",
        twin_service,
        CompareRequest(dataset="alpha", functions=("table1-f", "balanced")),
        CompareRequest(dataset="beta", functions=("table1-f", "balanced")),
    ),
    (
        "fingerprint-prefix",
        table1_service,
        QuantifyRequest(dataset="table1", function="table1-f"),
        QuantifyRequest(dataset=TABLE1_PREFIX, function="table1-f"),
    ),
    (
        "audit",
        twin_service,
        AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=5),
        AuditRequest(marketplace="twin-market", min_partition_size=5),
    ),
    (
        "job_owner",
        twin_service,
        JobOwnerRequest(
            marketplace="crowdsourcing-sim", job="Content writing", sweep_steps=3
        ),
        JobOwnerRequest(marketplace="twin-market", job="Content writing", sweep_steps=3),
    ),
    (
        "end_user",
        twin_service,
        EndUserRequest(
            group={"Gender": "Female"},
            marketplaces=("crowdsourcing-sim",),
            job="Content writing",
        ),
        EndUserRequest(
            group={"Gender": "Female"},
            marketplaces=("twin-market",),
            job="Content writing",
        ),
    ),
]

twin_cases = pytest.mark.parametrize(
    "build, first, second",
    [case[1:] for case in TWINS],
    ids=[case[0] for case in TWINS],
)


def _post(server: FairnessHTTPServer, request) -> ServiceResult:
    http_request = urllib.request.Request(
        f"{server.base_url}/v2/{request.kind}",
        data=json.dumps(request.to_json()).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(http_request, timeout=60) as response:
        return ServiceResult.from_json(json.loads(response.read()))


class TestTwinNames:
    @twin_cases
    def test_twin_answers_like_a_fresh_service(self, build, first, second):
        service = build()
        assert service.execute(first).ok
        shared = service.execute(second)
        fresh = build().execute(second)
        assert shared.ok and fresh.ok
        assert not shared.cached
        assert shared.canonical() == fresh.canonical()

    @twin_cases
    def test_twin_answers_like_a_fresh_service_over_http(self, build, first, second):
        with FairnessHTTPServer(build(), port=0) as server:
            server.serve_in_background()
            assert _post(server, first).ok
            shared = _post(server, second)
        fresh = build().execute(second)
        assert not shared.cached
        assert shared.canonical() == fresh.canonical()

    @twin_cases
    def test_twins_share_the_score_store(self, build, first, second):
        service = build()
        service.execute(first)
        passes = service.store_stats.scoring_passes
        assert service.execute(second).ok
        assert service.store_stats.scoring_passes == passes
        if first.kind in ("quantify", "breakdown"):
            assert passes == 1


class SkillScorer(ScoringFunction):
    """A user-defined scorer without ``fingerprint()``: the pool keys it by its pickle."""

    name = "skill"

    def __init__(self, weight: float) -> None:
        self.weight = weight

    def score_dataset(self, dataset):
        language = dataset.numeric_column("Language Test")
        rating = dataset.numeric_column("Rating")
        return self.weight * language + (1.0 - self.weight) * rating


def _skill_market() -> Marketplace:
    """Two jobs scored by equal but distinct ``SkillScorer`` instances."""
    workers, _ = biased_population(size=200, seed=5)
    market = Marketplace("skill-market", workers)
    market.add_job(Job(title="Writing", function=SkillScorer(0.6)))
    market.add_job(Job(title="Editing", function=SkillScorer(0.6)))
    return market


def _skill_service() -> FairnessService:
    service = FairnessService()
    service.register_marketplace(_skill_market())
    return service


class TestFunctionTwins:
    """Equal instances of a fingerprint-less scorer share one pool store."""

    REQUEST = AuditRequest(marketplace="skill-market", min_partition_size=5)

    def _private_unfairness(self):
        report = Auditor(min_partition_size=5).audit_marketplace(_skill_market())
        return {audit.job_title: audit.unfairness for audit in report.audits}

    def _assert_answers_like_the_auditor(self, result):
        assert result.ok, result.error
        answered = {job["job"]: job["unfairness"] for job in result.payload["jobs"]}
        assert answered == self._private_unfairness()

    def test_audit_over_the_service(self):
        service = _skill_service()
        self._assert_answers_like_the_auditor(service.execute(self.REQUEST))
        # Both jobs scored through one store: one pass, not two.
        assert service.store_stats.stores == 1
        assert service.store_stats.scoring_passes == 1

    def test_audit_over_http(self):
        with FairnessHTTPServer(_skill_service(), port=0) as server:
            server.serve_in_background()
            self._assert_answers_like_the_auditor(_post(server, self.REQUEST))

    def test_a_private_store_serves_only_its_adopted_twins(self):
        service = _skill_service()
        market = service.marketplace("skill-market")
        first, second = (job.function for job in market)
        store = service.score_store(market.workers, first)
        assert store.serves(first) and not store.serves(second)
        assert service.score_store(market.workers, second) is store
        assert store.serves(second)


class TestDatasetTwins:
    """A filtered job's candidates rebuilt per request adopt the pooled store."""

    def test_rebuilt_view_is_served_as_the_store_root(self):
        market = crowdsourcing_marketplace(size=300, seed=7)
        job = market.job("English transcription")
        service = FairnessService()
        service.register_marketplace(market)
        first = job.candidates(market.workers)
        twin = job.candidates(market.workers)
        assert twin is not first
        assert fingerprint_dataset(twin) == fingerprint_dataset(first)
        store = service.score_store(first, job.function)
        assert service.score_store(twin, job.function) is store
        root = root_partition(twin)
        assert store.scores(root) is store.vector()
        # The twin's root counts the store's dataset packs and reads its
        # grouping, as the store's own root would; nothing is built on the twin.
        attr = twin.schema.require_protected("Gender")
        store.candidate_split(root, attr, Binning.unit())
        assert "_packed_cache" in vars(store.dataset)
        assert "_packed_cache" not in vars(twin)
        order, _ = store.dataset.grouping("Gender")
        for child in store.split(root, attr):
            assert child.members.index.base is order
            assert child.members.name.startswith(twin.name + "/")
        assert "_grouping_cache" not in vars(twin)
        # A view drawn from the twin maps through its provenance.
        women = twin.filter(Equals("Gender", "Female"))
        assert np.array_equal(
            store.scores(root_partition(women)), job.function.score_dataset(women)
        )

    def test_rebuilt_view_answers_like_a_fresh_service(self):
        def build():
            service = FairnessService()
            service.register_marketplace(crowdsourcing_marketplace(size=300, seed=7))
            return service

        request = AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=5)
        again = AuditRequest(
            marketplace="crowdsourcing-sim", min_partition_size=5, aggregation="maximum"
        )
        service = build()
        assert service.execute(request).ok
        passes = service.store_stats.scoring_passes
        shared = service.execute(again)
        assert not shared.cached
        # Every job's candidates were rebuilt, and no job scored again.
        assert service.store_stats.scoring_passes == passes
        assert shared.canonical() == build().execute(again).canonical()


class TestKeyDerivation:
    def test_reregistered_content_changes_the_key(self):
        service = table1_service()
        request = QuantifyRequest(dataset="table1", function="table1-f")
        before = service.request_key(request)
        service.register_function(
            LinearScoringFunction({"Language Test": 0.9, "Rating": 0.1}, name="table1-f")
        )
        assert service.request_key(request) != before

    def test_sweep_steps_are_ignored_with_explicit_weights(self):
        vectors = [{"Rating": 1.0}]
        three = SweepRequest(dataset="alpha", function="table1-f", steps=3, weights=vectors)
        nine = SweepRequest(dataset="alpha", function="table1-f", steps=9, weights=vectors)
        assert three == nine and three.to_json() == nine.to_json()
        service = twin_service()
        assert service.request_key(three) == service.request_key(nine)

    def test_unknown_resource_keeps_the_catalog_message(self):
        service = twin_service()
        result = service.execute(QuantifyRequest(dataset="gamma", function="table1-f"))
        assert result.error["code"] == "service"
        assert "unknown dataset 'gamma'" in result.error["message"]
        assert result.key == ""

    def test_invalid_formulation_is_rejected_by_the_key(self):
        service = twin_service()
        result = service.execute(
            QuantifyRequest(dataset="alpha", function="table1-f", distance="nope")
        )
        assert not result.ok and result.key == ""


class TestRankOnlyKeys:
    @pytest.mark.parametrize(
        "request_",
        [
            QuantifyRequest(dataset="alpha", function="table1-f", use_ranks_only=True),
            BreakdownRequest(dataset="alpha", function="table1-f", use_ranks_only=True),
        ],
        ids=["quantify", "breakdown"],
    )
    def test_key_never_ranks_the_population(self, monkeypatch, request_):
        service = twin_service()

        def refuse(self, dataset):
            raise AssertionError("request_key ranked the population")

        monkeypatch.setattr(ScoringFunction, "rank", refuse)
        key = service.request_key(request_)
        assert key and key != service.request_key(
            type(request_)(dataset="alpha", function="table1-f")
        )


# -- the key property ------------------------------------------------------------

#: Interchangeable values per field: each list holds twins (same content,
#: different name) and at least one genuinely different value.
DATASETS = ("alpha", "beta")
FUNCTIONS = ("table1-f", "balanced")
MARKETPLACES = ("crowdsourcing-sim", "twin-market")


def _request(kind, dataset, function, market, objective, bins, steps, weighted, ranks):
    formulation = {"objective": objective, "bins": bins}
    if kind == "quantify":
        return QuantifyRequest(
            dataset=dataset, function=function, use_ranks_only=ranks,
            min_partition_size=2, **formulation,
        )
    if kind == "breakdown":
        return BreakdownRequest(
            dataset=dataset, function=function, use_ranks_only=ranks, **formulation
        )
    if kind == "sweep":
        return SweepRequest(
            dataset=dataset, function=function, steps=steps,
            weights=[{"Rating": 1.0}] if weighted else None,
            min_partition_size=2, **formulation,
        )
    if kind == "compare":
        return CompareRequest(
            dataset=dataset, functions=(function, "table1-f"),
            min_partition_size=2, **formulation,
        )
    if kind == "audit":
        return AuditRequest(marketplace=market, min_partition_size=5, **formulation)
    if kind == "job_owner":
        return JobOwnerRequest(
            marketplace=market, job="Content writing", sweep_steps=steps,
            min_partition_size=5, **formulation,
        )
    return EndUserRequest(
        group={"Gender": "Female"}, marketplaces=(market,), job="Content writing",
        **formulation,
    )


fields = {
    "kind": st.sampled_from(
        ["quantify", "breakdown", "sweep", "compare", "audit", "job_owner", "end_user"]
    ),
    "dataset": st.sampled_from(DATASETS),
    "function": st.sampled_from(FUNCTIONS),
    "market": st.sampled_from(MARKETPLACES),
    "objective": st.sampled_from(["most_unfair", "least_unfair"]),
    "bins": st.sampled_from([5, 10]),
    "steps": st.sampled_from([2, 3]),
    "weighted": st.booleans(),
    "ranks": st.booleans(),
}


@st.composite
def request_pairs(draw):
    """A request and a neighbour differing in at most one field."""
    spec = {name: draw(strategy) for name, strategy in fields.items()}
    other = dict(spec)
    changed = draw(st.sampled_from(sorted(fields) + [None]))
    if changed is not None and changed != "kind":
        other[changed] = draw(fields[changed])
    return _request(**spec), _request(**other)


@functools.lru_cache(maxsize=None)
def _fresh_payload(request) -> bytes:
    result = twin_service().execute(request)
    assert result.ok, result.error
    return result.payload_json


_KEYS = twin_service()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(request_pairs())
def test_equal_keys_mean_equal_fresh_payloads(pair):
    first, second = pair
    if _KEYS.request_key(first) == _KEYS.request_key(second):
        assert _fresh_payload(first) == _fresh_payload(second)
