"""Wire protocol: lossless JSON round-trips of every request/response type."""

from __future__ import annotations

import json
import re

import pytest

from repro.core.formulations import Aggregation, Objective
from repro.errors import ServiceError
from repro.metrics.histogram import DEFAULT_BINS, MAX_BINS
from repro.service.jobs import (
    MAX_SWEEP_POINTS,
    AuditRequest,
    CompareRequest,
    QuantifyRequest,
    ServiceResult,
    SweepRequest,
    request_from_json,
)


class TestQuantifyRequest:
    def test_round_trip_defaults(self):
        request = QuantifyRequest(dataset="d", function="f")
        assert QuantifyRequest.from_json(request.to_json()) == request

    def test_round_trip_every_field(self):
        request = QuantifyRequest(
            dataset="d",
            function="f",
            objective="least_unfair",
            aggregation="variance",
            distance="emd",
            bins=9,
            attributes=("Gender", "Language"),
            max_depth=3,
            min_partition_size=4,
            use_ranks_only=True,
        )
        payload = json.loads(json.dumps(request.to_json()))  # via real JSON text
        assert QuantifyRequest.from_json(payload) == request

    def test_formulation_materialisation(self):
        request = QuantifyRequest(
            dataset="d", function="f", objective="least_unfair", aggregation="maximum"
        )
        formulation = request.formulation()
        assert formulation.objective is Objective.LEAST_UNFAIR
        assert formulation.aggregation is Aggregation.MAXIMUM

    def test_requires_names(self):
        with pytest.raises(ServiceError):
            QuantifyRequest(dataset="", function="f")
        with pytest.raises(ServiceError):
            QuantifyRequest(dataset="d", function="")

    def test_attribute_sequences_normalise_to_tuples(self):
        request = QuantifyRequest(dataset="d", function="f", attributes=["Gender"])
        assert request.attributes == ("Gender",)


class TestMaxDepthBound:
    """``max_depth`` below 1 is refused at decode, naming kind, field and bound."""

    PAYLOADS = {
        "quantify": {"dataset": "d", "function": "f"},
        "compare": {"dataset": "d", "functions": ["f", "g"]},
        "sweep": {"dataset": "d", "function": "f"},
    }

    @pytest.mark.parametrize("max_depth", [0, -1])
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_below_one_is_refused(self, kind, max_depth):
        payload = {"kind": kind, **self.PAYLOADS[kind], "max_depth": max_depth}
        message = f"{kind} request field 'max_depth' must be >= 1, got {max_depth}"
        with pytest.raises(ServiceError, match=message):
            request_from_json(payload)

    @pytest.mark.parametrize("max_depth", [None, 1, 2])
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_null_and_positive_depths_decode(self, kind, max_depth):
        payload = {"kind": kind, **self.PAYLOADS[kind], "max_depth": max_depth}
        assert request_from_json(payload).max_depth == max_depth


class TestBinsBound:
    """``bins`` outside [1, MAX_BINS] is refused at decode, naming kind, field and bounds."""

    PAYLOADS = {
        "quantify": {"dataset": "d", "function": "f"},
        "audit": {"marketplace": "m"},
        "compare": {"dataset": "d", "functions": ["f", "g"]},
        "breakdown": {"dataset": "d", "function": "f"},
        "sweep": {"dataset": "d", "function": "f"},
        "end_user": {"group": {"Gender": "F"}, "marketplaces": ["m"], "job": "j"},
        "job_owner": {"marketplace": "m", "job": "j"},
    }

    @pytest.mark.parametrize("bins", [0, -1, MAX_BINS + 1, 10**9])
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_outside_bounds_is_refused(self, kind, bins):
        payload = {"kind": kind, **self.PAYLOADS[kind], "bins": bins}
        message = f"{kind} request field 'bins' must be in [1, {MAX_BINS}], got {bins}"
        with pytest.raises(ServiceError, match=re.escape(message)):
            request_from_json(payload)

    @pytest.mark.parametrize("bins", [1, DEFAULT_BINS, MAX_BINS])
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_bounds_decode(self, kind, bins):
        payload = {"kind": kind, **self.PAYLOADS[kind], "bins": bins}
        assert request_from_json(payload).bins == bins


class TestSweepSizeBound:
    """A sweep's points are bounded at decode: ``steps``, ``sweep_steps``, ``weights``."""

    CASES = {
        "steps": ("sweep", {"dataset": "d", "function": "f"}),
        "sweep_steps": ("job_owner", {"marketplace": "m", "job": "j"}),
    }

    @pytest.mark.parametrize("count", [MAX_SWEEP_POINTS + 1, 100_000])
    @pytest.mark.parametrize("field", sorted(CASES))
    def test_too_many_steps_are_refused(self, field, count):
        kind, payload = self.CASES[field]
        message = f"{kind} request field {field!r} must be <= {MAX_SWEEP_POINTS}, got {count}"
        with pytest.raises(ServiceError, match=re.escape(message)):
            request_from_json({"kind": kind, **payload, field: count})

    @pytest.mark.parametrize("count", [MAX_SWEEP_POINTS + 1, 1000])
    def test_too_many_weight_vectors_are_refused(self, count):
        payload = {
            "kind": "sweep", "dataset": "d", "function": "f",
            "weights": [{"Rating": 1.0}] * count,
        }
        message = (
            f"sweep request field 'weights' must have length <= {MAX_SWEEP_POINTS}, "
            f"got {count}"
        )
        with pytest.raises(ServiceError, match=re.escape(message)):
            request_from_json(payload)
        with pytest.raises(ServiceError, match=re.escape(message)):
            SweepRequest(dataset="d", function="f", weights=[{"Rating": 1.0}] * count)

    @pytest.mark.parametrize("field", sorted(CASES))
    def test_the_bound_itself_decodes(self, field):
        kind, payload = self.CASES[field]
        request = request_from_json({"kind": kind, **payload, field: MAX_SWEEP_POINTS})
        assert getattr(request, field) == MAX_SWEEP_POINTS
        vectors = [{"Rating": 1.0}] * MAX_SWEEP_POINTS
        sweep = request_from_json({"kind": "sweep", "dataset": "d", "function": "f",
                                   "weights": vectors})
        assert len(sweep.weights) == MAX_SWEEP_POINTS


class TestMinPartitionSizeBound:
    """``min_partition_size`` below 1 is refused at decode on every kind that has it."""

    PAYLOADS = {
        "quantify": {"dataset": "d", "function": "f"},
        "audit": {"marketplace": "m"},
        "compare": {"dataset": "d", "functions": ["f", "g"]},
        "breakdown": {"dataset": "d", "function": "f"},
        "sweep": {"dataset": "d", "function": "f"},
        "job_owner": {"marketplace": "m", "job": "j"},
    }

    @pytest.mark.parametrize("size", [0, -1, -10**9])
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_below_one_is_refused(self, kind, size):
        payload = {"kind": kind, **self.PAYLOADS[kind], "min_partition_size": size}
        message = f"{kind} request field 'min_partition_size' must be >= 1, got {size}"
        with pytest.raises(ServiceError, match=re.escape(message)):
            request_from_json(payload)

    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_one_decodes(self, kind):
        payload = {"kind": kind, **self.PAYLOADS[kind], "min_partition_size": 1}
        assert request_from_json(payload).min_partition_size == 1


class TestFanOutBound:
    """A compare's ``functions`` and an end user's ``marketplaces`` are bounded in length."""

    CASES = {
        "functions": ("compare", {"dataset": "d"}),
        "marketplaces": ("end_user", {"group": {"Gender": "F"}, "job": "j"}),
    }

    @pytest.mark.parametrize("count", [MAX_SWEEP_POINTS + 1, 1000])
    @pytest.mark.parametrize("field", sorted(CASES))
    def test_too_many_names_are_refused(self, field, count):
        kind, payload = self.CASES[field]
        names = [f"n{index}" for index in range(count)]
        message = (
            f"{kind} request field {field!r} must have length <= {MAX_SWEEP_POINTS}, "
            f"got {count}"
        )
        with pytest.raises(ServiceError, match=re.escape(message)):
            request_from_json({"kind": kind, **payload, field: names})

    @pytest.mark.parametrize("field", sorted(CASES))
    def test_the_bound_itself_decodes(self, field):
        kind, payload = self.CASES[field]
        names = [f"n{index}" for index in range(MAX_SWEEP_POINTS)]
        request = request_from_json({"kind": kind, **payload, field: names})
        assert len(getattr(request, field)) == MAX_SWEEP_POINTS


class TestAuditRequest:
    def test_round_trip(self):
        request = AuditRequest(
            marketplace="m",
            job="Content writing",
            attributes=("Gender",),
            min_partition_size=5,
            bins=7,
        )
        payload = json.loads(json.dumps(request.to_json()))
        assert AuditRequest.from_json(payload) == request

    def test_whole_marketplace_job_is_none(self):
        request = AuditRequest(marketplace="m")
        assert request.job is None
        assert AuditRequest.from_json(request.to_json()) == request

    def test_requires_marketplace(self):
        with pytest.raises(ServiceError):
            AuditRequest(marketplace="")


class TestCompareRequest:
    def test_round_trip(self):
        request = CompareRequest(
            dataset="d",
            functions=("f1", "f2", "f3"),
            objective="most_unfair",
            max_depth=2,
            min_partition_size=3,
        )
        payload = json.loads(json.dumps(request.to_json()))
        assert CompareRequest.from_json(payload) == request

    def test_requires_at_least_one_function(self):
        with pytest.raises(ServiceError):
            CompareRequest(dataset="d", functions=())

    def test_function_lists_normalise_to_tuples(self):
        request = CompareRequest(dataset="d", functions=["f1", "f2"])
        assert request.functions == ("f1", "f2")


class TestDispatch:
    def test_dispatch_round_trips_all_kinds(self):
        requests = [
            QuantifyRequest(dataset="d", function="f"),
            AuditRequest(marketplace="m"),
            CompareRequest(dataset="d", functions=("f",)),
        ]
        for request in requests:
            rebuilt = request_from_json(json.loads(json.dumps(request.to_json())))
            assert rebuilt == request
            assert type(rebuilt) is type(request)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown request kind"):
            request_from_json({"kind": "frobnicate"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ServiceError, match="'kind'"):
            request_from_json({"dataset": "d"})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ServiceError, match="missing required field"):
            request_from_json({"kind": "quantify", "dataset": "d"})


class TestServiceResult:
    def test_round_trip(self):
        result = ServiceResult(
            kind="quantify",
            key="abc123",
            payload={"unfairness": 0.25, "partitions": [{"label": "ALL", "size": 10}]},
            cached=True,
            elapsed_s=0.125,
        )
        rebuilt = ServiceResult.from_json(json.loads(json.dumps(result.to_json())))
        assert rebuilt == result

    def test_canonical_ignores_serving_metadata(self):
        cold = ServiceResult(kind="quantify", key="k", payload={"a": 1}, cached=False,
                             elapsed_s=1.5)
        warm = ServiceResult(kind="quantify", key="k", payload={"a": 1}, cached=True,
                             elapsed_s=0.001)
        assert cold.canonical() == warm.canonical()

    def test_canonical_is_deterministic_json(self):
        result = ServiceResult(kind="x", key="k", payload={"b": 2, "a": 1})
        assert result.canonical() == json.dumps(
            {"kind": "x", "key": "k", "payload": {"b": 2, "a": 1}}, sort_keys=True
        )
