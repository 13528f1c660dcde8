"""Wire protocol v2: envelopes, new request kinds, errors, client parity.

Covers the satellite checklist: lossless JSON round-trips across all request
kinds, v1-payload ingestion, error-envelope serving, cache-hit parity between
the :class:`~repro.service.client.FairnessClient` facade and raw requests,
and the catalog unification acceptance test (register via the engine,
resolve via a raw wire request).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.catalog import ResourceKind
from repro.cli import main
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore
from repro.data.dataset import Dataset
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.data.schema import Schema, observed, protected
from repro.errors import ServiceError, SessionError
from repro.experiments.workloads import crowdsourcing_marketplace
from repro.scoring.linear import LinearScoringFunction
from repro.service import (
    PROTOCOL_VERSION,
    AuditRequest,
    BatchExecutor,
    BreakdownRequest,
    CompareRequest,
    EndUserRequest,
    FairnessClient,
    FairnessService,
    JobOwnerRequest,
    QuantifyRequest,
    SweepRequest,
    request_from_json,
)
from repro.service.jobs import ServiceResult
from repro.session.config import SessionConfig
from repro.session.engine import FaiRankEngine


def all_kind_requests():
    """One fully-populated request per protocol kind."""
    return [
        QuantifyRequest(
            dataset="d", function="f", objective="least_unfair",
            aggregation="variance", bins=9, attributes=("Gender",),
            max_depth=3, min_partition_size=4, use_ranks_only=True,
        ),
        AuditRequest(
            marketplace="m", job="J", attributes=("Gender", "Language"),
            min_partition_size=5, bins=7,
        ),
        CompareRequest(
            dataset="d", functions=("f1", "f2"), aggregation="maximum",
            max_depth=2, min_partition_size=3,
        ),
        BreakdownRequest(
            dataset="d", function="f", attributes=("Country",),
            min_partition_size=2, use_ranks_only=True, bins=4,
        ),
        SweepRequest(
            dataset="d", function="f", steps=7,
            weights=({"a": 0.25, "b": 0.75}, {"a": 1.0, "b": 0.0}),
            attributes=("Gender",), max_depth=2, min_partition_size=3,
        ),
        EndUserRequest(
            group={"Gender": "Female", "Language": "English"},
            marketplaces=("m1", "m2"), job="J", bins=6,
        ),
        JobOwnerRequest(
            marketplace="m", job="J", sweep_steps=4, min_partition_size=2,
            objective="least_unfair",
        ),
    ]


class TestRoundTrips:
    def test_every_kind_round_trips_through_real_json(self):
        for request in all_kind_requests():
            payload = json.loads(json.dumps(request.to_json()))
            rebuilt = request_from_json(payload)
            assert rebuilt == request
            assert type(rebuilt) is type(request)

    def test_every_kind_round_trips_with_defaults(self):
        requests = [
            QuantifyRequest(dataset="d", function="f"),
            AuditRequest(marketplace="m"),
            CompareRequest(dataset="d", functions=("f",)),
            BreakdownRequest(dataset="d", function="f"),
            SweepRequest(dataset="d", function="f"),
            EndUserRequest(group={"Gender": "F"}, marketplaces=("m",), job="J"),
            JobOwnerRequest(marketplace="m", job="J"),
        ]
        for request in requests:
            assert request_from_json(json.loads(json.dumps(request.to_json()))) == request

    def test_payloads_are_stamped_with_protocol_2(self):
        for request in all_kind_requests():
            assert request.to_json()["protocol"] == PROTOCOL_VERSION == 2

    def test_sweep_weight_vectors_normalise_key_order(self):
        first = SweepRequest(dataset="d", function="f",
                             weights=({"a": 0.5, "b": 0.5},))
        second = SweepRequest(dataset="d", function="f",
                              weights=({"b": 0.5, "a": 0.5},))
        assert first == second
        assert first.weight_maps == ({"a": 0.5, "b": 0.5},)

    def test_sweep_rejects_bare_number_weight_vectors(self):
        # A vector must map attribute names to weights; a bare list of
        # numbers must surface as a structured error, not a TypeError.
        with pytest.raises(ServiceError, match="weight vector"):
            request_from_json(
                {"kind": "sweep", "dataset": "d", "function": "f",
                 "weights": [[0.5, 0.5]]}
            )

    def test_end_user_group_normalises_key_order(self):
        first = EndUserRequest(group={"A": 1, "B": 2}, marketplaces=("m",), job="J")
        second = EndUserRequest(group={"B": 2, "A": 1}, marketplaces=("m",), job="J")
        assert first == second and first.group_map == {"A": 1, "B": 2}


class TestVersioning:
    def test_v1_payload_without_protocol_field_parses(self):
        request = request_from_json(
            {"kind": "quantify", "dataset": "d", "function": "f"}
        )
        assert request == QuantifyRequest(dataset="d", function="f")

    def test_explicit_protocol_1_parses(self):
        request = request_from_json(
            {"protocol": 1, "kind": "audit", "marketplace": "m"}
        )
        assert request == AuditRequest(marketplace="m")

    def test_future_protocol_rejected(self):
        with pytest.raises(ServiceError, match="unsupported protocol version 3"):
            request_from_json(
                {"protocol": 3, "kind": "quantify", "dataset": "d", "function": "f"}
            )

    def test_malformed_protocol_rejected(self):
        with pytest.raises(ServiceError, match="invalid protocol"):
            request_from_json({"protocol": "two", "kind": "quantify"})

    def test_validation_messages(self):
        with pytest.raises(ServiceError, match="at least one vector"):
            SweepRequest(dataset="d", function="f", weights=())
        with pytest.raises(ServiceError, match="at least 2 steps"):
            SweepRequest(dataset="d", function="f", steps=1)
        with pytest.raises(ServiceError, match="at least one marketplace"):
            EndUserRequest(group={"G": "F"}, marketplaces=(), job="J")
        with pytest.raises(ServiceError, match="job title"):
            JobOwnerRequest(marketplace="m", job="")


def build_service() -> FairnessService:
    service = FairnessService()
    service.register_dataset(load_example_table1(), name="table1")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    service.register_marketplace(crowdsourcing_marketplace(size=80, seed=13))
    return service


@pytest.fixture()
def service():
    return build_service()


class TestPerRequestFactsOnly:
    def test_cold_answer_bytes_do_not_depend_on_earlier_requests(self):
        def masked(result):
            assert result.ok and not result.cached
            return dataclasses.replace(result, elapsed_s=0.0, timings=None).encode()

        busy = build_service()
        for bins in range(2, 42):
            busy.execute(QuantifyRequest(dataset="table1", function="table1-f", bins=bins))
        request = AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=3)
        assert masked(busy.execute(request)) == masked(build_service().execute(request))


class TestErrorEnvelopes:
    def test_unknown_resource_returns_an_error_result(self, service):
        result = service.execute(QuantifyRequest(dataset="nope", function="table1-f"))
        assert result.ok is False and result.cached is False
        assert result.error["code"] == "service"
        assert "unknown dataset" in result.error["message"]
        assert result.payload == {}
        with pytest.raises(ServiceError, match="unknown dataset"):
            result.raise_for_error()

    def test_error_results_round_trip_and_compare_canonically(self, service):
        result = service.execute(QuantifyRequest(dataset="nope", function="table1-f"))
        rebuilt = ServiceResult.from_json(json.loads(json.dumps(result.to_json())))
        assert rebuilt.error == result.error
        assert rebuilt.canonical() == result.canonical()
        ok = service.execute(QuantifyRequest(dataset="table1", function="table1-f"))
        assert ok.canonical() != result.canonical()

    def test_key_failure_slot_has_the_envelope_wire_shape(self, service):
        [slot] = BatchExecutor(service).run(
            [QuantifyRequest(dataset="nope", function="table1-f")]
        )
        wire = json.loads(slot.encode())
        assert list(wire) == list(ServiceResult(kind="", key="").to_json())
        assert wire["timings"]["trace_id"]
        assert ServiceResult.from_json(wire) == slot

    def test_ranking_a_nul_uid_is_a_scoring_error(self, service):
        schema = Schema((protected("Gender"), observed("Skill")))
        records = [
            {"uid": uid, "Gender": gender, "Skill": skill}
            for uid, gender, skill in (("a", "F", 0.5), ("a\x00", "M", 0.5), ("b", "F", 0.9))
        ]
        service.register_dataset(
            Dataset.from_records(schema, records, uid_field="uid"), name="nul"
        )
        service.register_function(LinearScoringFunction({"Skill": 1.0}, name="skill"))
        result = service.execute(
            QuantifyRequest(dataset="nul", function="skill", use_ranks_only=True)
        )
        assert result.error["code"] == "scoring"
        assert "NUL" in result.error["message"]

    def test_error_results_are_not_cached(self, service):
        request = QuantifyRequest(dataset="late", function="table1-f")
        assert service.execute(request).ok is False
        service.register_dataset(load_example_table1(), name="late")
        healed = service.execute(request)
        assert healed.ok is True and healed.payload["unfairness"] > 0

    def test_batch_with_a_bad_request_still_serves_the_rest(self, service):
        batch = [
            QuantifyRequest(dataset="table1", function="table1-f"),
            QuantifyRequest(dataset="missing", function="table1-f"),
            AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=3),
        ]
        results = BatchExecutor(service).run(batch)
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].kind == "quantify"
        assert results[1].error["code"] == "service"

    def test_invalid_formulation_travels_as_formulation_error(self, service):
        result = service.execute(
            QuantifyRequest(dataset="table1", function="table1-f",
                            objective="sideways")
        )
        assert result.ok is False
        assert result.error["code"] == "formulation"


class TestNewKindsServing:
    def test_breakdown_matches_direct_single_splits(self, service):
        result = service.execute(
            BreakdownRequest(dataset="table1", function="table1-f")
        )
        assert result.ok
        payload = result.payload
        names = [row["attribute"] for row in payload["attributes"]]
        assert names == list(service.dataset("table1").schema.protected_names)
        best = max(
            (row for row in payload["attributes"] if row["admissible"]),
            key=lambda row: row["unfairness"],
        )
        assert payload["most_unfair_attribute"] == best["attribute"]
        assert json.loads(json.dumps(payload)) == payload

    def test_breakdown_with_no_attributes_is_an_error_envelope(self, service):
        # An empty attribute list must travel as a structured error, not a
        # raised ValueError that would kill a whole batch.
        result = service.execute(
            BreakdownRequest(dataset="table1", function="table1-f", attributes=())
        )
        assert result.ok is False
        assert result.error["code"] == "service"
        assert "at least one protected attribute" in result.error["message"]
        batch = BatchExecutor(service).run([
            QuantifyRequest(dataset="table1", function="table1-f"),
            BreakdownRequest(dataset="table1", function="table1-f", attributes=()),
        ])
        assert [r.ok for r in batch] == [True, False]

    def test_sweep_matches_serial_quantify_byte_for_byte(self):
        weights = [
            {"Language Test": alpha, "Rating": 1.0 - alpha}
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        sweep_service = FairnessService()
        sweep_service.register_dataset(
            crowdsourcing_marketplace(size=120, seed=13).workers, name="pop"
        )
        sweep_service.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        result = sweep_service.execute(
            SweepRequest(dataset="pop", function="balanced",
                         weights=tuple(weights), min_partition_size=3)
        )
        assert result.ok and len(result.payload["points"]) == 5
        # Each point's search, favoured groups and mean score share one
        # pooled store, looked up once, and one materialized vector.
        stats = sweep_service.store_stats
        assert stats.misses == 5
        assert stats.hits == 0
        assert stats.scoring_passes == 5

        # Byte-identical to serial quantify calls over the same variants.
        dataset = sweep_service.dataset("pop")
        base = sweep_service.function("balanced")
        serial_values = []
        for index, vector in enumerate(weights):
            variant = base.with_weights(name=f"balanced@sweep{index}", **vector)
            served = quantify(
                dataset, variant, min_partition_size=3,
                store=ScoreStore(dataset, variant),
            )
            serial_values.append(served.unfairness)
        sweep_values = [point["unfairness"] for point in result.payload["points"]]
        assert json.dumps(sweep_values) == json.dumps(serial_values)

    def test_explicit_sweep_vectors_replace_base_weights(self, service):
        # A partial vector fully specifies the variant: omitted attributes
        # get weight 0, nothing is merged in from the base function.
        result = service.execute(
            SweepRequest(dataset="table1", function="table1-f",
                         weights=({"Rating": 1.0},))
        )
        assert result.ok
        assert result.payload["points"][0]["weights"] == {"Rating": 1.0}

    def test_sweep_vector_whose_sum_overflows_is_a_scoring_error(self, service):
        # Normalised by an infinite sum, both weights used to become 0.0 and
        # the sweep answered with everyone scored 0.
        result = service.execute(
            SweepRequest(dataset="table1", function="table1-f",
                         weights=({"Language Test": 1e308, "Rating": 1e308},))
        )
        assert result.ok is False
        assert result.error["code"] == "scoring"
        assert "sum is not finite" in result.error["message"]

    def test_sweep_rejects_opaque_functions(self, service):
        from repro.scoring.rank import OpaqueScoringFunction

        service.register_function(
            OpaqueScoringFunction(
                LinearScoringFunction(TABLE1_WEIGHTS, name="hidden"), name="blackbox"
            )
        )
        result = service.execute(SweepRequest(dataset="table1", function="blackbox"))
        assert result.ok is False
        assert "linear scoring function" in result.error["message"]

    def test_end_user_request_payload(self, service):
        result = service.execute(
            EndUserRequest(
                group={"Gender": "Female"},
                marketplaces=("crowdsourcing-sim",),
                job="Content writing",
            )
        )
        assert result.ok
        outcome = result.payload["outcomes"][0]
        assert outcome["marketplace"] == "crowdsourcing-sim"
        assert outcome["group_size"] > 0
        assert outcome["score_gap"] == pytest.approx(
            outcome["mean_score"] - outcome["population_mean_score"]
        )
        assert result.payload["best_marketplace"] == "crowdsourcing-sim"

    def test_end_user_request_without_matching_job_errors(self, service):
        result = service.execute(
            EndUserRequest(group={"Gender": "Female"},
                           marketplaces=("crowdsourcing-sim",), job="Nope")
        )
        assert result.ok is False

    def test_job_owner_request_payload(self, service):
        result = service.execute(
            JobOwnerRequest(marketplace="crowdsourcing-sim", job="Content writing",
                            sweep_steps=3, min_partition_size=3)
        )
        assert result.ok
        names = [variant["variant"] for variant in result.payload["variants"]]
        assert result.payload["recommended"] in names
        unfairness_by_name = {
            variant["variant"]: variant["unfairness"]
            for variant in result.payload["variants"]
        }
        assert unfairness_by_name[result.payload["recommended"]] == min(
            unfairness_by_name.values()
        )

    def test_new_kinds_are_cached_by_content(self, service):
        request = BreakdownRequest(dataset="table1", function="table1-f")
        cold = service.execute(request)
        warm = service.execute(
            BreakdownRequest(dataset="table1", function="table1-f")
        )
        assert cold.cached is False and warm.cached is True
        assert cold.canonical() == warm.canonical()


class TestClientParity:
    def test_client_and_raw_requests_share_cache_entries(self, service):
        client = FairnessClient(service)
        served = client.quantify("table1", "table1-f", min_partition_size=2)
        raw = service.execute(
            QuantifyRequest(dataset="table1", function="table1-f",
                            min_partition_size=2)
        )
        assert served.cached is False and raw.cached is True
        assert served.key == raw.key
        assert served.canonical() == raw.canonical()

    def test_client_covers_every_kind(self, service):
        client = FairnessClient(service)
        assert client.audit("crowdsourcing-sim", min_partition_size=3).ok
        assert client.compare("table1", ["table1-f"]).ok
        assert client.breakdown("table1", "table1-f").ok
        assert client.sweep("table1", "table1-f", steps=3).ok
        assert client.end_user({"Gender": "Female"}, ["crowdsourcing-sim"],
                               "Content writing").ok
        assert client.job_owner("crowdsourcing-sim", "Content writing",
                                sweep_steps=3, min_partition_size=3).ok

    def test_client_raises_on_error_envelopes_by_default(self, service):
        client = FairnessClient(service)
        with pytest.raises(ServiceError, match="unknown dataset"):
            client.quantify("missing", "table1-f")

    def test_client_can_hand_back_error_envelopes(self, service):
        client = FairnessClient(service, raise_errors=False)
        result = client.quantify("missing", "table1-f")
        assert result.ok is False and result.error["code"] == "service"


class TestCatalogUnification:
    def test_engine_registration_is_servable_via_raw_requests(self):
        """Acceptance: register via the engine, resolve via a wire request."""
        engine = FaiRankEngine()
        engine.register_dataset(load_example_table1(), name="table1")
        engine.register_function(
            LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f")
        )
        result = engine.service.execute(
            QuantifyRequest(dataset="table1", function="table1-f")
        )
        assert result.ok
        direct = quantify(engine.dataset("table1"), engine.function("table1-f"))
        assert result.payload["unfairness"] == pytest.approx(direct.unfairness)

    def test_engine_holds_no_private_registries(self):
        engine = FaiRankEngine()
        assert not hasattr(engine, "_datasets")
        assert not hasattr(engine, "_functions")
        assert engine.catalog is engine.service.catalog

    def test_service_registration_is_visible_to_the_engine(self, service):
        engine = FaiRankEngine(service=service)
        assert "table1" in engine.dataset_names
        panel = engine.open_panel(
            SessionConfig("table1", "table1-f", min_partition_size=2)
        )
        assert panel.result.unfairness >= 0.0

    def test_engine_marketplace_registration_serves_all_role_requests(self):
        engine = FaiRankEngine()
        engine.register_marketplace(crowdsourcing_marketplace(size=80, seed=13))
        for request in (
            AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=3),
            EndUserRequest(group={"Gender": "Female"},
                           marketplaces=("crowdsourcing-sim",),
                           job="Content writing"),
            JobOwnerRequest(marketplace="crowdsourcing-sim",
                            job="Content writing", sweep_steps=3,
                            min_partition_size=3),
        ):
            assert engine.service.execute(request).ok

    def test_engine_role_shortcuts_resolve_registered_names(self):
        engine = FaiRankEngine()
        engine.register_marketplace(crowdsourcing_marketplace(size=80, seed=13))
        report = engine.auditor_view("crowdsourcing-sim", min_partition_size=3)
        assert len(report.audits) >= 1
        table = engine.end_user_view({"Gender": "Female"},
                                     ["crowdsourcing-sim"], "Content writing")
        assert len(table) == 1

    def test_formulations_are_registrable_and_resolvable(self, service):
        from repro.core.formulations import LEAST_UNFAIR_AVG_EMD

        name = service.register_formulation(LEAST_UNFAIR_AVG_EMD)
        assert name == LEAST_UNFAIR_AVG_EMD.name
        assert name in service.catalog.names(ResourceKind.FORMULATION)
        assert service.formulation(name) is LEAST_UNFAIR_AVG_EMD
        with pytest.raises(ServiceError, match="unknown formulation"):
            service.formulation("nope")

    def test_fingerprint_addressing_resolves_requests(self, service):
        fingerprint = service.catalog.get(ResourceKind.DATASET, "table1").fingerprint
        result = service.execute(
            QuantifyRequest(dataset=fingerprint[:12], function="table1-f")
        )
        assert result.ok


class TestEngineReplaceFreeze:
    def test_silent_clobbering_is_gone(self):
        engine = FaiRankEngine()
        engine.register_function(LinearScoringFunction({"Rating": 1.0}, name="job-f"))
        with pytest.raises(SessionError, match="replace=True"):
            engine.register_function(
                LinearScoringFunction({"Language Test": 1.0}, name="job-f")
            )
        # The original registration is untouched.
        assert engine.function("job-f").weights == {"Rating": 1.0}

    def test_identical_reregistration_is_idempotent(self):
        engine = FaiRankEngine()
        engine.register_function(LinearScoringFunction({"Rating": 1.0}, name="job-f"))
        engine.register_function(LinearScoringFunction({"Rating": 1.0}, name="job-f"))
        assert engine.function_names.count("job-f") == 1

    def test_explicit_replace_still_works(self):
        engine = FaiRankEngine()
        engine.register_function(LinearScoringFunction({"Rating": 1.0}, name="job-f"))
        engine.register_function(
            LinearScoringFunction({"Language Test": 1.0}, name="job-f"), replace=True
        )
        assert "Language Test" in engine.function("job-f").weights

    def test_frozen_functions_cannot_be_replaced(self):
        engine = FaiRankEngine()
        engine.register_function(
            LinearScoringFunction({"Rating": 1.0}, name="pinned"), freeze=True
        )
        with pytest.raises(SessionError, match="frozen"):
            engine.register_function(
                LinearScoringFunction({"Language Test": 1.0}, name="pinned"),
                replace=True,
            )


class TestServeBatchV2CLI:
    def test_serve_batch_executes_a_v1_file(self, tmp_path, capsys):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "requests": [
                {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
                {"kind": "audit", "marketplace": "crowdsourcing-sim",
                 "min_partition_size": 5},
            ]
        }))
        assert main(["serve-batch", str(path), "--market-size", "60"]) == 0
        output = capsys.readouterr().out
        assert "quantify" in output and "audit" in output

    def test_serve_batch_executes_every_v2_kind(self, tmp_path, capsys):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps([
            {"protocol": 2, "kind": "quantify", "dataset": "table1",
             "function": "table1-f"},
            {"protocol": 2, "kind": "compare", "dataset": "table1",
             "functions": ["table1-f", "balanced"]},
            {"protocol": 2, "kind": "breakdown", "dataset": "table1",
             "function": "table1-f"},
            {"protocol": 2, "kind": "sweep", "dataset": "table1",
             "function": "table1-f", "steps": 3},
            {"protocol": 2, "kind": "end_user", "group": {"Gender": "Female"},
             "marketplaces": ["crowdsourcing-sim"], "job": "Content writing"},
            {"protocol": 2, "kind": "job_owner", "marketplace": "crowdsourcing-sim",
             "job": "Content writing", "sweep_steps": 3, "min_partition_size": 3},
            {"protocol": 2, "kind": "audit", "marketplace": "crowdsourcing-sim",
             "min_partition_size": 5},
        ]))
        assert main(["serve-batch", str(path), "--market-size", "60"]) == 0
        output = capsys.readouterr().out
        for kind in ("quantify", "compare", "breakdown", "sweep", "end_user",
                     "job_owner", "audit"):
            assert kind in output
        assert "error" not in output.split("cache:")[0].replace("errors:", "")

    def test_serve_batch_reports_error_envelopes(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([
            {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
            {"kind": "quantify", "dataset": "missing", "function": "table1-f"},
        ]))
        # Exit 1: scripts must see partial failure without parsing stdout.
        assert main(["serve-batch", str(path), "--market-size", "60"]) == 1
        output = capsys.readouterr().out
        assert "error" in output
        assert "unknown dataset 'missing'" in output
        assert "1 request(s) returned an error envelope" in output

    def test_catalog_command_lists_resources(self, capsys):
        assert main(["catalog", "--market-size", "60"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output and "dataset" in output
        assert "crowdsourcing-sim" in output and "marketplace" in output
        assert "formulation" in output

    def test_catalog_command_checks_a_batch_file(self, tmp_path, capsys):
        path = tmp_path / "check.json"
        path.write_text(json.dumps([
            {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
            {"kind": "quantify", "dataset": "missing", "function": "table1-f"},
        ]))
        assert main(["catalog", "--market-size", "60", "--requests", str(path)]) == 0
        output = capsys.readouterr().out
        assert "does not resolve" in output
        assert "1 reference(s) are missing" in output

    def test_catalog_command_with_fully_resolvable_file(self, tmp_path, capsys):
        path = tmp_path / "good.json"
        path.write_text(json.dumps([
            {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
        ]))
        assert main(["catalog", "--market-size", "60", "--requests", str(path)]) == 0
        assert "every request resolves" in capsys.readouterr().out
