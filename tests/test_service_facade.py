"""FairnessService facade: registry, store pool, requests, engine + CLI."""

from __future__ import annotations

import json

import pytest

from repro.catalog import ResourceKind
from repro.cli import main
from repro.core.quantify import quantify
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.errors import ServiceError
from repro.experiments.workloads import crowdsourcing_marketplace
from repro.marketplace.generator import CrowdsourcingGenerator
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import OpaqueScoringFunction
from repro.service import (
    AuditRequest,
    CompareRequest,
    EndUserRequest,
    FairnessService,
    JobOwnerRequest,
    QuantifyRequest,
)
from repro.session.config import SessionConfig
from repro.session.engine import FaiRankEngine


@pytest.fixture()
def service():
    service = FairnessService()
    service.register_dataset(load_example_table1(), name="table1")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    return service


class TestRegistry:
    def test_unknown_names_raise_service_errors(self, service):
        with pytest.raises(ServiceError, match="unknown dataset"):
            service.dataset("nope")
        with pytest.raises(ServiceError, match="unknown scoring function"):
            service.function("nope")
        with pytest.raises(ServiceError, match="unknown marketplace"):
            service.marketplace("nope")

    def test_register_marketplace_registers_workers_and_functions(self, service):
        market = crowdsourcing_marketplace(size=80, seed=13)
        name = service.register_marketplace(market)
        assert name == "crowdsourcing-sim"
        assert "crowdsourcing-sim" in service.dataset_names
        assert "Content writing" in service.function_names
        assert "crowdsourcing-sim" in service.catalog.names(ResourceKind.MARKETPLACE)


class TestCachedKernels:
    def test_semantically_identical_objects_hit_the_cache(self, service):
        first = service.score_store(
            load_example_table1(), LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f")
        )
        again = service.score_store(
            load_example_table1(), LinearScoringFunction(TABLE1_WEIGHTS, name="renamed")
        )
        assert again is first
        stats = service.store_stats
        assert (stats.misses, stats.hits) == (1, 1)

    def test_different_formulation_misses(self, service):
        most = service.execute(QuantifyRequest(dataset="table1", function="table1-f"))
        least = service.execute(
            QuantifyRequest(dataset="table1", function="table1-f", objective="least_unfair")
        )
        assert least.cached is False and least.key != most.key
        # Both searches ran over the one pooled scoring pass.
        assert service.store_stats.scoring_passes == 1


class TestRoleWorkflows:
    @pytest.fixture()
    def market_service(self):
        service = FairnessService()
        service.register_marketplace(crowdsourcing_marketplace(size=80, seed=13))
        return service

    @staticmethod
    def _twice(service, request):
        first = service.execute(request)
        second = service.execute(request)
        assert first.ok and not first.cached
        assert second.cached and second.payload_json is first.payload_json
        return first

    def test_audit_marketplace_cached(self, market_service):
        first = self._twice(
            market_service, AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=3)
        )
        assert {audit["job"] for audit in first.payload["jobs"]} == {
            "Content writing", "Data labelling", "Balanced microtasks",
            "English transcription",
        }

    def test_explore_job_cached(self, market_service):
        first = self._twice(
            market_service,
            JobOwnerRequest(marketplace="crowdsourcing-sim", job="Content writing",
                            sweep_steps=3, min_partition_size=3),
        )
        assert first.payload["variants"]

    def test_end_user_view_cached(self, market_service):
        self._twice(
            market_service,
            EndUserRequest(group={"Gender": "Female"}, marketplaces=("crowdsourcing-sim",),
                           job="Data labelling"),
        )


class TestRequestExecution:
    def test_quantify_payload_matches_library(self, service):
        result = service.execute(QuantifyRequest(dataset="table1", function="table1-f"))
        direct = quantify(service.dataset("table1"), service.function("table1-f"))
        assert result.kind == "quantify"
        assert result.payload["unfairness"] == pytest.approx(direct.unfairness)
        assert [p["label"] for p in result.payload["partitions"]] == list(
            direct.partitioning.labels
        )
        # The payload survives real JSON serialisation.
        assert json.loads(json.dumps(result.payload)) == result.payload

    def test_ranks_only_changes_key_and_result(self, service):
        scored = service.execute(QuantifyRequest(dataset="table1", function="table1-f"))
        ranked = service.execute(
            QuantifyRequest(dataset="table1", function="table1-f", use_ranks_only=True)
        )
        assert scored.key != ranked.key

    def test_opaque_function_is_audited_via_ranks(self, service):
        service.register_function(
            OpaqueScoringFunction(
                LinearScoringFunction(TABLE1_WEIGHTS, name="hidden"), name="blackbox"
            )
        )
        result = service.execute(QuantifyRequest(dataset="table1", function="blackbox"))
        assert result.payload["unfairness"] >= 0.0

    def test_audit_request_payload(self):
        service = FairnessService()
        service.register_marketplace(crowdsourcing_marketplace(size=80, seed=13))
        result = service.execute(
            AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=3)
        )
        assert result.kind == "audit"
        assert len(result.payload["jobs"]) == 4
        assert result.payload["most_unfair_job"] in {job["job"] for job in result.payload["jobs"]}
        single = service.execute(
            AuditRequest(marketplace="crowdsourcing-sim", job="Content writing",
                         min_partition_size=3)
        )
        assert [job["job"] for job in single.payload["jobs"]] == ["Content writing"]

    def test_compare_request_payload(self, service):
        service.register_function(
            LinearScoringFunction({"Language Test": 1.0}, name="language-only")
        )
        result = service.execute(
            CompareRequest(dataset="table1", functions=("table1-f", "language-only"))
        )
        assert result.kind == "compare"
        assert [row["function"] for row in result.payload["functions"]] == [
            "table1-f", "language-only",
        ]
        names = {row["function"] for row in result.payload["functions"]}
        assert result.payload["fairest"] in names
        assert result.payload["most_unfair"] in names

    def test_same_weights_under_new_name_share_the_kernel_but_not_the_payload(self, service):
        service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="renamed"))
        first = service.execute(QuantifyRequest(dataset="table1", function="table1-f"))
        second = service.execute(QuantifyRequest(dataset="table1", function="renamed"))
        # Distinct request keys (payloads echo the requested name) ...
        assert first.key != second.key
        assert second.payload["function"] == "renamed"
        # ... but the same unfairness, scored through the one pooled store.
        assert second.payload["unfairness"] == pytest.approx(first.payload["unfairness"])
        assert service.store_stats.scoring_passes == 1

    def test_mutating_a_payload_does_not_corrupt_the_cache(self, service):
        request = QuantifyRequest(dataset="table1", function="table1-f")
        first = service.execute(request)
        first.payload["partitions"].clear()
        first.payload.pop("pairwise")
        second = service.execute(request)
        assert second.cached is True
        assert second.payload["partitions"] and "pairwise" in second.payload

    def test_precomputed_key_is_honoured(self, service):
        request = QuantifyRequest(dataset="table1", function="table1-f")
        key = service.request_key(request)
        result = service.execute(request, key)
        assert result.key == key


class TestEngineIntegration:
    def test_open_panel_uses_the_service_cache(self):
        engine = FaiRankEngine()
        dataset = CrowdsourcingGenerator(seed=13).generate(60, name="pop")
        engine.register_dataset(dataset)
        engine.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        config = SessionConfig(dataset_name="pop", function_name="balanced",
                               min_partition_size=3)
        first = engine.open_panel(config)
        second = engine.open_panel(config)
        stats = engine.service.store_stats
        assert stats.scoring_passes == 1 and stats.hits >= 1
        assert first.result.unfairness == pytest.approx(second.result.unfairness)
        assert first.panel_id != second.panel_id  # panels stay distinct sessions

    def test_engines_can_share_a_service(self):
        shared = FairnessService()
        dataset = CrowdsourcingGenerator(seed=13).generate(60, name="pop")
        function = LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5},
                                         name="balanced")
        config = SessionConfig(dataset_name="pop", function_name="balanced",
                               min_partition_size=3)
        for _ in range(2):
            engine = FaiRankEngine(service=shared)
            engine.register_dataset(dataset)
            engine.register_function(function)
            engine.open_panel(config)
        stats = shared.store_stats
        assert stats.scoring_passes == 1 and stats.hits >= 1


class TestServeBatchCLI:
    def test_serve_batch_runs_a_request_file(self, tmp_path, capsys):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps({
            "requests": [
                {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
                {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
                {"kind": "audit", "marketplace": "crowdsourcing-sim",
                 "min_partition_size": 5},
            ]
        }))
        exit_code = main(["serve-batch", str(path), "--market-size", "80",
                          "--repeat", "2"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "quantify" in output and "audit" in output
        assert "hit" in output  # the second round is served from the cache
        assert "cache:" in output
        assert "score store:" in output  # materialization stats are reported
        assert "scoring pass(es)" in output

    def test_serve_batch_rejects_bad_files(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        assert main(["serve-batch", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        path.write_text("{not json")
        assert main(["serve-batch", str(path)]) == 2
        assert main(["serve-batch", str(tmp_path / "missing.json")]) == 2

    def test_serve_batch_synthetic_datasets(self, tmp_path, capsys):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([
            {"kind": "quantify", "dataset": "synthetic-60", "function": "balanced",
             "min_partition_size": 3},
        ]))
        exit_code = main(["serve-batch", str(path), "--market-size", "60",
                          "--synthetic", "60"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "quantify" in output and "miss" in output
        assert "executed 1 request(s) per round, 1 round(s)" in output
