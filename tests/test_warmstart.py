"""Warm-start persistence: the result cache round-trips, drift/truncation fall back cold."""

from __future__ import annotations

import errno
import io
import json
from pathlib import Path

import pytest

from repro import bundle
from repro.errors import BundleError
from repro.experiments.workloads import synthetic_population
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.scoring.linear import LinearScoringFunction
from repro.service import (
    BreakdownRequest,
    FairnessService,
    QuantifyRequest,
    SweepRequest,
    combine_fingerprints,
    fingerprint_dataset,
    fingerprint_formulation,
    fingerprint_function,
    fingerprint_value,
)


def _skip_count(reason: str) -> float:
    return get_registry().counter("fairank_warmstart_skips_total").value(reason=reason)


def _service() -> FairnessService:
    service = FairnessService()
    service.register_dataset(synthetic_population(size=300, seed=7), name="pop")
    service.register_function(
        LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    )
    return service


_REQUEST = QuantifyRequest(dataset="pop", function="balanced", min_partition_size=5)


def _files(directory: Path) -> set:
    return {
        path.relative_to(directory).as_posix()
        for path in directory.rglob("*") if path.is_file()
    }


def _logging_events(call):
    """``call()`` and the events it logged."""
    captured = io.StringIO()
    logger = get_logger()
    logger.stream = captured
    try:
        returned = call()
    finally:
        logger.stream = None
    return returned, [json.loads(line) for line in captured.getvalue().splitlines()]


def _load_logging_events(service: FairnessService, directory: Path):
    """``service.load_warm_state(directory)`` and the events it logged."""
    return _logging_events(lambda: service.load_warm_state(directory))


def _edit_results(directory: Path, edit) -> None:
    results_file = directory / "results.json"
    document = json.loads(results_file.read_text(encoding="utf-8"))
    edit(document)
    results_file.write_text(json.dumps(document), encoding="utf-8")


class TestServiceWarmState:
    def test_round_trip_restores_results(self, tmp_path):
        warm = _service()
        reference = warm.execute(_REQUEST)
        manifest = warm.save_warm_state(tmp_path)
        assert manifest is not None and "stores" not in manifest
        # The bundle holds the manifest and the result-cache bytes, nothing else.
        assert _files(tmp_path) == {"manifest.json", "results.json"}

        restarted = _service()
        assert restarted.load_warm_state(tmp_path) == {"results": 1}
        # No score store is restored: the pool starts empty...
        assert restarted.store_stats.stores == 0
        # ...the repeated request is a byte-identical cache hit with no
        # scoring pass...
        replay = restarted.execute(_REQUEST)
        assert replay.cached
        assert replay.canonical() == reference.canonical()
        assert restarted.store_stats.scoring_passes == 0
        # ...and a *new* formulation over the same pair scores once, cold,
        # byte-identically.
        fresh_request = QuantifyRequest(
            dataset="pop", function="balanced",
            aggregation="maximum", min_partition_size=5,
        )
        novel = restarted.execute(fresh_request)
        assert not novel.cached and novel.error is None
        assert restarted.store_stats.scoring_passes == 1
        assert novel.canonical() == _service().execute(fresh_request).canonical()

    def test_restored_entries_carry_the_bytes_encoded_at_compute_time(self, tmp_path):
        warm = _service()
        for request in (
            _REQUEST,
            BreakdownRequest(dataset="pop", function="balanced"),
            SweepRequest(dataset="pop", function="balanced", steps=3),
        ):
            assert warm.execute(request).ok
        computed = list(warm.cache.items())
        assert len(computed) == 3
        assert all(isinstance(value, bytes) for _, value in computed)
        warm.save_warm_state(tmp_path)

        restarted = _service()
        assert restarted.load_warm_state(tmp_path)["results"] == 3
        restored = list(restarted.cache.items())
        assert restored == computed
        replay = restarted.execute(_REQUEST)
        assert replay.cached
        assert replay.payload_json == dict(computed)[replay.key]

    def test_result_entries_with_a_cost_field_still_load(self, tmp_path):
        # An entry field the loader does not read (an older build's "cost")
        # is ignored.
        warm = _service()
        reference = warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)

        def add_cost(document):
            for entry in document["results"]:
                entry["cost"] = 42.0

        _edit_results(tmp_path, add_cost)
        restarted = _service()
        assert restarted.load_warm_state(tmp_path) == {"results": 1}
        replay = restarted.execute(_REQUEST)
        assert replay.cached and replay.payload_json == reference.payload_json
        assert restarted.store_stats.scoring_passes == 0

    def test_broken_entries_are_skipped_and_the_rest_load(self, tmp_path):
        warm = _service()
        reference = warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)
        _edit_results(
            tmp_path,
            lambda document: document["results"].insert(0, {"key": "k", "payload": [1, 2]}),
        )

        before = _skip_count("manifest")
        restarted = _service()
        assert restarted.load_warm_state(tmp_path) == {"results": 1}
        assert _skip_count("manifest") == before + 1
        assert "k" not in restarted.cache
        replay = restarted.execute(_REQUEST)
        assert replay.cached
        assert replay.canonical() == reference.canonical()

    def test_a_smaller_cache_keeps_the_most_recently_used_entries(self, tmp_path):
        warm = _service()
        requests = (
            _REQUEST,
            BreakdownRequest(dataset="pop", function="balanced"),
            SweepRequest(dataset="pop", function="balanced", steps=3),
        )
        for request in requests:
            assert warm.execute(request).ok
        warm.save_warm_state(tmp_path)

        restarted = FairnessService(cache_size=2)
        restarted.register_dataset(synthetic_population(size=300, seed=7), name="pop")
        restarted.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        restarted.load_warm_state(tmp_path)
        # Entries load least recently used first, so the LRU drops the oldest.
        assert list(restarted.cache.items()) == list(warm.cache.items())[1:]
        assert restarted.execute(requests[2]).cached
        assert restarted.execute(requests[1]).cached
        oldest = restarted.execute(requests[0])
        assert not oldest.cached
        assert oldest.canonical() == warm.execute(requests[0]).canonical()

    def test_an_empty_cache_saves_a_bundle_that_loads_quietly(self, tmp_path):
        manifest = _service().save_warm_state(tmp_path)
        assert manifest is not None
        assert json.loads((tmp_path / "results.json").read_text(encoding="utf-8")) == {
            "results": []
        }
        counter = get_registry().counter("fairank_warmstart_bytes_total")
        skips_before = _skip_count("manifest")
        bytes_before = counter.value()
        loaded, events = _load_logging_events(_service(), tmp_path)
        assert loaded == {"results": 0}
        assert _skip_count("manifest") == skips_before
        assert counter.value() == bytes_before
        assert not [event for event in events if event["event"] == "warmstart_load"]

    def test_manifest_names_the_catalog_and_the_results_file_only(self, tmp_path):
        warm = _service()
        warm.execute(_REQUEST)
        manifest = warm.save_warm_state(tmp_path)
        on_disk = json.loads((tmp_path / bundle.MANIFEST).read_text(encoding="utf-8"))
        assert on_disk == manifest
        assert manifest["format"] == bundle.WARM_START.format
        assert manifest["version"] == 4
        assert manifest["results"] == "results.json"
        assert set(manifest) == {"format", "version", "catalog_fingerprint", "results"}
        assert len(manifest["catalog_fingerprint"]) == 64

    def test_save_logs_one_event_with_the_result_count(self, tmp_path):
        warm = _service()
        warm.execute(_REQUEST)
        warm.execute(BreakdownRequest(dataset="pop", function="balanced"))
        _, events = _logging_events(lambda: warm.save_warm_state(tmp_path))
        [save] = [event for event in events if event["event"] == "warmstart_save"]
        assert save["results"] == 2
        assert save["directory"] == str(tmp_path)

    def test_load_counts_each_restored_result(self, tmp_path):
        warm = _service()
        warm.execute(_REQUEST)
        warm.execute(BreakdownRequest(dataset="pop", function="balanced"))
        warm.save_warm_state(tmp_path)
        counter = get_registry().counter("fairank_warmstart_loads_total")
        before = counter.value(component="result")
        assert _service().load_warm_state(tmp_path) == {"results": 2}
        assert counter.value(component="result") == before + 2

    def test_results_saved_under_per_kind_keys_load_as_unserved_orphans(
        self, tmp_path
    ):
        # A key that no request derives (here: the old per-kind derivation,
        # content fingerprints plus a hand-picked parameter dict) still
        # loads, matches no request, and ages out of the LRU.
        warm = _service()
        reference = warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)
        per_kind_key = combine_fingerprints(
            "request-quantify",
            fingerprint_dataset(warm.dataset(_REQUEST.dataset)),
            fingerprint_function(warm.function(_REQUEST.function)),
            fingerprint_formulation(_REQUEST.formulation()),
            fingerprint_value(
                {
                    "function_name": _REQUEST.function,
                    "attributes": None,
                    "max_depth": None,
                    "min_partition_size": _REQUEST.min_partition_size,
                }
            ),
        )
        results_file = tmp_path / "results.json"
        document = json.loads(results_file.read_text(encoding="utf-8"))
        for entry in document["results"]:
            entry["key"] = per_kind_key
        results_file.write_text(json.dumps(document), encoding="utf-8")

        restarted = _service()
        assert restarted.load_warm_state(tmp_path) == {"results": 1}
        assert per_kind_key in restarted.cache
        replay = restarted.execute(_REQUEST)
        assert not replay.cached
        assert replay.payload_json == reference.payload_json
        assert replay.canonical() == reference.canonical()
        assert restarted.store_stats.scoring_passes == 1

    def test_warm_dir_parameter_is_used_by_default(self, tmp_path):
        warm = _service()
        warm.warm_dir = tmp_path
        warm.execute(_REQUEST)
        warm.save_warm_state()
        restarted = FairnessService(warm_dir=tmp_path)
        restarted.register_dataset(synthetic_population(size=300, seed=7), name="pop")
        restarted.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        assert restarted.load_warm_state() == {"results": 1}

    def test_without_warm_dir_is_a_noop(self, tmp_path):
        service = _service()
        assert service.load_warm_state() is None
        assert service.save_warm_state() is None

    def test_empty_directory_is_a_quiet_cold_boot(self, tmp_path):
        before = _skip_count("manifest")
        assert _service().load_warm_state(tmp_path) == {"results": 0}
        assert _skip_count("manifest") == before  # no bundle is not an anomaly

    def test_truncated_results_fall_back_cold_with_metric_and_event(self, tmp_path):
        warm = _service()
        reference = warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)
        results = tmp_path / "results.json"
        text = results.read_text(encoding="utf-8")
        results.write_text(text[: len(text) // 2], encoding="utf-8")

        before = _skip_count("manifest")
        restarted = _service()
        loaded, events = _load_logging_events(restarted, tmp_path)
        assert loaded == {"results": 0}
        assert _skip_count("manifest") == before + 1
        skips = [event for event in events if event["event"] == "warmstart_skip"]
        assert skips and skips[0]["reason"] == "manifest"
        # The degraded service still answers — cold, and byte-identically.
        result = restarted.execute(_REQUEST)
        assert not result.cached and result.error is None
        assert result.canonical() == reference.canonical()

    def test_catalog_drift_skips_results(self, tmp_path):
        warm = _service()
        reference = warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)

        drifted = _service()
        drifted.register_function(
            LinearScoringFunction({"Language Test": 0.9, "Rating": 0.1}, name="skewed")
        )
        before = _skip_count("catalog_drift")
        # The result cache is keyed on the whole catalog: one more function
        # drops every saved answer.
        assert drifted.load_warm_state(tmp_path) == {"results": 0}
        assert _skip_count("catalog_drift") == before + 1
        assert len(drifted.cache) == 0
        result = drifted.execute(_REQUEST)
        assert not result.cached
        assert result.canonical() == reference.canonical()

    def test_dataset_drift_skips_results(self, tmp_path):
        # Same dataset name, other rows: every saved answer is dropped.
        warm = _service()
        warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)

        drifted = FairnessService()
        drifted.register_dataset(synthetic_population(size=300, seed=8), name="pop")
        drifted.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        before = _skip_count("catalog_drift")
        assert drifted.load_warm_state(tmp_path) == {"results": 0}
        assert _skip_count("catalog_drift") == before + 1
        result = drifted.execute(_REQUEST)
        assert not result.cached and result.error is None

    def test_function_drift_skips_results(self, tmp_path):
        # Same function name, other weights: every saved answer is dropped.
        warm = _service()
        reference = warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)

        drifted = FairnessService()
        drifted.register_dataset(synthetic_population(size=300, seed=7), name="pop")
        drifted.register_function(
            LinearScoringFunction({"Language Test": 0.7, "Rating": 0.3}, name="balanced")
        )
        before = _skip_count("catalog_drift")
        assert drifted.load_warm_state(tmp_path) == {"results": 0}
        assert _skip_count("catalog_drift") == before + 1
        result = drifted.execute(_REQUEST)
        assert not result.cached and result.error is None
        assert result.payload_json != reference.payload_json

    def test_catalog_fingerprint_ignores_registration_order(self, tmp_path):
        warm = _service()
        reference = warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)

        reordered = FairnessService()
        reordered.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        reordered.register_dataset(synthetic_population(size=300, seed=7), name="pop")
        assert reordered.load_warm_state(tmp_path) == {"results": 1}
        replay = reordered.execute(_REQUEST)
        assert replay.cached
        assert replay.canonical() == reference.canonical()

    def test_skipped_bundle_restores_no_bytes(self, tmp_path):
        warm = _service()
        warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)
        drifted = _service()
        drifted.register_function(
            LinearScoringFunction({"Language Test": 0.9, "Rating": 0.1}, name="skewed")
        )
        counter = get_registry().counter("fairank_warmstart_bytes_total")
        before = counter.value()
        assert drifted.load_warm_state(tmp_path) == {"results": 0}
        assert counter.value() == before

    def test_foreign_bundle_directory_is_skipped(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": "something-else", "version": 1}), encoding="utf-8"
        )
        before = _skip_count("manifest")
        assert _service().load_warm_state(tmp_path) == {"results": 0}
        assert _skip_count("manifest") == before + 1

    def _assert_old_version_falls_back_cold(self, tmp_path, version):
        warm = _service()
        reference = warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)
        manifest_path = tmp_path / bundle.MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["version"] == bundle.WARM_START.version == 4
        manifest["version"] = version
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        with pytest.raises(BundleError) as refused:
            with bundle.open_manifest(tmp_path, bundle.WARM_START):
                pass
        assert refused.value.reason == "manifest"
        assert f"warm-start bundle version {version}" in str(refused.value)
        assert "reads version 4" in str(refused.value)

        before = _skip_count("manifest")
        restarted = _service()
        assert restarted.load_warm_state(tmp_path) == {"results": 0}
        assert _skip_count("manifest") == before + 1
        cold = restarted.execute(_REQUEST)
        assert not cold.cached
        assert cold.canonical() == reference.canonical()
        assert restarted.store_stats.scoring_passes == 1

    def test_version_1_bundle_falls_back_cold(self, tmp_path):
        # Version-1 bundles record row-hash dataset fingerprints: the whole
        # bundle is refused (reason "manifest"), never re-fingerprinted.
        self._assert_old_version_falls_back_cold(tmp_path, 1)

    def test_version_2_bundle_falls_back_cold(self, tmp_path):
        # Version-2 bundles may hold 2-histogram answers from before the one
        # EMD kernel, which differ in their last bits: refused, never served.
        self._assert_old_version_falls_back_cold(tmp_path, 2)

    def test_version_3_bundle_falls_back_cold(self, tmp_path):
        # Version-3 bundles also list score-store bundles, which this build
        # no longer reads: refused whole, and the service boots cold.
        self._assert_old_version_falls_back_cold(tmp_path, 3)

    def test_load_reports_bytes_restored(self, tmp_path):
        warm = _service()
        warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)
        counter = get_registry().counter("fairank_warmstart_bytes_total")
        before = counter.value()
        _service().load_warm_state(tmp_path)
        assert counter.value() - before == (tmp_path / "results.json").stat().st_size


def _two_function_service() -> FairnessService:
    service = FairnessService()
    service.register_dataset(synthetic_population(size=300, seed=7), name="pop")
    service.register_function(
        LinearScoringFunction({"Language Test": 0.9, "Rating": 0.1}, name="alpha")
    )
    service.register_function(
        LinearScoringFunction({"Language Test": 0.1, "Rating": 0.9}, name="beta")
    )
    return service


def _pair_request(function: str, **options) -> QuantifyRequest:
    return QuantifyRequest(dataset="pop", function=function, min_partition_size=5, **options)


class TestReSave:
    def test_failed_re_save_reads_as_no_bundle(self, tmp_path, monkeypatch):
        # Life 1 saves alpha's answer.
        first = _two_function_service()
        first.execute(_pair_request("alpha"))
        assert first.save_warm_state(tmp_path) is not None

        # Life 2 warms only beta, and the disk fills up on results.json.
        second = _two_function_service()
        second.execute(_pair_request("beta"))
        write_text = Path.write_text

        def full_disk(path, *args, **kwargs):
            if "results.json" in path.name:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk)
        assert second.save_warm_state(tmp_path) is None
        monkeypatch.undo()
        assert not (tmp_path / bundle.MANIFEST).exists()

        # Life 3 boots quietly cold: no manifest is no bundle, not an anomaly,
        # and life 1's answer is not served over life 2's half-written save.
        before = _skip_count("manifest")
        third = _two_function_service()
        assert third.load_warm_state(tmp_path) == {"results": 0}
        assert _skip_count("manifest") == before
        answer = third.execute(_pair_request("alpha"))
        assert not answer.cached and answer.error is None
        assert answer.payload_json == (
            _two_function_service().execute(_pair_request("alpha")).payload_json
        )

    def test_re_save_over_a_bundle_round_trips(self, tmp_path):
        first = _two_function_service()
        first.execute(_pair_request("alpha"))
        first.save_warm_state(tmp_path)
        second = _two_function_service()
        second.execute(_pair_request("beta"))
        second.save_warm_state(tmp_path)

        third = _two_function_service()
        assert third.load_warm_state(tmp_path) == {"results": 1}
        replay = third.execute(_pair_request("beta"))
        assert replay.cached
        assert replay.canonical() == _two_function_service().execute(
            _pair_request("beta")
        ).canonical()
        assert third.store_stats.scoring_passes == 0
        assert not list(tmp_path.glob("**/.*.tmp")), "temporary files left behind"

    def test_re_save_under_a_changed_catalog_replaces_the_fingerprint(self, tmp_path):
        # Life 1 saves under a one-function catalog; life 2 registers a
        # second function and re-saves.  Life 3, with life 2's catalog,
        # loads life 2's answers only.
        first = _service()
        first.execute(_REQUEST)
        first.save_warm_state(tmp_path)

        second = _two_function_service()
        second.execute(_pair_request("alpha"))
        second.save_warm_state(tmp_path)

        third = _two_function_service()
        assert third.load_warm_state(tmp_path) == {"results": 1}
        assert third.execute(_pair_request("alpha")).cached
        assert _service().load_warm_state(tmp_path) == {"results": 0}

    def test_smaller_re_save_leaves_only_referenced_files(self, tmp_path):
        # Life 1 answers both functions: two saved results.
        first = _two_function_service()
        for name in ("alpha", "beta"):
            first.execute(_pair_request(name))
        first.save_warm_state(tmp_path)
        saved = json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))
        assert len(saved["results"]) == 2
        # Life 2 answers alpha alone: one result, the same two files.
        second = _two_function_service()
        second.execute(_pair_request("alpha"))
        second.save_warm_state(tmp_path)
        assert _files(tmp_path) == {"manifest.json", "results.json"}

        third = _two_function_service()
        loaded, events = _load_logging_events(third, tmp_path)
        assert loaded == {"results": 1}
        [load] = [event for event in events if event["event"] == "warmstart_load"]
        assert load["entries"] == 1
        assert load["bytes"] == (tmp_path / "results.json").stat().st_size
        assert third.execute(_pair_request("alpha")).cached
        assert not third.execute(_pair_request("beta")).cached
