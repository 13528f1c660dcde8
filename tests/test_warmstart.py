"""Warm-start persistence: bundles round-trip, drift/truncation fall back cold."""

from __future__ import annotations

import errno
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro import bundle
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore
from repro.errors import BundleError, WarmStartError
from repro.experiments.workloads import synthetic_population
from repro.metrics.histogram import Binning, build_histogram
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


@pytest.fixture(scope="module")
def population():
    return synthetic_population(size=300, seed=7)


@pytest.fixture(scope="module")
def function():
    return LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="warm-f")


def _warm_store(population, function) -> ScoreStore:
    store = ScoreStore(population, function)
    quantify(population, function, min_partition_size=5, store=store)
    return store


def _skip_count(reason: str) -> float:
    return get_registry().counter("fairank_warmstart_skips_total").value(reason=reason)


class TestScoreStoreBundle:
    def test_round_trip_is_byte_identical(self, tmp_path, population, function):
        store = _warm_store(population, function)
        manifest = store.save(tmp_path)
        loaded = ScoreStore.load(tmp_path, population, function)
        assert loaded.materialized
        # The loaded vector is the saved bytes, not a recomputation.
        assert loaded.vector().tobytes() == store.vector().tobytes()
        assert loaded.stats.scoring_passes == 0
        # Every persisted partition memo (entries with histograms) is back.
        assert len(loaded) == len(manifest["partitions"]) >= 1

    def test_loaded_histograms_are_served_from_the_memo(
        self, tmp_path, population, function
    ):
        store = ScoreStore(population, function)
        result = quantify(population, function, min_partition_size=5, store=store)
        store.save(tmp_path)
        loaded = ScoreStore.load(tmp_path, population, function)
        binning = Binning.unit()
        for partition in result.partitioning:
            direct = build_histogram(
                function.score_dataset(partition.members), binning=binning
            )
            assert loaded.histogram(partition, binning).counts == direct.counts
        stats = loaded.stats
        assert stats.histogram_hits >= 1
        assert stats.scoring_passes == 0  # warm all the way: no recompute

    def test_save_requires_a_materialized_vector(self, tmp_path, population, function):
        store = ScoreStore(population, function)
        with pytest.raises(WarmStartError) as excinfo:
            store.save(tmp_path)
        assert excinfo.value.reason == "cold"

    def test_missing_manifest_is_a_manifest_error(self, tmp_path, population, function):
        with pytest.raises(WarmStartError) as excinfo:
            ScoreStore.load(tmp_path, population, function)
        assert excinfo.value.reason == "manifest"

    def test_truncated_manifest_is_rejected(self, tmp_path, population, function):
        store = _warm_store(population, function)
        store.save(tmp_path)
        full = (tmp_path / "manifest.json").read_text(encoding="utf-8")
        (tmp_path / "manifest.json").write_text(full[: len(full) // 2], encoding="utf-8")
        with pytest.raises(WarmStartError) as excinfo:
            ScoreStore.load(tmp_path, population, function)
        assert excinfo.value.reason == "manifest"

    def test_dataset_drift_is_rejected(self, tmp_path, population, function):
        _warm_store(population, function).save(tmp_path)
        drifted = synthetic_population(size=300, seed=8)  # same rows, other content
        with pytest.raises(WarmStartError) as excinfo:
            ScoreStore.load(tmp_path, drifted, function)
        assert excinfo.value.reason == "fingerprint"

    def test_function_drift_is_rejected(self, tmp_path, population, function):
        _warm_store(population, function).save(tmp_path)
        other = LinearScoringFunction(
            {"Language Test": 0.3, "Rating": 0.7}, name="warm-f"
        )
        with pytest.raises(WarmStartError) as excinfo:
            ScoreStore.load(tmp_path, population, other)
        assert excinfo.value.reason == "fingerprint"

    def test_partial_vector_file_is_rejected(self, tmp_path, population, function):
        _warm_store(population, function).save(tmp_path)
        blob = (tmp_path / "vector.bin").read_bytes()
        (tmp_path / "vector.bin").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(WarmStartError) as excinfo:
            ScoreStore.load(tmp_path, population, function)
        assert excinfo.value.reason == "truncated"

    def test_non_local_file_reference_is_rejected(self, tmp_path, population, function):
        _warm_store(population, function).save(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        manifest["vector"] = "../outside.bin"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(WarmStartError) as excinfo:
            ScoreStore.load(tmp_path, population, function)
        assert excinfo.value.reason == "manifest"

    def test_corrupt_bin_codes_are_rejected(self, tmp_path, population, function):
        store = ScoreStore(population, function)
        result = quantify(population, function, min_partition_size=5, store=store)
        assert result is not None
        store.save(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["bin_codes"], "search must have produced bin codes"
        codes_file = tmp_path / str(manifest["bin_codes"][0]["file"])
        np.full(len(population), 999, dtype=np.int64).tofile(codes_file)
        with pytest.raises(WarmStartError) as excinfo:
            ScoreStore.load(tmp_path, population, function)
        assert excinfo.value.reason == "truncated"


def _service() -> FairnessService:
    service = FairnessService()
    service.register_dataset(synthetic_population(size=300, seed=7), name="pop")
    service.register_function(
        LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    )
    return service


_REQUEST = QuantifyRequest(dataset="pop", function="balanced", min_partition_size=5)


class TestServiceWarmState:
    def test_round_trip_restores_stores_and_results(self, tmp_path):
        warm = _service()
        reference = warm.execute(_REQUEST)
        assert warm.save_warm_state(tmp_path) is not None

        restarted = _service()
        loaded = restarted.load_warm_state(tmp_path)
        assert loaded == {"stores": 1, "results": 1}
        # The store pool is populated without a single scoring pass...
        stats = restarted.store_stats
        assert stats.stores == 1
        assert stats.scoring_passes == 0
        # ...the repeated request is a byte-identical cache hit...
        replay = restarted.execute(_REQUEST)
        assert replay.cached
        assert replay.canonical() == reference.canonical()
        # ...and a *new* formulation over the same pair reuses the warm
        # vector instead of re-scoring.
        fresh_request = QuantifyRequest(
            dataset="pop", function="balanced",
            aggregation="maximum", min_partition_size=5,
        )
        novel = restarted.execute(fresh_request)
        assert not novel.cached and novel.error is None
        assert restarted.store_stats.scoring_passes == 0
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
        # Older bundles carry a per-entry "cost"; the loader ignores it.
        warm = _service()
        reference = warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)
        results_file = tmp_path / "results.json"
        bundle = json.loads(results_file.read_text(encoding="utf-8"))
        for entry in bundle["results"]:
            entry["cost"] = 42.0
        results_file.write_text(json.dumps(bundle), encoding="utf-8")

        restarted = _service()
        assert restarted.load_warm_state(tmp_path) == {"stores": 1, "results": 1}
        replay = restarted.execute(_REQUEST)
        assert replay.cached and replay.payload_json == reference.payload_json
        assert restarted.store_stats.scoring_passes == 0

    def test_results_saved_under_per_kind_keys_load_as_unserved_orphans(
        self, tmp_path
    ):
        # Bundles written before request keys covered the request JSON carry
        # keys from the old per-kind derivation (content fingerprints plus a
        # hand-picked parameter dict).  They still load, match no request,
        # and age out of the LRU; the stores load and serve the recompute.
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
        bundle = json.loads(results_file.read_text(encoding="utf-8"))
        for entry in bundle["results"]:
            entry["key"] = per_kind_key
        results_file.write_text(json.dumps(bundle), encoding="utf-8")

        restarted = _service()
        assert restarted.load_warm_state(tmp_path) == {"stores": 1, "results": 1}
        assert per_kind_key in restarted.cache
        replay = restarted.execute(_REQUEST)
        assert not replay.cached
        assert replay.payload_json == reference.payload_json
        assert replay.canonical() == reference.canonical()
        assert restarted.store_stats.scoring_passes == 0

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
        assert restarted.load_warm_state() == {"stores": 1, "results": 1}

    def test_without_warm_dir_is_a_noop(self, tmp_path):
        service = _service()
        assert service.load_warm_state() is None
        assert service.save_warm_state() is None

    def test_empty_directory_is_a_quiet_cold_boot(self, tmp_path):
        before = _skip_count("manifest")
        assert _service().load_warm_state(tmp_path) == {"stores": 0, "results": 0}
        assert _skip_count("manifest") == before  # no bundle is not an anomaly

    def test_truncated_store_falls_back_cold_with_metric_and_event(self, tmp_path):
        warm = _service()
        reference = warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)
        vector = tmp_path / "stores" / "store_00" / "vector.bin"
        vector.write_bytes(vector.read_bytes()[:64])

        before = _skip_count("truncated")
        captured = io.StringIO()
        logger = get_logger()
        logger.stream = captured
        try:
            loaded = _service().load_warm_state(tmp_path)
        finally:
            logger.stream = None
        assert loaded is not None and loaded["stores"] == 0
        assert _skip_count("truncated") == before + 1
        events = [json.loads(line) for line in captured.getvalue().splitlines()]
        skips = [event for event in events if event["event"] == "warmstart_skip"]
        assert skips and skips[0]["reason"] == "truncated"
        # The degraded service still answers — cold, and byte-identically.
        cold = _service()
        cold.load_warm_state(tmp_path)
        result = cold.execute(_REQUEST)
        assert result.error is None
        assert result.canonical() == reference.canonical()

    def test_catalog_drift_skips_results_but_loads_stores(self, tmp_path):
        warm = _service()
        warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)

        drifted = _service()
        drifted.register_function(
            LinearScoringFunction({"Language Test": 0.9, "Rating": 0.1}, name="skewed")
        )
        before = _skip_count("catalog_drift")
        loaded = drifted.load_warm_state(tmp_path)
        # The result cache is keyed on the whole catalog; the stores are
        # keyed on their own (dataset, function) pair and still load.
        assert loaded == {"stores": 1, "results": 0}
        assert _skip_count("catalog_drift") == before + 1

    def test_foreign_bundle_directory_is_skipped(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": "something-else", "version": 1}), encoding="utf-8"
        )
        before = _skip_count("manifest")
        assert _service().load_warm_state(tmp_path) == {"stores": 0, "results": 0}
        assert _skip_count("manifest") == before + 1

    def _assert_old_version_falls_back_cold(self, tmp_path, version):
        warm = _service()
        reference = warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)
        manifest_path = tmp_path / bundle.MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["version"] == bundle.WARM_START.version == 3
        manifest["version"] = version
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        with pytest.raises(BundleError) as refused:
            with bundle.open_manifest(tmp_path, bundle.WARM_START):
                pass
        assert refused.value.reason == "manifest"
        assert f"warm-start bundle version {version}" in str(refused.value)
        assert "reads version 3" in str(refused.value)

        before = _skip_count("manifest")
        restarted = _service()
        assert restarted.load_warm_state(tmp_path) == {"stores": 0, "results": 0}
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

    def test_load_reports_bytes_restored(self, tmp_path):
        warm = _service()
        warm.execute(_REQUEST)
        warm.save_warm_state(tmp_path)
        counter = get_registry().counter("fairank_warmstart_bytes_total")
        before = counter.value()
        _service().load_warm_state(tmp_path)
        restored = counter.value() - before
        # At least the 300-row float64 vector must have been accounted.
        assert restored >= 300 * 8


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


class TestReSave:
    def test_failed_re_save_never_serves_another_functions_scores(
        self, tmp_path, monkeypatch
    ):
        # Life 1 saves a store for alpha as stores/store_00.
        first = _two_function_service()
        first.execute(QuantifyRequest(dataset="pop", function="alpha", min_partition_size=5))
        assert first.save_warm_state(tmp_path) is not None

        # Life 2 warms only beta, so beta's store is the one saved as store_00,
        # and the disk fills up on that store's manifest.
        second = _two_function_service()
        second.execute(QuantifyRequest(dataset="pop", function="beta", min_partition_size=5))
        write_text = Path.write_text

        def full_disk(path, *args, **kwargs):
            if path.parent.name == "store_00" and "manifest.json" in path.name:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk)
        assert second.save_warm_state(tmp_path) is None
        monkeypatch.undo()

        # Life 3 must answer a novel alpha request exactly like a cold service.
        novel = QuantifyRequest(
            dataset="pop", function="alpha", aggregation="maximum", min_partition_size=5
        )
        third = _two_function_service()
        third.load_warm_state(tmp_path)
        answer = third.execute(novel)
        assert answer.error is None
        assert answer.payload_json == _two_function_service().execute(novel).payload_json

    def test_re_save_over_a_bundle_round_trips(self, tmp_path):
        first = _two_function_service()
        first.execute(QuantifyRequest(dataset="pop", function="alpha", min_partition_size=5))
        first.save_warm_state(tmp_path)
        second = _two_function_service()
        second.execute(QuantifyRequest(dataset="pop", function="beta", min_partition_size=5))
        second.save_warm_state(tmp_path)

        third = _two_function_service()
        assert third.load_warm_state(tmp_path) == {"stores": 1, "results": 1}
        novel = QuantifyRequest(
            dataset="pop", function="beta", aggregation="maximum", min_partition_size=5
        )
        assert third.execute(novel).payload_json == (
            _two_function_service().execute(novel).payload_json
        )
        assert third.store_stats.scoring_passes == 0
        assert not list(tmp_path.glob("**/.*.tmp")), "temporary files left behind"

    def test_smaller_re_save_leaves_only_referenced_files(self, tmp_path):
        # Life 1 warms both functions: stores/store_00 and stores/store_01.
        first = _two_function_service()
        for name in ("alpha", "beta"):
            first.execute(QuantifyRequest(dataset="pop", function=name, min_partition_size=5))
        assert len(first.save_warm_state(tmp_path)["stores"]) == 2
        # Life 2 warms alpha alone with coarser partitions: one store, fewer parts.
        second = _two_function_service()
        second.execute(QuantifyRequest(dataset="pop", function="alpha", min_partition_size=100))
        manifest = second.save_warm_state(tmp_path)
        assert [entry["directory"] for entry in manifest["stores"]] == ["stores/store_00"]

        store_dir = tmp_path / "stores" / "store_00"
        store_manifest = json.loads((store_dir / "manifest.json").read_text(encoding="utf-8"))
        referenced = {store_manifest["vector"]}
        referenced.update(entry["file"] for entry in store_manifest["bin_codes"])
        referenced.update(entry["indices"] for entry in store_manifest["partitions"])
        on_disk = {
            path.relative_to(tmp_path).as_posix()
            for path in tmp_path.rglob("*") if path.is_file()
        }
        assert on_disk == {"manifest.json", "results.json", "stores/store_00/manifest.json"} | {
            f"stores/store_00/{name}" for name in referenced
        }
        assert [path.name for path in (tmp_path / "stores").iterdir()] == ["store_00"]

        captured = io.StringIO()
        logger = get_logger()
        logger.stream = captured
        third = _two_function_service()
        try:
            assert third.load_warm_state(tmp_path) == {"stores": 1, "results": 1}
        finally:
            logger.stream = None
        events = [json.loads(line) for line in captured.getvalue().splitlines()]
        [store_event] = [
            event for event in events
            if event["event"] == "warmstart_load" and event["component"] == "store"
        ]
        assert store_event["bytes"] == sum(
            (store_dir / name).stat().st_size for name in referenced
        )
        third.execute(QuantifyRequest(dataset="pop", function="alpha", min_partition_size=5))
        assert third.store_stats.scoring_passes == 0
