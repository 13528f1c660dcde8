"""Warm-start restart — a rebooted fleet must serve hot, not recompute.

Boots a 2-worker fingerprint-routed fleet with ``--warm-dir``, drives the
64-request mixed-kind wave cold and warm, then SIGTERMs the fleet (each
worker saves its warm bundle) and boots a *second* fleet from the same
directory.  The restarted fleet's very first wave must be:

* **byte-identical** to both waves of the first life (same canonicals);
* **warm**: first-request p50 within 2x of the first life's steady-state
  warm p50 (the cold wave today runs ~4-5x warmer-than-warm, so this gate
  fails whenever a reboot silently recomputes instead of reloading);
* **load-verified**: the workers' result caches report restored entries
  and their store pools zero scoring passes before the wave lands.

Percentiles for all three waves land in ``BENCH_warmstart.json``.
"""

from __future__ import annotations

import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List

from repro.errors import ServiceError
from repro.server import HTTPFairnessClient

from benchmarks.bench_server import (
    CONCURRENT_REQUESTS,
    _latency_block,
    build_service,
    mixed_requests,
)
from benchmarks.results import REPO_ROOT, write_results

_RESULTS_PATH = REPO_ROOT / "BENCH_warmstart.json"

#: The acceptance gate: restarted-fleet first-request p50 vs warm p50.
WARM_STARTED_MAX_RATIO = 2.0


def _drive_waves(
    snapshot: Path, workers: int, requests, warm_dir: Path, waves: List[str]
) -> Dict[str, object]:
    """One fleet life: boot with ``warm_dir``, fire the named waves, stop.

    Stopping SIGTERMs the workers, which drain and save their warm bundles
    — the stop is part of the scenario, not just cleanup.
    """
    from repro.shard import ShardRouter, WorkerPool
    from repro.snapshot import snapshot_fingerprints

    pool = WorkerPool(snapshot, workers, warm_dir=warm_dir)
    pool.start()
    router = ShardRouter(pool, fingerprints=snapshot_fingerprints(snapshot))
    router.serve_in_background()
    try:
        client = HTTPFairnessClient(router.base_url, timeout=300.0)

        def fire(index: int):
            started = time.perf_counter()
            for attempt in range(3):
                try:
                    result = client._run(requests[index])
                    break
                except (ConnectionResetError, ServiceError) as error:
                    # The same connect-burst noise bench_server retries: a
                    # 64-way simultaneous connect can reset on the
                    # client->router hop; the retry counts against latency.
                    connect_noise = isinstance(error, ConnectionResetError) or (
                        "cannot reach" in str(error)
                    )
                    if attempt == 2 or not connect_noise:
                        raise
            return index, result, time.perf_counter() - started

        measured: Dict[str, Dict[str, object]] = {}
        canonicals: List[str] = []
        for wave in waves:
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=len(requests)) as burst:
                outcomes = list(burst.map(fire, range(len(requests))))
            wall_clock = time.perf_counter() - started
            assert all(result.ok for _, result, _ in outcomes)
            measured[wave] = {
                "wall_clock_s": round(wall_clock, 4),
                "throughput_rps": round(len(requests) / wall_clock, 1),
                "latency_ms": _latency_block(
                    [elapsed for _, _, elapsed in outcomes]
                ),
            }
            canonicals = [
                result.canonical()
                for _, result, _ in sorted(outcomes, key=lambda item: item[0])
            ]
        pools = [
            entry["store_pool"]
            for entry in client.health()["workers"]["health"]
        ]
        return {
            "workers": workers,
            "stores": sum(stats["stores"] for stats in pools),
            "scoring_passes": sum(stats["scoring_passes"] for stats in pools),
            **measured,
            "_canonicals": canonicals,
        }
    finally:
        router.shutdown()
        router.server_close()
        pool.stop()  # SIGTERM: each worker saves its warm bundle


def _pool_accounting(snapshot: Path, workers: int, warm_dir: Path) -> Dict[str, int]:
    """Boot the restarted fleet and read its caches and store pools *before* traffic."""
    from repro.shard import ShardRouter, WorkerPool
    from repro.snapshot import snapshot_fingerprints

    pool = WorkerPool(snapshot, workers, warm_dir=warm_dir)
    pool.start()
    router = ShardRouter(pool, fingerprints=snapshot_fingerprints(snapshot))
    router.serve_in_background()
    try:
        client = HTTPFairnessClient(router.base_url, timeout=120.0)
        health = client.health()["workers"]["health"]
        return {
            "cache_entries": sum(entry["cache"]["entries"] for entry in health),
            "scoring_passes": sum(entry["store_pool"]["scoring_passes"] for entry in health),
        }
    finally:
        router.shutdown()
        router.server_close()
        pool.stop()


def test_restarted_fleet_serves_within_2x_of_warm():
    service = build_service()
    requests = mixed_requests(CONCURRENT_REQUESTS)
    assert len({request.kind for request in requests}) == 7
    workers = 2

    with tempfile.TemporaryDirectory() as workdir:
        snapshot = Path(workdir) / "deployment.json"
        service.catalog.save(snapshot)
        warm_dir = Path(workdir) / "warm"

        first_life = _drive_waves(
            snapshot, workers, requests, warm_dir, waves=["cold", "warm"]
        )
        assert list(warm_dir.glob("slot-*/manifest.json")), (
            "graceful fleet stop saved no warm bundles"
        )
        # A probe boot proves the reload happens before any traffic: cached
        # answers are back, and not one scoring pass has run.
        preloaded = _pool_accounting(snapshot, workers, warm_dir)
        assert preloaded["cache_entries"] >= 1
        assert preloaded["scoring_passes"] == 0
        second_life = _drive_waves(
            snapshot, workers, requests, warm_dir, waves=["warm_started"]
        )

    mismatched = [
        requests[index].kind
        for index, (left, right) in enumerate(
            zip(first_life.pop("_canonicals"), second_life.pop("_canonicals"))
        )
        if left != right
    ]
    assert not mismatched, f"restarted fleet diverged: {mismatched}"
    # The restarted fleet served the whole wave from its reloaded caches.
    assert second_life["scoring_passes"] == 0

    warm_p50 = first_life["warm"]["latency_ms"]["p50"]
    cold_p50 = first_life["cold"]["latency_ms"]["p50"]
    started_p50 = second_life["warm_started"]["latency_ms"]["p50"]
    # Sub-millisecond warm p50s would make the ratio pure jitter; the floor
    # keeps the gate meaningful on fast machines without loosening it.
    ratio = round(started_p50 / max(warm_p50, 1.0), 2)
    assert ratio <= WARM_STARTED_MAX_RATIO, (
        f"restarted fleet first-request p50 {started_p50} ms is {ratio}x the "
        f"steady-state warm p50 {warm_p50} ms (gate: {WARM_STARTED_MAX_RATIO}x)"
    )

    block = {
        "requests": len(requests),
        "concurrency": CONCURRENT_REQUESTS,
        "workers": workers,
        "byte_identical_across_restart": True,
        "preloaded_before_traffic": preloaded,
        "warm_started_vs_warm_p50_ratio": ratio,
        "gate_max_ratio": WARM_STARTED_MAX_RATIO,
        "first_life": first_life,
        "restarted": second_life,
    }
    write_results(
        _RESULTS_PATH,
        {"warmstart_restarted_fleet": block},
        synthetic_500=500,
        synthetic_200=200,
        marketplace=120,
    )
    print(
        f"\nrestarted {workers}-worker fleet: warm-started p50 {started_p50} ms "
        f"vs warm p50 {warm_p50} ms (ratio {ratio}x, gate "
        f"{WARM_STARTED_MAX_RATIO}x; cold was {cold_p50} ms)"
    )
