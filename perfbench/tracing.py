"""The traced run: per-layer spans recorded around public calls into each layer.

The server is a separate process, so its layers cannot be timed from
outside.  The traced run therefore *replays* the workload's request stream
through each layer's public functions, in process, and times every call
with a span recorder — while still sending each request over HTTP to a
live deployment of the workload's shape.  For one request the replay runs:

* ``fingerprint.request_key`` — :meth:`FairnessService.request_key`;
* ``service.execute`` — :meth:`FairnessService.execute` (cold or warm,
  as the envelope's ``cached`` flag says), including the marshal copy;
* ``jobs.encode`` / ``jobs.decode`` — ``to_json`` + ``json.dumps`` and
  ``json.loads`` + ``ServiceResult.from_json`` of the same envelope;
* ``http.roundtrip`` — the :class:`HTTPFairnessClient` call, decode
  included; ``http.transport`` is *derived*: roundtrip minus execute,
  encode and decode;
* for a quantify or single-vector sweep, ``compute`` with children
  ``scorestore.vector`` (a fresh :class:`ScoreStore`), ``quantify.search``
  and ``unfairness.breakdown`` — one cold compute of the same search;
* for an audit / job-owner / end-user request, ``roles.<role>`` — the role
  workflow over the snapshot's marketplace, computed from scratch.

Spans carry name, start, end, parent and trace id, stay in memory and are
written out as JSON lines when the run ends.  A span's self time is its
duration minus the part its children cover.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.catalog import Catalog
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import unfairness_breakdown
from repro.experiments.workloads import synthetic_population
from repro.roles.auditor import Auditor
from repro.roles.end_user import EndUser
from repro.roles.job_owner import JobOwner
from repro.scoring.linear import LinearScoringFunction
from repro.server import HTTPFairnessClient
from repro.service import (
    AuditRequest,
    BatchExecutor,
    EndUserRequest,
    FairnessService,
    JobOwnerRequest,
    QuantifyRequest,
    ServiceResult,
    SweepRequest,
)
from repro.service.fingerprint import fingerprint_dataset
from repro.shard.routing import request_references, routing_key, worker_slot
from repro.snapshot import snapshot_fingerprints

import loadgen
from workloads import Deployment, FreshStream, client_stream, role_requests, warmup_items

#: Share of ``--seconds`` spent replaying the steady-state stream.
STEADY_SHARE = 0.6
#: Store-pool size of the replay's service.  The replay stops before the pool
#: would evict, so scoring passes per request are exact pool deltas (and a
#: cold 100k-row replay holds at most this many ~9MB stores).
REPLAY_STORES = 36
#: Distinct requests re-run with tracing on and off for the overhead ratio.
OVERHEAD_PAIRS = 12
RELAY_PAIRS = 5
BATCH_REPEATS = 3
PROBE_REPEATS = 3


@dataclass
class Span:
    span_id: int
    name: str
    trace_id: str
    parent_id: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class SpanRecorder:
    """In-memory span recorder for one thread (the replay is sequential)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self._stack: List[Span] = []
        self._traces = 0
        self._ids = 0

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._traces += 1
            trace_id = f"replay-{self._traces:05d}"
        else:
            trace_id = parent.trace_id
        self._ids += 1
        record = Span(self._ids, name, trace_id,
                      None if parent is None else parent.span_id, time.perf_counter(),
                      attrs=dict(attrs))
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def self_ms(self) -> Dict[int, float]:
        """Self time per span id: duration minus the union its children cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
                start, end = max(child.start, cursor), min(child.end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span.span_id] = (span.end - span.start - covered) * 1000.0
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self_ms = self.self_ms()
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "trace_id": span.trace_id, "span_id": span.span_id,
                    "parent_id": span.parent_id, "name": span.name,
                    "start_s": round(span.start, 6), "end_s": round(span.end, 6),
                    "self_ms": round(self_ms[span.span_id], 4), **span.attrs,
                }) + "\n")


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class Replay:
    """Runs one request through every layer's public calls under spans."""

    def __init__(self, service: FairnessService, client: HTTPFairnessClient,
                 recorder: SpanRecorder) -> None:
        self.service = service
        self.client = client
        self.recorder = recorder
        self.mismatches: List[str] = []
        self.checked = 0
        self.passes: List[int] = []
        self.cached_flags: List[bool] = []
        self.histogram_hits = 0
        self.histogram_requests = 0

    def one(self, request, phase: str) -> None:
        span = self.recorder.span
        service = self.service
        passes_before = service.store_stats.scoring_passes
        with span("request", kind=request.kind, phase=phase):
            with span("fingerprint.request_key"):
                service.request_key(request)
            with span("service.execute") as execute:
                result = service.execute(request)
            if execute is not None:
                execute.attrs["cached"] = result.cached
                execute.attrs["timings_total_ms"] = (result.timings or {}).get("total_ms", 0.0)
            passes = service.store_stats.scoring_passes - passes_before
            with span("jobs.encode"):
                body = json.dumps(result.to_json()).encode("utf-8")
            with span("jobs.decode"):
                ServiceResult.from_json(json.loads(body))
            with span("http.roundtrip") as roundtrip:
                remote = self.client._run(request)
            if roundtrip is not None:
                roundtrip.attrs["cached"] = remote.cached
            self.probe_layers(request)
        if phase == "steady":
            self.passes.append(passes)
            self.cached_flags.append(remote.cached)
        self.checked += 1
        if not remote.ok or remote.canonical() != result.canonical():
            self.mismatches.append(f"{request.kind}: HTTP answer differs from in-process")

    def probe_layers(self, request) -> None:
        """Time the request's compute or role layer directly, from scratch."""
        span = self.recorder.span
        service = self.service
        if isinstance(request, (QuantifyRequest, SweepRequest)):
            function = service.function(request.function)
            if isinstance(request, SweepRequest):
                if request.weight_maps is None or len(request.weight_maps) != 1:
                    return
                function = LinearScoringFunction(dict(request.weight_maps[0]), name="probe")
            dataset = service.dataset(request.dataset)
            formulation = request.formulation()
            with span("compute"):
                store = ScoreStore(dataset, function)
                with span("scorestore.vector"):
                    store.vector()
                with span("quantify.search") as search:
                    result = quantify(dataset, function, formulation,
                                      attributes=request.attributes,
                                      max_depth=request.max_depth,
                                      min_partition_size=request.min_partition_size,
                                      store=store)
                if search is not None:
                    search.attrs["splits_evaluated"] = result.splits_evaluated
                with span("unfairness.breakdown"):
                    unfairness_breakdown(result.partitioning, function, formulation, store=store)
            if self.recorder.enabled:
                stats = store.stats
                self.histogram_hits += stats.histogram_hits
                self.histogram_requests += stats.histogram_requests
        elif isinstance(request, AuditRequest):
            market = service.marketplace(request.marketplace)
            auditor = Auditor(request.formulation(), attributes=request.attributes,
                              min_partition_size=request.min_partition_size)
            with span("roles.audit"):
                if request.job is None:
                    auditor.audit_marketplace(market)
                else:
                    auditor.audit_job(market, market.job(request.job))
        elif isinstance(request, JobOwnerRequest):
            market = service.marketplace(request.marketplace)
            owner = JobOwner(request.formulation(), min_partition_size=request.min_partition_size)
            with span("roles.job_owner"):
                owner.explore_job(market, request.job, sweep_steps=request.sweep_steps)
        elif isinstance(request, EndUserRequest):
            user = EndUser(request.group_map, formulation=request.formulation())
            with span("roles.end_user"):
                for name in request.marketplaces:
                    user.assess_job(service.marketplace(name), request.job)


def _timed(call) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def _batch_requests(deployment: Deployment, fresh: FreshStream) -> List[object]:
    if deployment.spec.name == "cold-whatif":
        return [fresh.sweep() for _ in range(4)]
    return list(deployment.hot)


def _batch_speedup(deployment: Deployment, fresh: FreshStream) -> float:
    """Serial execute vs ``BatchExecutor.run`` of one batch, both cold."""
    catalog = deployment.oracle.catalog
    serial, parallel = [], []
    for _ in range(BATCH_REPEATS):
        requests = _batch_requests(deployment, fresh)
        serial.append(_timed(
            lambda: BatchExecutor(FairnessService(catalog=catalog)).run_serial(requests)))
        parallel.append(_timed(
            lambda: BatchExecutor(FairnessService(catalog=catalog)).run(requests)))
    return _median(serial) / _median(parallel)


def _relay_ms(deployment: Deployment, fleet: loadgen.Server, requests: List[object]) -> float:
    """Router round trip minus direct-worker round trip, same warm request."""
    fingerprints = snapshot_fingerprints(deployment.snapshot)
    router = fleet.client()
    gaps = []
    for request in requests:
        key = routing_key(request_references(request.to_json()), fingerprints)
        slot = worker_slot(key, len(fleet.worker_urls))
        worker = HTTPFairnessClient(fleet.worker_urls[slot], raise_errors=False,
                                    timeout=loadgen.CLIENT_TIMEOUT_S)
        router._run(request)  # warms the routed worker's cache
        for index in range(RELAY_PAIRS):
            if index % 2:
                direct = _timed(lambda: worker._run(request))
                routed = _timed(lambda: router._run(request))
            else:
                routed = _timed(lambda: router._run(request))
                direct = _timed(lambda: worker._run(request))
            gaps.append((routed - direct) * 1000.0)
    return _median(gaps)


def _cache_evictions(server: loadgen.Server) -> int:
    return int(server.health()["cache"]["evictions"])  # type: ignore[index]


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer figures from the spans.

    A duration is the mean per request that ran the layer, over the
    steady-state requests (role spans from every phase): means add up
    along a request, medians of a mixed-kind stream would hide the one
    large answer.  ``service.execute`` is split by the envelope's cache flag
    (every phase), so each workload reports both.
    """
    traces: Dict[str, Dict[str, Span]] = {}
    for span in recorder.spans:
        traces.setdefault(span.trace_id, {})[span.name] = span
    durations: Dict[str, List[float]] = {}
    cold, warm, gaps, splits = [], [], [], []
    for spans in traces.values():
        root = spans.get("request")
        phase = None if root is None else root.attrs.get("phase")
        execute = spans.get("service.execute")
        if execute is not None:
            (warm if execute.attrs.get("cached") else cold).append(execute.ms)
            if execute.attrs.get("cached"):
                gaps.append(execute.ms - float(execute.attrs.get("timings_total_ms", 0.0)))
        if phase == "overhead":
            continue
        search = spans.get("quantify.search")
        if search is not None:
            splits.append(float(search.attrs.get("splits_evaluated", 0)))
        for name, span in spans.items():
            if phase == "steady" or name.startswith("roles."):
                durations.setdefault(name, []).append(span.ms)
        if phase == "steady":
            durations.setdefault("http.transport", []).append(
                spans["http.roundtrip"].ms - spans["service.execute"].ms
                - spans["jobs.encode"].ms - spans["jobs.decode"].ms
            )
    metrics = {f"{name}_ms": _mean(values) for name, values in durations.items()
               if name not in ("request", "compute", "service.execute")}
    metrics["service.execute_cold_ms"] = _mean(cold)
    metrics["service.execute_warm_ms"] = _mean(warm)
    metrics["service.timings_gap_ms"] = _mean(gaps)
    metrics["quantify.splits_evaluated"] = _mean(splits)
    return metrics


def run_traced(root: Path, deployment: Deployment, seconds: float,
               spans_path: Path) -> Tuple[Dict[str, float], List[str], int, int]:
    """The traced run; returns (per-layer metrics, report lines, attempted, failed)."""
    spec = deployment.spec
    metrics: Dict[str, float] = {}
    lines: List[str] = []
    metrics["catalog.load_ms"] = _median([
        _timed(lambda: Catalog.load(deployment.snapshot)) * 1000.0
        for _ in range(PROBE_REPEATS)
    ])
    fingerprint_times = []
    for _ in range(PROBE_REPEATS):
        population = synthetic_population(spec.rows, seed=deployment.seed, columnar=True)
        fingerprint_times.append(_timed(lambda: fingerprint_dataset(population)) * 1000.0)
    metrics["fingerprint.dataset_ms"] = _median(fingerprint_times)

    servers: List[loadgen.Server] = []
    try:
        server, _, _ = loadgen.boot(root, deployment, 1)
        servers.append(server)
        # A two-worker fleet of the same snapshot, for the router metrics.
        fleet = loadgen.Server(root, deployment.snapshot, 2).start()
        servers.append(fleet)
        issued: set = set()
        stream = client_stream(deployment, issued)
        loop = loadgen.ClosedLoop(deployment, server)
        warm = loop.run(loadgen.Phase("warmup"), iter(warmup_items(deployment, stream)))
        loop.settle(warm)
        lines.append(warm.line())

        recorder = SpanRecorder()
        service = FairnessService(catalog=deployment.oracle.catalog, max_stores=REPLAY_STORES)
        replay = Replay(service, server.client(), recorder)
        for request in deployment.hot:
            replay.one(request, "warmup")
        evictions_before = _cache_evictions(server)
        replayed: List[object] = []
        deadline = time.perf_counter() + seconds * STEADY_SHARE
        while (time.perf_counter() < deadline
               and service.store_stats.stores < REPLAY_STORES - 4):
            request = next(stream)
            replay.one(request, "steady")
            replayed.append(request)
        evictions = _cache_evictions(server) - evictions_before

        # Tracing overhead: each request's pipeline back to back with spans on
        # and off, order alternating so the geometric mean of the pair ratios
        # cancels any first-run effect; pairs keep a burst of host noise from
        # swamping the ratio the way a ratio of sums would.
        # Frozen first: a collection rescanning the oracle's and the replay's
        # caches would land on one side of a pair at random.
        gc.collect()
        gc.freeze()
        ratios = []
        distinct = list({id(r): r for r in replayed[-OVERHEAD_PAIRS:]}.values())
        for index, request in enumerate(distinct):
            timings = {}
            for enabled in ((True, False) if index % 2 == 0 else (False, True)):
                recorder.enabled = enabled
                timings[enabled] = _timed(lambda: replay.one(request, "overhead"))
            ratios.append(timings[True] / timings[False])
        recorder.enabled = True

        # Every workload reports the role layers, streams without roles too.
        for request in role_requests():
            for _ in range(PROBE_REPEATS):
                replay.probe_layers(request)

        metrics.update(layer_metrics(recorder))
        metrics["scorestore.scoring_passes_per_req"] = (
            sum(replay.passes) / len(replay.passes) if replay.passes else 0.0)
        metrics["scorestore.histogram_hit_ratio"] = (
            replay.histogram_hits / replay.histogram_requests
            if replay.histogram_requests else 0.0)
        metrics["cache.hit_ratio"] = (
            sum(replay.cached_flags) / len(replay.cached_flags) if replay.cached_flags else 0.0)
        metrics["cache.evictions"] = float(evictions)
        metrics["executor.batch_speedup"] = _batch_speedup(
            deployment, FreshStream(deployment, 1, issued))
        metrics["router.relay_ms"] = _relay_ms(
            deployment, fleet, list({id(r): r for r in replayed[:8]}.values()))
        metrics["router.retried_forwards"] = float(fleet.health()["retried_forwards"])
        metrics["trace.overhead_ratio"] = (
            math.exp(statistics.fmean(math.log(ratio) for ratio in ratios)) if ratios else 1.0)
        lines.append(f"phase traced-replay: sent {replay.checked}, "
                     f"succeeded {replay.checked - len(replay.mismatches)}, "
                     f"failed {len(replay.mismatches)} "
                     f"({len(replayed)} steady requests, {len(recorder.spans)} spans)")
        lines.extend(_layer_table(recorder))
        recorder.write(spans_path)
        lines.append(f"spans written to {spans_path}")
        attempted = warm.sent + replay.checked
        failed = warm.failed + len(replay.mismatches)
        lines.extend(f"  ! {failure}" for failure in warm.failures + replay.mismatches)
    finally:
        for running in servers:
            running.stop()
    return metrics, lines, attempted, failed


def _layer_table(recorder: SpanRecorder) -> List[str]:
    """Per-layer count, median total and median self time (ms)."""
    self_ms = recorder.self_ms()
    totals: Dict[str, List[float]] = {}
    selves: Dict[str, List[float]] = {}
    for span in recorder.spans:
        totals.setdefault(span.name, []).append(span.ms)
        selves.setdefault(span.name, []).append(self_ms[span.span_id])
    lines = [f"  {'layer':<26} {'spans':>6} {'p50 total ms':>13} {'p50 self ms':>12}"]
    for name in sorted(totals):
        lines.append(f"  {name:<26} {len(totals[name]):>6} "
                     f"{_median(totals[name]):>13.3f} {_median(selves[name]):>12.3f}")
    return lines

