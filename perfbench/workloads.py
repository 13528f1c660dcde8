"""Seeded inputs of the serving benchmark: snapshot, hot set and request streams.

Everything the server sees is generated here from ``--seed``: the catalog
snapshot (a columnar synthetic population, two linear scoring functions and
a crowdsourcing marketplace) and every request the client sends.  The same
seed gives the same snapshot and the same request stream.

One choice keeps the warm workload comparable across seeds (the benchmark
is run with many seeds and its spread must stay small): the hot quantify's
``min_partition_size`` is picked per seed so that its response is close to
``QUANTIFY_TARGET_BYTES`` (at a fixed value of 25 the response ranges from
0.96MB to 1.78MB across seeds, and the warm workload's latency follows the
response size).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List

from repro.catalog import Catalog
from repro.experiments.workloads import crowdsourcing_marketplace, synthetic_population
from repro.scoring.linear import LinearScoringFunction
from repro.service import (
    AuditRequest,
    BreakdownRequest,
    CompareRequest,
    EndUserRequest,
    FairnessService,
    JobOwnerRequest,
    QuantifyRequest,
    SweepRequest,
)
from repro.snapshot import snapshot_fingerprints

POPULATION = "population"
MAIN_FUNCTION = "skill-mix"
SECOND_FUNCTION = "rating-heavy"
MARKETPLACE = "crowdsourcing-sim"
MARKET_SIZE = 400
JOB = "Content writing"
OBSERVED = ("Language Test", "Rating")

#: Response size the hot quantify is calibrated to (the 10k-row case).
QUANTIFY_TARGET_BYTES = 1_400_000
#: Search range for the hot quantify's min_partition_size.
QUANTIFY_MPS_RANGE = (12, 60)

#: Fresh what-if sweeps: min_partition_size chosen so a response stays about
#: 1KB and a 100k-row sweep costs about 20ms, so a run holds several hundred
#: samples.  At 250-1000 the search allocates enough that garbage-collection
#: pauses hit 3-15% of requests, which puts p90 on the edge of that tail and
#: makes it swing from run to run.
WHATIF_MPS = 2000


@dataclass(frozen=True)
class WorkloadSpec:
    """The shape of one benchmark workload (why each exists: BENCHMARK.json)."""

    name: str
    rows: int
    #: Untimed stream items the client sends after the hot set warm-up:
    #: 36 fresh sweeps fill cold-whatif's 32-store pool, so server memory is
    #: at its plateau before timing.
    warmup_stream: int


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("warm-explore", rows=10_000, warmup_stream=0),
        WorkloadSpec("cold-whatif", rows=100_000, warmup_stream=36),
    )
}


@dataclass
class Deployment:
    """A generated snapshot plus the in-process oracle built from it."""

    spec: WorkloadSpec
    seed: int
    snapshot: Path
    oracle: FairnessService
    quantify_mps: int
    hot: List[object] = field(default_factory=list)
    _expected: Dict[str, str] = field(default_factory=dict)

    def expected(self, request) -> str:
        """The oracle's ``canonical()`` for a request (memoised by request JSON)."""
        key = request_id(request)
        found = self._expected.get(key)
        if found is None:
            found = self.oracle.execute(request).canonical()
            self._expected[key] = found
        return found


def request_id(request) -> str:
    """A stable identity for a request (its sorted wire JSON)."""
    return json.dumps(request.to_json(), sort_keys=True)


def _fingerprint_index(catalog: Catalog):
    return {
        (resource.kind.value, resource.name): resource.fingerprint
        for resource in catalog.resources()
    }


def build_deployment(spec: WorkloadSpec, seed: int, workdir: Path) -> Deployment:
    """Generate the seeded snapshot under ``workdir`` and its oracle service."""
    service = FairnessService()
    catalog = service.catalog
    service.register_dataset(
        synthetic_population(spec.rows, seed=seed, columnar=True), name=POPULATION
    )
    service.register_function(
        LinearScoringFunction({OBSERVED[0]: 0.6, OBSERVED[1]: 0.4}, name=MAIN_FUNCTION)
    )
    service.register_function(
        LinearScoringFunction({OBSERVED[0]: 0.3, OBSERVED[1]: 0.7}, name=SECOND_FUNCTION)
    )
    service.register_marketplace(crowdsourcing_marketplace(MARKET_SIZE, seed=seed))
    workdir.mkdir(parents=True, exist_ok=True)
    snapshot = workdir / "snapshot.json"
    catalog.save(snapshot, columnar_datasets=[POPULATION])
    # The oracle boots from the same file the server does, so a divergence
    # is the serving path's fault, never the registry's.
    oracle = FairnessService(catalog=Catalog.load(snapshot))
    deployment = Deployment(
        spec=spec, seed=seed, snapshot=snapshot, oracle=oracle, quantify_mps=0
    )
    if spec.name != "cold-whatif":
        deployment.quantify_mps = _calibrate_quantify(deployment)
        deployment.hot = hot_set(deployment.quantify_mps)
    # The router indexes the saved file, not the live catalog: check both agree.
    assert snapshot_fingerprints(snapshot) == _fingerprint_index(catalog)
    return deployment


def _quantify_bytes(deployment: Deployment, mps: int) -> int:
    request = QuantifyRequest(dataset=POPULATION, function=MAIN_FUNCTION, min_partition_size=mps)
    result = deployment.oracle.execute(request)
    deployment._expected[request_id(request)] = result.canonical()
    return len(json.dumps(result.to_json()))


def _calibrate_quantify(deployment: Deployment) -> int:
    """The min_partition_size whose quantify response is closest to the target.

    Response size falls as min_partition_size grows (fewer partitions, and
    the pairwise table is quadratic in them): bisect, then check neighbours.
    """
    low, high = QUANTIFY_MPS_RANGE
    sizes: Dict[int, int] = {}

    def size(mps: int) -> int:
        if mps not in sizes:
            sizes[mps] = _quantify_bytes(deployment, mps)
        return sizes[mps]

    while high - low > 1:
        middle = (low + high) // 2
        if size(middle) > QUANTIFY_TARGET_BYTES:
            low = middle
        else:
            high = middle
    for mps in (low - 1, low, high, high + 1):
        if QUANTIFY_MPS_RANGE[0] <= mps <= QUANTIFY_MPS_RANGE[1]:
            size(mps)
    return min(sizes, key=lambda mps: (abs(sizes[mps] - QUANTIFY_TARGET_BYTES), mps))


def role_requests() -> List[object]:
    """The auditor, end-user and job-owner requests of the hot set."""
    return [
        AuditRequest(marketplace=MARKETPLACE, min_partition_size=5),
        EndUserRequest(group={"Gender": "Female"}, marketplaces=(MARKETPLACE,),
                       job=JOB),
        JobOwnerRequest(marketplace=MARKETPLACE, job=JOB, sweep_steps=3,
                        min_partition_size=5),
    ]


def hot_set(quantify_mps: int) -> List[object]:
    """One request per protocol-v2 kind: what the interactive UI re-asks."""
    return [
        QuantifyRequest(dataset=POPULATION, function=MAIN_FUNCTION,
                        min_partition_size=quantify_mps),
        CompareRequest(dataset=POPULATION, functions=(MAIN_FUNCTION, SECOND_FUNCTION),
                       min_partition_size=100),
        BreakdownRequest(dataset=POPULATION, function=MAIN_FUNCTION, min_partition_size=25),
        SweepRequest(dataset=POPULATION, function=MAIN_FUNCTION, steps=3,
                     min_partition_size=100),
    ] + role_requests()


class FreshStream:
    """Never-repeating what-if sweeps.

    Weight vectors come from a per-(seed, stream) generator and are checked
    against every vector issued by any stream of the run, so a vector never
    repeats between warm-up and the timed phase or between streams.
    """

    def __init__(self, deployment: Deployment, stream: int, issued: set) -> None:
        self._rng = random.Random(f"{deployment.seed}:fresh:{stream}")
        self._issued = issued

    def vector(self) -> Dict[str, float]:
        while True:
            first = round(self._rng.uniform(0.05, 1.0), 6)
            second = round(self._rng.uniform(0.05, 1.0), 6)
            normalised = round(first / (first + second), 9)
            if normalised not in self._issued:
                self._issued.add(normalised)
                return {OBSERVED[0]: first, OBSERVED[1]: second}

    def sweep(self) -> SweepRequest:
        return SweepRequest(
            dataset=POPULATION, function=MAIN_FUNCTION, weights=[self.vector()],
            min_partition_size=WHATIF_MPS,
        )


def client_stream(deployment: Deployment, issued: set) -> Iterator[object]:
    """The endless request stream of the client in the timed phase.

    * warm-explore: the hot set, reshuffled every cycle;
    * cold-whatif: one fresh single-vector sweep after another.
    """
    if deployment.spec.name == "cold-whatif":
        fresh = FreshStream(deployment, 0, issued)
        while True:
            yield fresh.sweep()
    rng = random.Random(f"{deployment.seed}:order")
    while True:
        order = list(deployment.hot)
        rng.shuffle(order)
        yield from order


def warmup_items(deployment: Deployment, stream: Iterator[object]) -> List[object]:
    """Untimed requests that bring caches and store pools to steady state.

    Fresh what-ifs are drawn from the client's own stream, so the timed
    phase continues where the warm-up stopped and never repeats one.
    """
    items: List[object] = deployment.hot * 2
    items += [next(stream) for _ in range(deployment.spec.warmup_stream)]
    return items


def describe(deployment: Deployment) -> str:
    spec = deployment.spec
    text = (
        f"workload {spec.name}: {spec.rows}-row population, seed {deployment.seed}, "
        "one server process, one closed-loop client"
    )
    if deployment.quantify_mps:
        text += f", hot quantify min_partition_size {deployment.quantify_mps}"
    return text
