"""End-to-end CI gate for the HTTP front end.

Exercises the full deployment workflow exactly as an operator would:

1. build a catalog snapshot with ``fairank catalog --save``;
2. boot ``fairank serve --catalog <snapshot> --port 0`` as a real
   subprocess and parse the bound port from its stdout;
3. fire one request per protocol-v2 kind (all seven), a quantify that
   addresses ``table1`` by content-fingerprint prefix, and a mixed batch
   (with a duplicate slot and a slot naming an unknown dataset, sent under
   a pinned trace id) through :class:`~repro.server.client.HTTPFairnessClient`,
   then 20 quantify POSTs on one keep-alive connection within 0.4s, then
   100 quantify POSTs on fresh connections, one after another, over which
   no serving process (router and workers alike) may grow by more than one
   thread or four open descriptors (read from ``/proc/<pid>/status`` and
   ``/proc/<pid>/fd``; skipped where they are absent); sharded, one worker
   is then SIGKILLed and, once the pool has restarted it, the same bound
   holds over the kill and 100 more POSTs;
4. assert every HTTP response is byte-identical (``ServiceResult.canonical``)
   to the in-process :class:`~repro.service.client.FairnessClient` answer
   over a service booted from the *same* snapshot, and that the result
   cache holds exactly one entry per distinct request key sent;
5. terminate the server (SIGTERM) and fail unless it drains and exits 0.

With ``--workers N`` (N > 1) the same gate runs against the *sharded*
deployment: ``fairank serve --workers N`` boots a fingerprint-routing
``ShardRouter`` over N snapshot-booted worker processes, and every response
must still be byte-identical to in-process serving.

Exit code 0 only when every step passed.  The CI job wraps this script in
``timeout``, so a server that never binds (hung port) or never answers also
fails the gate.  Run locally with::

    PYTHONPATH=src python scripts/ci_serve_e2e.py [--workers 3]
"""

from __future__ import annotations

import argparse
import os
import queue
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Environment for the fairank subprocesses (they need src importable too).
SUBPROCESS_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ),
)

from repro.catalog import Catalog  # noqa: E402
from repro.obs.metrics import parse_prometheus  # noqa: E402
from repro.obs.trace import TRACE_HEADER, Trace, activate  # noqa: E402
from repro.server import HTTPFairnessClient  # noqa: E402
from repro.shard.router import ROUTE_MS_HEADER  # noqa: E402
from repro.shard.routing import request_references, routing_key, worker_slot  # noqa: E402
from repro.snapshot import snapshot_fingerprints  # noqa: E402
from repro.service import (  # noqa: E402
    AuditRequest,
    BatchExecutor,
    FairnessClient,
    FairnessService,
    QuantifyRequest,
    ServiceResult,
    SweepRequest,
)

MARKET_SIZE = "60"
BOOT_TIMEOUT_S = 60.0

#: Requests executed per kind by the gate before the metrics scrape: one
#: single call each, the fingerprint-prefix quantify, plus the
#: quantify/sweep/audit entries of the batch leg (the counter increments per
#: execute, cache hit or not; the batch's duplicate slot and its
#: unknown-dataset slot never reach execute).
EXPECTED_REQUESTS = {
    "quantify": 3,
    "audit": 2,
    "sweep": 2,
    "compare": 1,
    "breakdown": 1,
    "end_user": 1,
    "job_owner": 1,
}


def check_metrics(port: int, workers: int) -> int:
    """Scrape ``/v2/metrics`` and audit the request counters. Returns failures."""
    import urllib.request

    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/v2/metrics", timeout=60
    ) as response:
        content_type = response.headers.get("Content-Type", "")
        body = response.read().decode("utf-8")
    failures = 0
    if "text/plain" not in content_type:
        failures += 1
        print(f"[e2e] FAIL: /v2/metrics content type {content_type!r}")
    page = parse_prometheus(body)  # raises SystemExit-worthy ValueError if malformed
    executed = page.sum_by_label("fairank_requests_total", "kind")
    observed_latency = page.sum_by_label("fairank_request_seconds_count", "kind")
    for kind, expected in EXPECTED_REQUESTS.items():
        observed = executed.get(kind, 0.0)
        if observed != expected:
            failures += 1
            print(f"[e2e] FAIL: fairank_requests_total kind={kind} is "
                  f"{observed:g}, expected {expected}")
        if observed_latency.get(kind, 0.0) != expected:
            failures += 1
            print(f"[e2e] FAIL: fairank_request_seconds has no full latency "
                  f"record for kind={kind}")
    response_bytes = page.sum_by_label("fairank_http_response_bytes_count", "endpoint")
    for kind in EXPECTED_REQUESTS:
        if response_bytes.get(f"/v2/{kind}", 0.0) < 1:
            failures += 1
            print(f"[e2e] FAIL: fairank_http_response_bytes has no sample for "
                  f"endpoint=/v2/{kind}")
    if workers > 1:
        ingress = page.sum_by_label("fairank_router_requests_total", "endpoint")
        if not ingress:
            failures += 1
            print("[e2e] FAIL: router metrics page carries no "
                  "fairank_router_requests_total samples")
        if not page.sum_by_label("fairank_router_response_bytes_count", "endpoint"):
            failures += 1
            print("[e2e] FAIL: router metrics page carries no "
                  "fairank_router_response_bytes samples")
    if not failures:
        surface = "aggregated fleet" if workers > 1 else "server"
        print(f"[e2e] metrics: {surface} page parses, per-kind counters match "
              f"({sum(EXPECTED_REQUESTS.values())} requests accounted for)")
    return failures


def check_cache_entries(remote, workers: int, keys: "set[str]") -> int:
    """The result cache holds one entry per distinct request key, nothing else."""
    health = remote.health()
    if workers > 1:
        caches = [entry["cache"] for entry in health["workers"]["health"]]
    else:
        caches = [health["cache"]]
    entries = sum(int(cache["entries"]) for cache in caches)
    if entries != len(keys):
        print(f"[e2e] FAIL: result cache holds {entries} entries for "
              f"{len(keys)} distinct request keys")
        return 1
    print(f"[e2e] cache: {entries} entries, one per distinct request key")
    return 0


def check_trace(port: int, workers: int) -> int:
    """Pin a trace id through one request and audit the envelope timings."""
    import json
    import urllib.request

    pinned = "e2e-pinned-trace"
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v2/quantify",
        data=json.dumps(
            QuantifyRequest(dataset="table1", function="table1-f").to_json()
        ).encode("utf-8"),
        headers={TRACE_HEADER: pinned},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        route_ms = response.headers.get(ROUTE_MS_HEADER)
        timings = json.loads(response.read()).get("timings") or {}
    failures = 0
    if timings.get("trace_id") != pinned:
        failures += 1
        print(f"[e2e] FAIL: envelope trace id {timings.get('trace_id')!r} is not "
              f"the pinned ingress id {pinned!r}")
    if "total_ms" not in timings:
        failures += 1
        print(f"[e2e] FAIL: envelope timings carry no total_ms: {timings}")
    if workers > 1 and route_ms is None:
        failures += 1
        print(f"[e2e] FAIL: router sent no {ROUTE_MS_HEADER} header")
    if not failures:
        hops = "client -> router -> worker" if workers > 1 else "client -> server"
        print(f"[e2e] trace: one id spans {hops} "
              f"(total {timings.get('total_ms')} ms)")
    return failures


#: Keep-alive leg: POSTs timed on one connection and their time budget.
KEEPALIVE_POSTS = 20
KEEPALIVE_BUDGET_S = 0.4


def check_keepalive(port: int, reference) -> int:
    """Time quantify POSTs on one HTTP/1.1 keep-alive connection.

    Every answer must be byte-identical to in-process, and all of them must
    fit the budget: a response that waits on the client's delayed ACK
    (Nagle's algorithm on the server socket) costs ~40ms each.
    """
    import http.client
    import json

    body = json.dumps(QuantifyRequest(dataset="table1", function="table1-f").to_json())
    expected = reference.quantify("table1", "table1-f").canonical()
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    failures = 0
    try:
        started = time.perf_counter()
        for index in range(KEEPALIVE_POSTS + 1):
            if index == 1:  # the first POST may compute; time the rest
                started = time.perf_counter()
            connection.request(
                "POST", "/v2/quantify", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            if ServiceResult.from_json(payload).canonical() != expected:
                failures += 1
        elapsed = time.perf_counter() - started
    finally:
        connection.close()
    if failures:
        print(f"[e2e] FAIL: {failures} keep-alive answer(s) diverged from in-process")
    if elapsed >= KEEPALIVE_BUDGET_S:
        failures += 1
        print(f"[e2e] FAIL: {KEEPALIVE_POSTS} keep-alive POSTs took {elapsed:.3f}s "
              f"(budget {KEEPALIVE_BUDGET_S}s)")
    if not failures:
        print(f"[e2e] keep-alive: {KEEPALIVE_POSTS} POSTs on one connection in "
              f"{elapsed * 1000:.0f} ms, byte-identical")
    return failures


#: Growth leg: untimed warm-up POSTs, then sequential fresh-connection POSTs
#: and what a serving process may add over them.  One more acceptor thread
#: may start when a client reconnects before the thread that answered it is
#: back in accept(); a thread per connection would add one per request.  A
#: descriptor leaked per request (socket, pipe or file) would add 100.
GROWTH_WARMUP = 10
GROWTH_POSTS = 100
THREAD_GROWTH_ALLOWED = 1
FD_GROWTH_ALLOWED = 4


def thread_count(pid: int) -> "int | None":
    """The ``Threads:`` line of ``/proc/<pid>/status``; None without /proc."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def fd_count(pid: int) -> "int | None":
    """The entries of ``/proc/<pid>/fd``; None without /proc."""
    try:
        return len(os.listdir(f"/proc/{pid}/fd"))
    except OSError:
        return None


#: ``(what, probe, growth allowed)`` per serving process.
GROWTH_PROBES = (
    ("threads", thread_count, THREAD_GROWTH_ALLOWED),
    ("descriptors", fd_count, FD_GROWTH_ALLOWED),
)


def serving_pids(process: subprocess.Popen, workers: int, remote) -> "dict[str, int]":
    """The pid of every serving process: the server, or the router and workers."""
    pids = {("router" if workers > 1 else "server"): process.pid}
    if workers > 1:
        for entry in remote.health()["workers"]["health"]:
            pids[f"worker {entry['slot']}"] = int(entry["pid"])
    return pids


GROWTH_REQUEST = QuantifyRequest(dataset="table1", function="table1-f")


def post_growth_request(port: int) -> None:
    """One :data:`GROWTH_REQUEST` POST on a fresh connection."""
    import json
    import urllib.request

    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v2/quantify",
        data=json.dumps(GROWTH_REQUEST.to_json()).encode("utf-8"),
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        response.read()


def sample_growth(pids: "dict[str, int]") -> dict:
    """``(what, process name) -> count`` for every probe and process."""
    return {(what, name): probe(pid)
            for what, probe, _ in GROWTH_PROBES for name, pid in pids.items()}


def report_growth(before: dict, after: dict, names, over: str) -> int:
    """Print each probe's counts; one failure per process that grew too much."""
    failures = 0
    for what, _, allowed in GROWTH_PROBES:
        for name in names:
            start, end = before[what, name], after[what, name] or 0
            if end - start > allowed:
                failures += 1
                print(f"[e2e] FAIL: {name} went from {start} to {end} {what} "
                      f"over {over} (at most {allowed} more allowed)")
        counts = ", ".join(
            f"{name} {before[what, name]} -> {after[what, name]}" for name in names
        )
        print(f"[e2e] {what} over {over}: {counts}")
    return failures


def check_growth(process: subprocess.Popen, port: int, workers: int,
                 remote) -> int:
    """POST sequentially on fresh connections; no serving process may grow
    by more than :data:`THREAD_GROWTH_ALLOWED` threads or
    :data:`FD_GROWTH_ALLOWED` open descriptors."""
    pids = serving_pids(process, workers, remote)
    for _ in range(GROWTH_WARMUP):  # the first answer may compute
        post_growth_request(port)
    before = sample_growth(pids)
    if None in before.values():
        print("[e2e] growth: skipped (no /proc/<pid>/status or fd here)")
        return 0
    for _ in range(GROWTH_POSTS):
        post_growth_request(port)
    return report_growth(
        before, sample_growth(pids), pids, f"{GROWTH_POSTS} sequential connections"
    )


#: How long a SIGKILLed worker may take to be replaced by the pool.
RESTART_TIMEOUT_S = 60.0


def check_worker_kill(process: subprocess.Popen, port: int, workers: int,
                      remote, snapshot: Path) -> int:
    """SIGKILL the worker that serves :data:`GROWTH_REQUEST`, wait for its
    restart, then POST as :func:`check_growth` does.  Over the kill, the
    restart and the next POSTs, the router and the surviving workers may
    grow by at most the same constants, measured from before the kill (the
    router must close its side of the dead worker: its stdout pipe and its
    pooled connections); the replacement is measured from its warm-up."""
    pids = serving_pids(process, workers, remote)
    before = sample_growth(pids)
    if None in before.values():
        print("[e2e] worker kill: skipped (no /proc/<pid>/status or fd here)")
        return 0
    key = routing_key(
        request_references(GROWTH_REQUEST.to_json()), snapshot_fingerprints(snapshot)
    )
    victim = f"worker {worker_slot(key, workers)}"
    os.kill(pids[victim], signal.SIGKILL)
    deadline = time.monotonic() + RESTART_TIMEOUT_S
    while True:
        health = remote.health()
        restarted = {
            f"worker {entry['slot']}": int(entry["pid"])
            for entry in health["workers"]["health"]
            if entry["alive"]
        }
        if health["status"] == "ok" and restarted.get(victim) not in (None, pids[victim]):
            break
        if time.monotonic() > deadline:
            print(f"[e2e] FAIL: {victim} was not restarted within {RESTART_TIMEOUT_S}s")
            return 1
        time.sleep(0.1)
    print(f"[e2e] {victim} SIGKILLed (pid {pids[victim]}), restarted as pid "
          f"{restarted[victim]}")
    pids[victim] = restarted[victim]
    for _ in range(GROWTH_WARMUP):  # the replacement's first answer computes
        post_growth_request(port)
    before.update(sample_growth({victim: pids[victim]}))
    for _ in range(GROWTH_POSTS):
        post_growth_request(port)
    return report_growth(
        before, sample_growth(pids), pids,
        f"a worker kill and {GROWTH_POSTS} sequential connections",
    )


def check_prefix_quantify(remote, snapshot: Path, keys: "set[str]") -> int:
    """Address ``table1`` by fingerprint prefix right after the named quantify.

    The answer must echo the prefix and match a *fresh* in-process service:
    the shared reference has just served the named request as well, so a
    cache key that ignored the name would be wrong there in the same way.
    """
    prefix = snapshot_fingerprints(snapshot)[("dataset", "table1")][:12]
    result = remote.quantify(prefix, "table1-f")
    fresh = FairnessClient(FairnessService(catalog=Catalog.load(snapshot)))
    expected = fresh.quantify(prefix, "table1-f")
    keys.add(expected.key)
    failures = 0
    if result.payload.get("dataset") != prefix:
        failures += 1
        print(f"[e2e] FAIL: prefix quantify echoes dataset "
              f"{result.payload.get('dataset')!r}, not {prefix!r}")
    if result.canonical() != expected.canonical():
        failures += 1
        print("[e2e] FAIL: prefix quantify diverged from a fresh in-process service")
    if not failures:
        print(f"[e2e] quantify by prefix {prefix}: byte-identical to a fresh service")
    return failures


def build_snapshot(path: Path) -> None:
    subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "catalog",
            "--save", str(path), "--market-size", MARKET_SIZE,
        ],
        check=True,
        timeout=120,
        env=SUBPROCESS_ENV,
    )
    print(f"[e2e] snapshot built: {path} ({path.stat().st_size} bytes)")


def boot_server(
    snapshot: Path, workers: int, warm_dir: "Path | None" = None
) -> "tuple[subprocess.Popen, int]":
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--catalog", str(snapshot), "--port", "0",
            "--workers", str(workers),
        ]
        + (["--warm-dir", str(warm_dir)] if warm_dir is not None else []),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert process.stdout is not None
    # Read stdout on a thread: a server that binds but never prints would
    # otherwise block readline forever and the deadline would never fire.
    lines: "queue.Queue[str | None]" = queue.Queue()

    def pump() -> None:
        for line in process.stdout:  # type: ignore[union-attr]
            lines.put(line)
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while True:
        try:
            line = lines.get(timeout=max(0.1, deadline - time.monotonic()))
        except queue.Empty:
            break
        if line is None:  # stdout closed: the server exited before binding
            break
        print(f"[serve] {line.rstrip()}")
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            return process, int(match.group(1))
        if time.monotonic() > deadline:
            break
    process.kill()
    raise SystemExit(
        f"[e2e] FAIL: server never announced a bound port within {BOOT_TIMEOUT_S:.0f}s"
    )


def scenario_calls(client):
    """One call per protocol-v2 request kind, against either client."""
    return [
        ("quantify", lambda: client.quantify("table1", "table1-f")),
        ("audit", lambda: client.audit("crowdsourcing-sim", min_partition_size=5)),
        ("compare", lambda: client.compare("table1", ["table1-f", "balanced"])),
        ("breakdown", lambda: client.breakdown("table1", "table1-f")),
        ("sweep", lambda: client.sweep("table1", "table1-f", steps=3)),
        (
            "end_user",
            lambda: client.end_user(
                {"Gender": "Female"}, ["crowdsourcing-sim"], "Content writing"
            ),
        ),
        (
            "job_owner",
            lambda: client.job_owner(
                "crowdsourcing-sim", "Content writing", sweep_steps=3
            ),
        ),
    ]


def shutdown_server(process: subprocess.Popen, context: str) -> int:
    """SIGTERM the server and fail unless it drains and exits 0."""
    process.terminate()
    try:
        exit_code = process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        print(f"[e2e] FAIL: {context} did not exit after SIGTERM")
        return 1
    if exit_code != 0:
        print(f"[e2e] FAIL: {context} exited {exit_code} after SIGTERM "
              "(graceful shutdown should exit 0)")
        return 1
    return 0


def fleet_scoring_passes(remote, workers: int) -> int:
    """Scoring passes summed over the server's or fleet's store pools."""
    health = remote.health()
    if workers > 1:
        pools = [entry["store_pool"] for entry in health["workers"]["health"]]
    else:
        pools = [health["store_pool"]]
    return sum(stats["scoring_passes"] for stats in pools)


#: The (dataset, function) pairs the warm leg warms: life 1 the first,
#: life 2 the second as well.
WARM_PAIRS = (("table1", "table1-f"), ("table1", "balanced"))


def check_warm_restart(
    snapshot: Path, workers: int, reference: FairnessClient, workdir: str
) -> int:
    """Restart leg: a SIGTERM'd --warm-dir fleet must reboot hot, twice.

    Life 1 boots cold with ``--warm-dir`` and warms one (dataset, function)
    pair; the graceful shutdown saves warm bundles (the result cache).
    Life 2 reboots from those bundles and must serve the same request
    byte-identically *from the reloaded cache*, with no scoring pass.  It
    then warms a second pair, and its shutdown re-saves into the same
    directory.  Life 3 must serve both pairs' earlier requests from the
    cache, byte-identically, and byte-match in-process serving on a novel
    formulation of each pair with at most one scoring pass per pair.
    """
    warm_dir = Path(workdir) / f"warm-{workers}"
    first, second = WARM_PAIRS
    expected = {pair: reference.quantify(*pair).canonical() for pair in WARM_PAIRS}
    failures = 0

    process, port = boot_server(snapshot, workers, warm_dir=warm_dir)
    try:
        remote = HTTPFairnessClient(f"http://127.0.0.1:{port}", timeout=60.0)
        if remote.quantify(*first).canonical() != expected[first]:
            failures += 1
            print("[e2e] FAIL: warm leg life 1 diverged from in-process")
    finally:
        failures += shutdown_server(process, "warm leg life 1")
    bundles = list(warm_dir.glob("**/manifest.json"))
    if not bundles:
        failures += 1
        print(f"[e2e] FAIL: graceful shutdown saved no warm bundle in {warm_dir}")
        return failures
    for manifest in bundles:
        saved = sorted(path.name for path in manifest.parent.iterdir())
        if saved != ["manifest.json", "results.json"]:
            failures += 1
            print(f"[e2e] FAIL: warm bundle {manifest.parent} holds {saved}; "
                  "expected only manifest.json and results.json")

    process, port = boot_server(snapshot, workers, warm_dir=warm_dir)
    try:
        remote = HTTPFairnessClient(f"http://127.0.0.1:{port}", timeout=60.0)
        result = remote.quantify(*first)
        if result.canonical() != expected[first]:
            failures += 1
            print("[e2e] FAIL: restarted fleet diverged from in-process")
        if not result.cached:
            failures += 1
            print("[e2e] FAIL: restarted fleet did not serve from the "
                  "reloaded result cache")
        passes = fleet_scoring_passes(remote, workers)
        if passes != 0:
            failures += 1
            print(f"[e2e] FAIL: restarted fleet re-scored ({passes} pass(es)) "
                  "for a request its reloaded cache holds")
        if remote.quantify(*second).canonical() != expected[second]:
            failures += 1
            print("[e2e] FAIL: warm leg life 2 diverged on the second pair")
        if not failures:
            print(f"[e2e] warm restart: {len(bundles)} bundle(s) reloaded, "
                  "first request cached + byte-identical with 0 scoring "
                  "passes; second pair warmed")
    finally:
        failures += shutdown_server(process, "warm leg life 2")

    process, port = boot_server(snapshot, workers, warm_dir=warm_dir)
    try:
        remote = HTTPFairnessClient(f"http://127.0.0.1:{port}", timeout=60.0)
        for pair in WARM_PAIRS:
            replay = remote.quantify(*pair)
            if not replay.cached or replay.canonical() != expected[pair]:
                failures += 1
                print(f"[e2e] FAIL: life 3 did not serve {pair} from the "
                      "re-saved cache byte-identically")
        for pair in WARM_PAIRS:
            novel = remote.quantify(*pair, aggregation="maximum")
            if novel.canonical() != reference.quantify(*pair, aggregation="maximum").canonical():
                failures += 1
                print(f"[e2e] FAIL: life 3 diverged from in-process on a novel "
                      f"formulation of {pair}")
        passes = fleet_scoring_passes(remote, workers)
        if passes > len(WARM_PAIRS):
            failures += 1
            print(f"[e2e] FAIL: life 3 made {passes} scoring pass(es) for "
                  f"{len(WARM_PAIRS)} novel pairs; expected at most one per pair")
        if not failures:
            print(f"[e2e] warm re-save: both pairs served from the cache, "
                  f"novel formulations byte-identical with {passes} scoring "
                  "pass(es)")
    finally:
        failures += shutdown_server(process, "warm leg life 3")
    return failures


def check_batch(remote, reference, keys: "set[str]") -> int:
    """A mixed batch under a pinned trace id, byte-compared to in-process.

    The batch holds a duplicate slot and a slot naming an unknown dataset;
    every slot (the error slot too) must echo the pinned trace id.
    """
    pinned = "e2e-pinned-batch"
    sweep = SweepRequest(dataset="table1", function="table1-f", steps=3)
    batch_requests = [
        QuantifyRequest(dataset="table1", function="table1-f"),
        sweep,
        QuantifyRequest(dataset="no-such-dataset", function="table1-f"),
        AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=5),
        sweep,
    ]
    with activate(Trace(pinned)):
        via_batch = remote.batch(batch_requests)
    expected = BatchExecutor(reference.service).run(batch_requests)
    failures = 0
    if len(via_batch) != len(expected):
        print(f"[e2e] FAIL: batch answered {len(via_batch)} envelopes for "
              f"{len(expected)} slots")
        return 1
    for index, (http_result, local_result) in enumerate(zip(via_batch, expected)):
        if local_result.error is None:
            keys.add(local_result.key)
        if http_result.canonical() != local_result.canonical():
            failures += 1
            print(f"[e2e] FAIL: batch slot {index} ({http_result.kind}) diverged")
        trace_id = (http_result.timings or {}).get("trace_id")
        if trace_id != pinned:
            failures += 1
            print(f"[e2e] FAIL: batch slot {index} carries trace id {trace_id!r}, "
                  f"not the pinned {pinned!r}")
    if via_batch[2].error is None:
        failures += 1
        print("[e2e] FAIL: the unknown-dataset slot served instead of erroring")
    if not failures:
        print(f"[e2e] batch of {len(batch_requests)} (1 duplicate, 1 bad slot): "
              f"byte-identical to BatchExecutor, order and trace id preserved")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes behind the shard router (1 = single-process)",
    )
    arguments = parser.parse_args()

    with tempfile.TemporaryDirectory() as workdir:
        snapshot = Path(workdir) / "deployment.json"
        build_snapshot(snapshot)

        # The in-process reference boots from the *same* snapshot, so any
        # divergence is the HTTP layer's fault, not the registry's.
        reference = FairnessClient(FairnessService(catalog=Catalog.load(snapshot)))

        process, port = boot_server(snapshot, arguments.workers)
        failures = 0
        try:
            remote = HTTPFairnessClient(f"http://127.0.0.1:{port}", timeout=60.0)
            health = remote.health()
            assert health["status"] == "ok", health
            if arguments.workers > 1:
                fleet = health["workers"]
                assert fleet["alive"] == arguments.workers, fleet
                print(f"[e2e] router health ok, {fleet['alive']} worker(s) alive, "
                      f"catalog: {health['catalog']}")
            else:
                print(f"[e2e] health ok, catalog: {health['catalog']}")

            keys: "set[str]" = set()
            for (kind, via_http), (_, in_process) in zip(
                scenario_calls(remote), scenario_calls(reference)
            ):
                http_result = via_http()
                local_result = in_process()
                keys.add(local_result.key)
                if http_result.canonical() == local_result.canonical():
                    print(f"[e2e] {kind}: byte-identical "
                          f"({http_result.elapsed_s * 1000:.1f} ms)")
                else:
                    failures += 1
                    print(f"[e2e] FAIL: {kind} diverged between HTTP and in-process")
                if kind == "quantify":
                    failures += check_prefix_quantify(remote, snapshot, keys)

            failures += check_batch(remote, reference, keys)
            failures += check_cache_entries(remote, arguments.workers, keys)

            # Scrape before the trace leg so the per-kind expectations above
            # stay exact; the extra traced quantify lands after the audit.
            failures += check_metrics(port, arguments.workers)
            failures += check_trace(port, arguments.workers)
            failures += check_keepalive(port, reference)
            failures += check_growth(process, port, arguments.workers, remote)
            if arguments.workers > 1:
                failures += check_worker_kill(
                    process, port, arguments.workers, remote, snapshot
                )
        finally:
            failures += shutdown_server(process, "server")

        failures += check_warm_restart(
            snapshot, arguments.workers, reference, workdir
        )

        if failures:
            print(f"[e2e] FAILED with {failures} mismatch(es)")
            return 1
        surface = (
            f"shard router over {arguments.workers} workers"
            if arguments.workers > 1
            else "HTTP front end"
        )
        print(f"[e2e] PASS: {surface} is byte-identical to in-process serving")
        return 0


if __name__ == "__main__":
    sys.exit(main())
