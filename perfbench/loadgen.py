"""The untraced load generator: boot ``fairank serve``, drive a closed loop, verify.

The client is a closed loop — it sends its next request only after the
previous answer is decoded — because each interactive FaiRank user waits
for a reply before asking again.  One client in one process: the machine
the bounds were set on has two cores, one for the server and one for the
client.  Latency is the client's wall clock from send to decoded
:class:`~repro.service.jobs.ServiceResult` (the public
:class:`~repro.server.client.HTTPFairnessClient`).  Verification happens
after the clock stops and before the next send: every response's
``canonical()`` is byte-compared with the in-process oracle.

Server resources are read from ``/proc/<pid>`` of the server process tree
(the router plus the worker pids its ``/v2/health`` reports), so this module
is Linux-only.

The reported timings are at a reference host speed.  The machines this
runs on are shared: the speed of the same fixed work drifted by half
between runs minutes apart, which moved every timing with it.
:func:`calibrate` times a fixed bundle of work that uses nothing of
FaiRank's, between the windows of a timed phase and around every boot; a
timing is scaled by the host speed measured around it over
:data:`REFERENCE_SPEED`.  Timings as measured are printed beside them.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import queue
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from repro.errors import ServiceError
from repro.server import HTTPFairnessClient

from workloads import Deployment, request_id

BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
CLIENT_TIMEOUT_S = 60.0
_PORT_PATTERN = re.compile(r"serving fairness protocol v2 on http://[\d.]+:(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Calibration bundles per second that a timing is scaled to (about the
#: median of the 2-vCPU machine the bounds were set on).
REFERENCE_SPEED = 150.0
CALIBRATION_S = 0.2
_CALIBRATION_ARRAY = np.random.default_rng(0).random(100_000)
_CALIBRATION_DOCUMENT = {f"k{index}": [index, index * 0.5, "x" * 10] for index in range(3000)}


def calibrate(seconds: float = CALIBRATION_S) -> float:
    """Host speed: bundles of fixed work per second, over ``seconds``.

    A bundle mixes what the server spends its time on (interpreter loops, a
    numpy sort of 100k floats, a JSON round trip) and calls nothing of
    FaiRank's, so no change to the program moves it.  The client's garbage
    collector is off meanwhile: its heap grows during a run, and a
    collection would make the host look slower late in a run than early.
    """
    bundles = 0
    gc.disable()
    try:
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            sum(range(20_000))
            np.argsort(_CALIBRATION_ARRAY)
            json.loads(json.dumps(_CALIBRATION_DOCUMENT))
            bundles += 1
        return bundles / (time.perf_counter() - started)
    finally:
        gc.enable()


class _BodyBytes(urllib.request.BaseHandler):
    """Records the last response's ``Content-Length``.

    Installed as a urllib response processor, so the benchmark counts bytes
    on the wire without touching the client's transport code.  It runs
    before urllib's error processor, so 4xx/5xx bodies are counted too.
    """

    handler_order = 100

    def __init__(self) -> None:
        self.last = 0

    def http_response(self, request, response):
        self.last = int(response.headers.get("Content-Length") or 0)
        return response

    def take(self) -> int:
        value, self.last = self.last, 0
        return value


BODY_BYTES = _BodyBytes()
urllib.request.install_opener(urllib.request.build_opener(BODY_BYTES))


def _get_json(url: str, timeout: float = 10.0) -> Dict[str, object]:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


def proc_cpu_ms(pid: int) -> float:
    """utime + stime of one process, in milliseconds."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * 1000.0 / _CLOCK_TICKS


def proc_memory_mb(pid: int, field_name: str) -> float:
    """A ``/proc/<pid>/status`` memory field (``VmRSS``, ``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(f"{field_name}:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"/proc/{pid}/status has no {field_name} line")


def _pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class Server:
    """One ``fairank serve`` deployment booted from a snapshot as a subprocess."""

    def __init__(self, root: Path, snapshot: Path, workers: int) -> None:
        self.root = root
        self.snapshot = snapshot
        self.workers = workers
        self.process: Optional[subprocess.Popen] = None
        self.base_url = ""
        self.worker_urls: List[str] = []
        self.pids: List[int] = []
        self.setup_s = 0.0
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._pump: Optional[threading.Thread] = None

    def start(self) -> "Server":
        """Spawn the server and wait until ``/v2/health`` answers ok."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # The server answers each connection on a new thread, and glibc gives
        # threads up to 8 arenas per core: freed score vectors then sit in
        # whichever arenas the run happened to touch, and resident memory
        # drifts by ~60MiB within one 100k-row run.  Two arenas (a common
        # setting for Python servers) keep it at its plateau.
        env["MALLOC_ARENA_MAX"] = "2"
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--catalog", str(self.snapshot),
             "--host", "127.0.0.1", "--port", "0", "--workers", str(self.workers)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
            cwd=str(self.snapshot.parent),
        )
        self._pump = threading.Thread(target=self._drain, daemon=True)
        self._pump.start()
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        port = None
        tail: List[str] = []
        while port is None:
            try:
                line = self._lines.get(timeout=max(0.05, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None or time.monotonic() > deadline:
                self.stop()
                raise ServiceError("server never announced its port:\n" + "\n".join(tail))
            tail = (tail + [line.rstrip()])[-20:]
            match = _PORT_PATTERN.search(line)
            if match:
                port = int(match.group(1))
        self.base_url = f"http://127.0.0.1:{port}"
        while True:
            try:
                health = _get_json(f"{self.base_url}/v2/health", timeout=5.0)
            except (urllib.error.URLError, OSError, ValueError):
                health = {}  # not answering yet: poll until the boot deadline
            if health.get("status") == "ok":
                break
            if time.monotonic() > deadline:
                self.stop()
                raise ServiceError(f"server at {self.base_url} never reported healthy")
            time.sleep(0.01)
        self.setup_s = time.perf_counter() - started
        self.pids = [self.process.pid]
        if self.workers > 1:
            slots = health["workers"]["slots"]  # type: ignore[index]
            self.pids += [int(slot["pid"]) for slot in slots]
            self.worker_urls = [str(slot["url"]) for slot in slots]
        return self

    def _drain(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def client(self) -> HTTPFairnessClient:
        return HTTPFairnessClient(self.base_url, raise_errors=False, timeout=CLIENT_TIMEOUT_S)

    def health(self) -> Dict[str, object]:
        return _get_json(f"{self.base_url}/v2/health")

    def cpu_ms(self) -> float:
        return sum(proc_cpu_ms(pid) for pid in self.pids)

    def memory_mb(self, field_name: str = "VmRSS") -> float:
        return sum(proc_memory_mb(pid, field_name) for pid in self.pids)

    def stop(self) -> None:
        """SIGTERM the server (the router stops its workers) and reap every pid."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=STOP_TIMEOUT_S)
        # Workers run in their own sessions; the router normally stops them,
        # but a router that died hard would leave them behind.
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in self.pids[1:]:
            while _pid_alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _pid_alive(pid):
                os.kill(pid, 9)
        if self._pump is not None:
            self._pump.join(timeout=STOP_TIMEOUT_S)
        self.process = None


def boot(root: Path, deployment: Deployment,
         boots: int) -> Tuple[Server, List[float], List[float]]:
    """Boot the deployment ``boots`` times; keep the last one running.

    Returns the server, each boot's set-up seconds and each boot's scale
    (host speed around it over :data:`REFERENCE_SPEED`).
    """
    times, scales = [], []
    speed = calibrate()
    for attempt in range(boots):
        server = Server(root, deployment.snapshot, 1).start()
        after = calibrate()
        times.append(server.setup_s)
        scales.append((speed + after) / 2 / REFERENCE_SPEED)
        speed = after
        if attempt < boots - 1:
            server.stop()
    return server, times, scales


@dataclass
class Window:
    """One window of a timed phase, from its first send to its last answer."""

    start: float
    end: float
    #: Server CPU time spent inside the window.
    cpu_ms: float
    #: Server resident memory at the window's end.
    rss_mb: float
    #: Host speed around the window over :data:`REFERENCE_SPEED`.
    scale: float


@dataclass
class Phase:
    """Outcome of one phase (warm-up or timed) of a closed-loop run."""

    name: str
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    exchanges: int = 0
    #: (completion time, latency, response bytes) of every answered exchange.
    completions: List[Tuple[float, float, int]] = field(default_factory=list)
    windows: List[Window] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: (request, canonical) of fresh requests, checked after the phase.
    pending: List[Tuple[object, str]] = field(default_factory=list)

    def line(self) -> str:
        return (f"phase {self.name}: sent {self.sent}, succeeded {self.succeeded}, "
                f"failed {self.failed} ({self.exchanges} HTTP exchanges)")


class ClosedLoop:
    """One closed-loop client against one server, verified against the oracle."""

    def __init__(self, deployment: Deployment, server: Server) -> None:
        self.deployment = deployment
        self.server = server
        self.hot_expected = {
            request_id(request): deployment.expected(request) for request in deployment.hot
        }

    def _record(self, phase: Phase, request, result, elapsed: float, done: float) -> None:
        phase.exchanges += 1
        phase.sent += 1
        phase.completions.append((done, elapsed, BODY_BYTES.take()))
        if not result.ok:
            phase.failed += 1
            phase.failures.append(f"{request.kind}: error {result.error}")
            return
        canonical = result.canonical()
        expected = self.hot_expected.get(request_id(request))
        if expected is None:
            phase.pending.append((request, canonical))
        elif canonical == expected:
            phase.succeeded += 1
        else:
            phase.failed += 1
            phase.failures.append(f"{request.kind}: canonical mismatch")

    def run(self, phase: Phase, requests: Iterator[object],
            seconds: Optional[float] = None) -> Phase:
        """Send every request (or keep sending for ``seconds``) into ``phase``."""
        client = self.server.client()
        deadline = None if seconds is None else time.perf_counter() + seconds
        for request in requests:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            started = time.perf_counter()
            try:
                # _run is the one transport hook behind all seven per-kind
                # methods; the stream already holds built request objects.
                result = client._run(request)
            except (ServiceError, OSError, http.client.HTTPException) as error:
                phase.exchanges += 1
                phase.sent += 1
                phase.failed += 1
                phase.failures.append(f"{type(error).__name__}: {error}")
                continue
            done = time.perf_counter()
            self._record(phase, request, result, done - started, done)
        return phase

    def timed(self, requests: Iterator[object], seconds: float, windows: int) -> Phase:
        """The timed phase: ``windows`` equal windows with calibrations between.

        The server idles while the host speed is measured, so each window
        starts where the previous one stopped.
        """
        phase = Phase("timed")
        speed = calibrate()
        for _ in range(windows):
            cpu_ms, started = self.server.cpu_ms(), time.perf_counter()
            self.run(phase, requests, seconds / windows)
            ended = time.perf_counter()
            cpu_ms = self.server.cpu_ms() - cpu_ms
            rss_mb = self.server.memory_mb()
            after = calibrate()
            phase.windows.append(Window(started, ended, cpu_ms, rss_mb,
                                        (speed + after) / 2 / REFERENCE_SPEED))
            speed = after
        return phase

    def settle(self, phase: Phase) -> None:
        """Check the fresh responses of a phase against the oracle."""
        for request, canonical in phase.pending:
            if canonical == self.deployment.expected(request):
                phase.succeeded += 1
            else:
                phase.failed += 1
                phase.failures.append(f"{request.kind}: canonical mismatch (fresh)")
        phase.pending.clear()


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(round(share * len(ordered) + 0.5))))
    return ordered[rank - 1]


def window_values(phase: Phase) -> Dict[str, List[float]]:
    """Per-window latency p50/p90, throughput and server CPU per exchange,
    each at the reference host speed."""
    values: Dict[str, List[float]] = {
        "latency_p50_ms": [], "latency_p90_ms": [], "throughput_rps": [],
        "server_cpu_ms_per_req": [],
    }
    for window in phase.windows:
        latencies = [latency * 1000.0 for done, latency, _ in phase.completions
                     if window.start <= done <= window.end]
        if not latencies:
            continue
        values["latency_p50_ms"].append(percentile(latencies, 0.50) * window.scale)
        values["latency_p90_ms"].append(percentile(latencies, 0.90) * window.scale)
        values["throughput_rps"].append(
            len(latencies) / (window.end - window.start) / window.scale)
        values["server_cpu_ms_per_req"].append(window.cpu_ms / len(latencies) * window.scale)
    return values
