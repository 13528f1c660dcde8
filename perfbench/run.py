"""FaiRank serving benchmark: one seeded run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-explore --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it boots the real ``fairank serve`` from a seeded catalog
snapshot, drives the workload's closed-loop client for ``--seconds`` and
prints the end-to-end metrics.  With ``--trace 1`` it replays the same
stream through each layer's public calls under a span recorder and prints
the per-layer metrics (see ``tracing.py``).  Every response is byte-compared
with an in-process oracle built from the same snapshot.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--record FILE`` also appends the result, stamped with
commit, python version, ``nproc`` and seed, to a JSON-lines file that
``runsets.py`` reads.

The benchmark builds nothing: it runs the package from ``src/`` of the
checkout it sits in, and exits 2 when that is missing.  Resource sampling
reads ``/proc``, so it runs on Linux only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BOOTS = 5
#: The timed phase is cut into this many equal windows, with the host speed
#: measured between them; latency, throughput and CPU per exchange are the
#: median over the windows of each window's value at the reference speed,
#: so a burst of noise that covers fewer than half of them does not move it.
WINDOWS = 10


def _fail(message: str) -> "SystemExit":
    print(f"perfbench: {message}", file=sys.stderr)
    return SystemExit(2)


def untraced(deployment, seconds: float) -> Tuple[Dict[str, float], List[str], int, int]:
    import loadgen
    from workloads import client_stream, warmup_items

    server, boot_times, boot_scales = loadgen.boot(ROOT, deployment, BOOTS)
    try:
        loop = loadgen.ClosedLoop(deployment, server)
        stream = client_stream(deployment, set())
        warm = loop.run(loadgen.Phase("warmup"), iter(warmup_items(deployment, stream)))
        loop.settle(warm)
        # The oracle's caches are the client process's largest heap; keep the
        # client's own garbage collections from rescanning them while timing.
        gc.freeze()
        timed = loop.timed(stream, seconds, WINDOWS)
        peak_mb = server.memory_mb("VmHWM")
    finally:
        server.stop()
    loop.settle(timed)
    windows = loadgen.window_values(timed)
    if not windows["throughput_rps"]:
        raise _fail("no request completed in the timed phase: "
                    + "; ".join((warm.failures + timed.failures)[:5]))
    latencies_ms = [latency * 1000.0 for _, latency, _ in timed.completions]
    busy_s = sum(window.end - window.start for window in timed.windows)
    metrics = {name: statistics.median(values) for name, values in windows.items()}
    metrics.update({
        "setup_s": statistics.median(
            boot * scale for boot, scale in zip(boot_times, boot_scales)),
        "success_ratio": timed.succeeded / max(timed.sent, 1),
        "response_bytes_mean": statistics.fmean(size for _, _, size in timed.completions),
        # Resident memory while serving, not the VmHWM peak: garbage that
        # waits for a collection swings the peak by ~200MB from run to run.
        "server_rss_mb": statistics.median(window.rss_mb for window in timed.windows),
    })
    lines = [
        f"setup: {len(boot_times)} boots, spawn to /v2/health ok "
        + ", ".join(f"{value:.3f}s" for value in boot_times)
        + "; host speed scale " + ", ".join(f"{scale:.3f}" for scale in boot_scales),
        warm.line(),
        timed.line(),
        f"latency samples: {len(latencies_ms)} exchanges; per window "
        + ", ".join(str(sum(window.start <= done <= window.end
                            for done, _, _ in timed.completions))
                    for window in timed.windows)
        + f"; error_ratio {timed.failed / max(timed.sent, 1):.4f}",
        "host speed scale per window (calibration bundles/s over "
        f"{loadgen.REFERENCE_SPEED:g}): "
        + ", ".join(f"{window.scale:.3f}" for window in timed.windows),
        f"as measured, pooled over the whole phase: "
        f"p50 {loadgen.percentile(latencies_ms, 0.5):.3f} ms, "
        f"p90 {loadgen.percentile(latencies_ms, 0.9):.3f} ms, "
        f"{len(latencies_ms) / busy_s:.3f} exchanges/s",
        "server resources: /proc of the server process tree "
        f"(pids {', '.join(str(pid) for pid in server.pids)}; Linux only); "
        f"peak resident (VmHWM) {peak_mb:.1f} MiB; resident (VmRSS) at window ends "
        + ", ".join(f"{window.rss_mb:.1f}" for window in timed.windows) + " MiB",
    ]
    lines.extend(f"per window {name} (at reference speed): "
                 + ", ".join(f"{value:.3f}" for value in values)
                 for name, values in windows.items())
    lines.extend(f"  ! {failure}" for failure in (warm.failures + timed.failures)[:20])
    return (metrics, lines, warm.sent + timed.sent, warm.failed + timed.failed)


def _stamp(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    commit = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = found.stdout.strip() or commit
    return {
        "commit": commit, "python": platform.python_version(), "nproc": os.cpu_count(),
        "seed": seed, "workload": workload, "seconds": seconds, "trace": trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append the stamped result to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        raise _fail(f"no FaiRank sources under {ROOT / 'src'}; run from a full checkout")
    if not Path("/proc/self/stat").exists():
        raise _fail("server resource sampling needs Linux /proc")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, build_deployment, describe

    if args.workload not in WORKLOADS:
        raise _fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = document["per_layer" if args.trace else "end_to_end"]
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        deployment = build_deployment(WORKLOADS[args.workload], args.seed, workdir)
        print(describe(deployment))
        if args.trace:
            from tracing import run_traced

            spans = ROOT / ".perfbench-work" / "spans" / f"{args.workload}-s{args.seed}.jsonl"
            values, lines, attempted, failed = run_traced(ROOT, deployment, args.seconds, spans)
        else:
            values, lines, attempted, failed = untraced(deployment, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    missing = [entry["name"] for entry in section if entry["name"] not in values]
    if missing:
        raise _fail(f"the run measured no value for {', '.join(missing)}")
    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
               for entry in section}
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>14.4f} {metric['unit']}")
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.record is not None:
        record = {"stamp": _stamp(args.workload, args.seed, args.seconds, args.trace),
                  "result": result}
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
