"""Collect, summarise and compare sets of benchmark runs.

A *run set* is a JSON-lines file of stamped results, one line per run, as
written by ``run.py --record``.  Three subcommands::

    python3 perfbench/runsets.py collect --seeds 1-10 --out runs-a.jsonl
    python3 perfbench/runsets.py show runs-a.jsonl
    python3 perfbench/runsets.py compare runs-a.jsonl runs-b.jsonl

``collect`` runs every workload of ``BENCHMARK.json`` (or ``--workloads``)
once per seed and prints each run's metrics by name and unit.  ``show``
prints, per workload and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (interquartile range
over the median) next to the metric's bound.  ``compare`` does the same for
two sets and says, per workload and metric, whether the second median is
within the bound of the first in the metric's worse direction and whether
both spreads stay within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def _benchmark() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> List[int]:
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def load(path: Path) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """``(workload, trace) -> metric -> values`` of one run set."""
    values: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            stamp, result = record["stamp"], record["result"]
            if not result["correct"]:
                print(f"warning: {path} has an incorrect run: {stamp}", file=sys.stderr)
            group = values.setdefault((stamp["workload"], int(stamp["trace"])), {})
            for name, metric in result["metrics"].items():
                group.setdefault(name, []).append(float(metric["value"]))
    return values


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    first, _, third = statistics.quantiles(values, n=4)
    spread = (third - first) / median if median else float("inf")
    return median, first, third, spread


def _bounds() -> Dict[str, Dict[str, object]]:
    return {entry["name"]: entry for entry in _benchmark()["end_to_end"]}  # type: ignore[index]


def show(path: Path) -> int:
    bounds = _bounds()
    unsteady = 0
    for (workload, trace), metrics in sorted(load(path).items()):
        print(f"== {workload} (trace {trace})")
        print(f"  {'metric':<34} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, values in metrics.items():
            median, first, third, spread = summary(values)
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                steady = spread <= float(bound) / 3  # type: ignore[arg-type]
                flag = "" if steady else "  <- spread above bound/3"
                unsteady += 0 if steady else 1
            bound_text = "-" if bound is None else f"{float(bound):.2f}"  # type: ignore[arg-type]
            print(f"  {name:<34} {len(values):>3} {median:>12.4f} {first:>12.4f} "
                  f"{third:>12.4f} {spread:>7.3f} {bound_text:>6}{flag}")
    return 1 if unsteady else 0


def compare(first_path: Path, second_path: Path) -> int:
    bounds = _bounds()
    first, second = load(first_path), load(second_path)
    disagreements = 0
    print("  per set: median [q1, q3] spread; change is B's median against A's")
    for key in sorted(set(first) & set(second)):
        workload, trace = key
        if trace:
            continue
        print(f"== {workload}")
        for name, values in first[key].items():
            if name not in bounds or name not in second[key]:
                continue
            bound = float(bounds[name]["bound"])  # type: ignore[arg-type]
            higher_is_better = bounds[name]["better"] == "higher"
            median_a, low_a, high_a, spread_a = summary(values)
            median_b, low_b, high_b, spread_b = summary(second[key][name])
            change = (median_b - median_a) / median_a if median_a else 0.0
            worse = -change if higher_is_better else change
            agree = worse <= bound
            if name != "setup_s":
                agree = agree and spread_a <= bound and spread_b <= bound
            disagreements += 0 if agree else 1
            print(f"  {name:<22} A {median_a:.4g} [{low_a:.4g}, {high_a:.4g}] {spread_a:.3f}"
                  f"  B {median_b:.4g} [{low_b:.4g}, {high_b:.4g}] {spread_b:.3f}"
                  f"  change {change:+.3f} bound {bound:.2f}  "
                  f"{'agree' if agree else 'DISAGREE'}")
    return 1 if disagreements else 0


def collect(workloads: List[str], seeds: List[int], trace: int, out: Path,
            seconds: int) -> int:
    failures = 0
    for workload in workloads:
        for seed in seeds:
            command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                       "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(trace), "--record", str(out)]
            finished = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True,
                                      check=False, timeout=900)
            lines = finished.stdout.strip().splitlines()
            if finished.returncode != 0 or not lines:
                failures += 1
                print(f"{workload} seed {seed}: exit {finished.returncode}\n{finished.stderr}")
                continue
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"    {name:<36} {metric['value']:>14.4f} {metric['unit']}")
    return 1 if failures else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    collect_parser = commands.add_parser("collect", help="run workloads x seeds")
    collect_parser.add_argument("--workloads", nargs="*", default=None)
    collect_parser.add_argument("--seeds", default="1-10")
    collect_parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    collect_parser.add_argument("--out", type=Path, required=True)
    show_parser = commands.add_parser("show", help="summarise one run set")
    show_parser.add_argument("runs", type=Path)
    compare_parser = commands.add_parser("compare", help="compare two run sets")
    compare_parser.add_argument("first", type=Path)
    compare_parser.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "show":
        return show(args.runs)
    if args.command == "compare":
        return compare(args.first, args.second)
    benchmark = _benchmark()
    workloads = args.workloads or [entry["name"] for entry in benchmark["workloads"]]
    return collect(workloads, _seeds(args.seeds), args.trace, args.out,
                   int(benchmark["run_seconds"]))  # type: ignore[arg-type]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
