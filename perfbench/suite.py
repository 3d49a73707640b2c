"""Run every workload several times and summarise the spread.

    python3 perfbench/suite.py --runs 10 --out perfbench/baseline.json

Each run is ``run.py`` in its own process with its own ``--seed``
(``--first-seed``, ``--first-seed + 1``, ...), the way the benchmark is
run to compare two commits.  For every end-to-end metric the summary
gives the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, the quartile distance as a share of the median, next to the
metric's bound from ``BENCHMARK.json``; every other metric the runs
report (``round_p99_ms``, ``checkpoint_p80_ms``, ...) is summarised by
its median.  ``--trace-runs`` adds traced runs per workload, whose
per-layer metrics are summarised by median.  It runs every workload
``run.py`` knows, ``sampler_seq`` too, which ``BENCHMARK.json`` does
not gate (see README.md); each entry says whether it is gated.
The summary carries the provenance of the host it was measured on;
numbers from different hosts are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, WORK, provenance, write_json  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, seed, seconds, trace) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    if proc.returncode != 0:
        print(f"{workload} seed {seed} trace {trace} exited "
              f"{proc.returncode}:\n{proc.stdout[-3000:]}\n"
              f"{proc.stderr[-3000:]}", flush=True)
    result["wall_s"] = wall
    result["seed"] = seed
    report = WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["details"] = (json.loads(report.read_text())["details"]
                         if proc.returncode == 0 and report.is_file() else [])
    return result


def _details(results) -> dict:
    """Median of every reported metric, with its unit and run count."""
    values, units = {}, {}
    for result in results:
        for entry in result["details"]:
            values.setdefault(entry["name"], []).append(entry["value"])
            units[entry["name"]] = entry["unit"]
    return {name: {"unit": units[name], "median": statistics.median(v),
                   "runs": len(v)} for name, v in values.items()}


def _summary(values, bound=None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    out = {"median": statistics.median(values), "q1": q1, "q3": q3,
           "spread": (q3 - q1) / statistics.median(values), "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--out", default=str(ROOT / ".perfbench" / "suite.json"))
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give a spread")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    gated = {w["name"] for w in spec["workloads"]}
    summary = {"provenance": provenance(), "runs": args.runs,
               "trace_runs": args.trace_runs, "seconds": args.seconds,
               "first_seed": args.first_seed, "workloads": {}}
    for workload in args.workloads:
        results = [_run(workload, args.first_seed + i, args.seconds, 0)
                   for i in range(args.runs)]
        entry = {"gated": workload in gated, "end_to_end": {},
                 "wall_s": max(r["wall_s"] for r in results),
                 "correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results)}
        entry["reported"] = _details(results)
        measured = [r for r in results if r["metrics"]]
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in measured]
            if len(values) >= 2:
                entry["end_to_end"][name] = {
                    "unit": measured[0]["metrics"][name]["unit"],
                    **_summary(values, bound)}
        traced = [_run(workload, args.first_seed + i, args.seconds, 1)
                  for i in range(args.trace_runs)]
        if traced:
            entry["correct"] = entry["correct"] and all(r["correct"]
                                                        for r in traced)
            entry["per_layer"] = {
                name: {"unit": metric["unit"], "median": statistics.median(
                    [r["metrics"][name]["value"] for r in traced
                     if r["metrics"]])}
                for name, metric in traced[0]["metrics"].items()}
        summary["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} "
              f"slowest run {entry['wall_s']:.1f}s"
              f"{'' if entry['gated'] else ' (not gated)'}", flush=True)
        for name, stats in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or stats["spread"] <= bounds[name] / 3 \
                else "  <-- spread above a third of the bound"
            print(f"  {name:<18} median {stats['median']:>12.6g} {stats['unit']:<5}"
                  f" spread {stats['spread']:.3f} (bound {bounds[name]})"
                  f"{flag}", flush=True)
        for name, stats in entry["reported"].items():
            print(f"  reported {name:<30} median {stats['median']:>12.6g} "
                  f"{stats['unit']}", flush=True)
        for name, stats in entry.get("per_layer", {}).items():
            print(f"  layer {name:<40} {stats['median']:>12.6g} "
                  f"{stats['unit']}", flush=True)
    write_json(Path(args.out), summary)
    print(f"wrote {args.out}")
    return 0 if all(w["correct"] for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
