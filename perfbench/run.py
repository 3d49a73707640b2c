"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sampler_seq --seed 1 --seconds 10 --trace 0

Each workload runs in its own process (this one), so ``peak_rss_mib``
belongs to that workload alone.  Every input is generated from
``--seed``; the program only ever receives those arrays.

The lines before the last one are a human-readable report: every
metric of the workload by name, with its unit and sample count, the
correctness checks and the provenance of the run.  The last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics named in ``BENCHMARK.json`` (``--trace
0``) or its per-layer metrics (``--trace 1``).  The full report is
also written to ``.perfbench/results/``.  A failed correctness check
makes ``correct`` false and the exit code 1.

``--size tiny`` and ``--tamper`` exist for ``selftest.py``: a small
input set, and a perturbed program output that the checks must catch.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, WORK, derived_seed, provenance, stop_own_helpers, write_json  # noqa: E402

WORKLOADS = ("sampler_seq", "label_rounds", "session_lifecycle", "scale_rung")


class Context:
    """What a workload reads (seed, duration, mode) and what it reports."""

    def __init__(self, args, work: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.tiny = args.size == "tiny"
        self.tamper = args.tamper
        self.work = work
        # Temporary files stay inside the checkout, on the shortest path
        # there: the shard tier binds UNIX sockets under it, whose paths
        # may not exceed 107 bytes.
        self.tmp = WORK
        self.metrics: dict[str, float] = {}
        self.details: list[dict] = []
        self.checks: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def program_seed(self, *tags) -> int:
        return derived_seed(self.seed, self.workload, *tags)

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def detail(self, name: str, value: float, unit: str, *, n=None,
               note=None) -> None:
        entry = {"name": name, "value": float(value), "unit": unit}
        if n is not None:
            entry["n"] = int(n)
        if note:
            entry["note"] = note
        self.details.append(entry)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def observed(self, value):
        """A program output as the checks see it; ``--tamper`` nudges it
        by one ulp, which every bit-identity check must notice."""
        if not self.tamper:
            return value
        import numpy as np

        return float(np.nextafter(value, np.inf))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c["ok"] for c in self.checks)


def _declared(mode_key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[mode_key]}


def _result_line(ctx: Context) -> dict:
    declared = _declared("per_layer" if ctx.trace else "end_to_end")
    metrics = {}
    for name, unit in declared.items():
        if name in ctx.metrics:
            value = ctx.metrics[name]
        elif ctx.trace:
            # A layer this workload never calls spends no time in it.
            value = 0.0
        else:
            raise RuntimeError(f"workload did not measure {name}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": ctx.correct, "attempted": max(int(ctx.attempted), 1),
            "failed": int(ctx.failed), "metrics": metrics}


def _print_report(ctx: Context, record: dict) -> None:
    print(f"# workload {ctx.workload} seed {ctx.seed} "
          f"seconds {ctx.seconds:g} trace {int(ctx.trace)}")
    for entry in ctx.details:
        extra = f" n={entry['n']}" if "n" in entry else ""
        note = f" ({entry['note']})" if "note" in entry else ""
        print(f"  {entry['name']:<36} {entry['value']:>14.6g} "
              f"{entry['unit']}{extra}{note}")
    if ctx.trace:
        layers = _declared("per_layer")
        for name, value in sorted(ctx.metrics.items()):
            if name in layers:
                print(f"  layer {name:<40} {value:>14.6g} {layers[name]}")
    for check in ctx.checks:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}"
              f"{': ' + check['detail'] if check['detail'] else ''}")
    print(f"  attempted {ctx.attempted} failed {ctx.failed}")
    print("  provenance " + json.dumps(record["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: BENCHMARK.json is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ctx = Context(args, work)
    # The run does not delete the temporary directory: multiprocessing
    # removes its own there at exit.
    ctx.tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(ctx.tmp)
    tempfile.tempdir = str(ctx.tmp)

    started = time.perf_counter()
    try:
        importlib.import_module(args.workload).run(ctx)
    finally:
        stop_own_helpers()
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "wall_s": time.perf_counter() - started,
        "metrics": ctx.metrics, "details": ctx.details, "checks": ctx.checks,
        "provenance": provenance(),
    }
    result = _result_line(ctx)
    record["result"] = result
    write_json(WORK / "results" /
               f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    _print_report(ctx, record)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
