"""Smoke test of the benchmark itself, on tiny inputs.

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the last line
carries exactly the metrics ``BENCHMARK.json`` declares, each with its
declared unit, that the report names every metric the workload owes
(with a unit), and that the correctness checks pass; every per-layer
metric must be measured by some workload ``BENCHMARK.json`` gates.  It
then checks that a tampered run (``--tamper`` nudges a program output
by one ulp) fails them, and that a directory holding only
``BENCHMARK.json`` and the benchmark fails without printing a result.
Exits 1 on the first problem, naming it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, WORK  # noqa: E402

SEED = 7
SECONDS = 2

# The report lines each workload must carry, beyond the last line.
REPORTED = {
    "sampler_seq": ("setup_s", "draws_per_s", "peak_rss_mib"),
    "label_rounds": ("setup_s", "draws_per_s", "round_p50_ms", "round_p99_ms",
                     "peak_rss_mib", "failed_frac"),
    "session_lifecycle": ("setup_s", "draws_per_s", "checkpoint_p50_ms",
                          "checkpoint_p80_ms", "read_p50_ms", "scrape_p50_ms",
                          "peak_rss_mib", "failed_frac"),
    "scale_rung": ("setup_s", "records_per_s", "pairs_per_s",
                   "peak_rss_mib"),
}
# Measurement-quality checks that tiny inputs are too small to pass.
TINY_EXEMPT = {"ladder_sums_to_untraced_round"}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=str(cwd), capture_output=True, text=True,
                          timeout=600)


def _fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    gated = {w["name"] for w in spec["workloads"]}
    measured_layers = set()
    for workload in REPORTED:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", str(SEED), "--seconds",
                    str(SECONDS), "--trace", str(trace), "--size", "tiny"]
            proc = _run(args)
            label = f"{workload} trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if not lines:
                _fail(f"{label} printed nothing:\n{proc.stderr[-2000:]}")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{label} result keys {sorted(result)}")
            if result["attempted"] < 1:
                _fail(f"{label} attempted {result['attempted']}")
            metrics = result["metrics"]
            if set(metrics) != set(declared[trace]):
                _fail(f"{label} metrics differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(declared[trace]))}")
            for name, metric in metrics.items():
                if metric["unit"] != declared[trace][name]:
                    _fail(f"{label} {name} has unit {metric['unit']}")
                if not math.isfinite(metric["value"]):
                    _fail(f"{label} {name} is {metric['value']}")
                if trace == 0 and metric["value"] <= 0:
                    _fail(f"{label} end-to-end {name} is {metric['value']}")
            record = json.loads((WORK / "results" /
                                 f"{workload}-seed{SEED}-trace{trace}.json")
                                .read_text())
            if trace == 1 and workload in gated:
                measured_layers.update(set(record["metrics"]) & set(metrics))
            failed = [c["name"] for c in record["checks"] if not c["ok"]
                      and c["name"] not in TINY_EXEMPT]
            if failed or not record["checks"]:
                _fail(f"{label} checks failed: {failed or 'none ran'}")
            if trace == 0:
                units = {d["name"]: d["unit"] for d in record["details"]}
                missing = [n for n in REPORTED[workload] if not units.get(n)]
                if missing:
                    _fail(f"{label} report lacks {missing}")
            print(f"ok  {label}: {len(metrics)} metrics, "
                  f"{len(record['checks'])} checks")

        proc = _run(["--workload", workload, "--seed", str(SEED), "--seconds",
                     str(SECONDS), "--trace", "0", "--size", "tiny",
                     "--tamper"])
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or not lines or json.loads(lines[-1])["correct"]:
            _fail(f"{workload}: a tampered output passed the checks")
        print(f"ok  {workload} --tamper: correctness check failed as it must")

    unmeasured = set(declared[1]) - measured_layers
    if unmeasured:
        _fail("per-layer metrics no gated workload measured: "
              f"{sorted(unmeasured)}")

    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(["--workload", "sampler_seq", "--seed", "1", "--seconds", "1"],
                cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        _fail("a directory without the program produced a result")
    print("ok  benchmark alone (no program sources): exits "
          f"{proc.returncode} without a result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
