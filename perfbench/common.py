"""Plumbing shared by the workloads: statistics, seeded inputs, memory,
provenance, call tracing and the served tier's process lifetime.

Nothing here imports the program at module load: ``run.py`` checks
that the sources exist first, so a checkout without ``src/`` fails
cleanly instead of with an import error half-way through a run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Percentile levels considered for a tail, highest first.
_TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)


# -- statistics -------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, level: float) -> float:
    """Nearest-rank percentile: the smallest value with ``level`` % of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_level(n: int) -> float | None:
    """The highest percentile that leaves at least ten samples beyond it."""
    for level in _TAIL_LEVELS:
        if n - math.ceil(level / 100.0 * n) >= 10:
            return level
    return None


def seeded_rng(seed: int, *tags):
    """A generator derived from the workload seed and a purpose tag, so
    every input is a pure function of ``--seed``."""
    import numpy as np

    words = [int(seed) & 0xFFFFFFFF, int(seed) >> 32 & 0xFFFFFFFF]
    for tag in tags:
        digest = hashlib.blake2b(str(tag).encode(), digest_size=4).digest()
        words.append(int.from_bytes(digest, "big"))
    return np.random.default_rng(np.random.SeedSequence(words))


def derived_seed(seed: int, *tags) -> int:
    """A non-negative 31-bit integer seed for the program, from ``--seed``."""
    return int(seeded_rng(seed, "seed", *tags).integers(0, 2**31 - 1))


def make_pool(seed: int, n_items: int, *, positive_frac: float = 0.01,
              tag: str = "pool"):
    """A scored ER pool with an exact ~1% positive class.

    Returns ``(predictions, scores, labels)``.  Positives score around
    +2.5 and negatives around -2.5 (unit variance), so the classifier
    at threshold 0 has an F-measure near 0.75: the imbalanced, mostly
    correct regime the paper targets.
    """
    import numpy as np

    rng = seeded_rng(seed, tag, n_items)
    labels = np.zeros(n_items, dtype=np.int8)
    positives = rng.choice(n_items, size=max(1, round(n_items * positive_frac)),
                           replace=False)
    labels[positives] = 1
    scores = rng.normal(np.where(labels == 1, 2.5, -2.5), 1.0)
    predictions = (scores > 0).astype(np.int8)
    return predictions, scores, labels


def oasis(pool, seed: int, **kwargs):
    """An ``OASISSampler`` over ``(predictions, scores, labels)``, its
    oracle answering from ``labels``."""
    from repro import DeterministicOracle, OASISSampler

    predictions, scores, labels = pool
    return OASISSampler(predictions, scores, DeterministicOracle(labels),
                        random_state=seed, **kwargs)


def replay(pool, seed: int, rounds: int, batch: int):
    """The in-process run a served session must equal bit for bit:
    ``rounds`` calls of ``sample_batch(batch)`` from the same seed."""
    sampler = oasis(pool, seed)
    for _ in range(rounds):
        sampler.sample_batch(batch)
    return sampler


def f_measure(labels, predictions) -> float:
    """Balanced F-measure computed by the benchmark itself."""
    import numpy as np

    labels = np.asarray(labels, dtype=bool)
    predictions = np.asarray(predictions, dtype=bool)
    tp = int(np.sum(labels & predictions))
    fp = int(np.sum(~labels & predictions))
    fn = int(np.sum(labels & ~predictions))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def same_float(a, b) -> bool:
    """Bit-identity of two floats (NaN equals NaN)."""
    import numpy as np

    return np.float64(a).tobytes() == np.float64(b).tobytes()


# -- memory ------------------------------------------------------------------

def _status_kib(pid, field: str) -> int | None:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    match = re.search(rf"^{field}:\s+(\d+) kB", text, re.MULTILINE)
    return int(match.group(1)) if match else None


def peak_rss_mib(pids=("self",)) -> float:
    """Sum of each process's peak resident set (VmHWM), in MiB."""
    total = 0
    for pid in pids:
        kib = _status_kib(pid, "VmHWM")
        if kib is None and pid == "self":
            import resource

            kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        total += kib or 0
    return total / 1024.0


# -- process lifetime --------------------------------------------------------

def _parent_map() -> dict[int, int]:
    parents = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        fields = stat.rsplit(")", 1)[1].split()
        parents[int(entry.name)] = int(fields[1])
    return parents


def descendants(pid: int) -> list[int]:
    parents = _parent_map()
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        children = [child for child, parent in parents.items()
                    if parent == current]
        found.extend(children)
        frontier.extend(children)
    return found


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_gone(pids, timeout: float = 30.0) -> None:
    """Wait until every pid has exited; SIGKILL what outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    pending = [pid for pid in pids if _alive(pid)]
    while pending and time.monotonic() < deadline:
        time.sleep(0.05)
        pending = [pid for pid in pending if _alive(pid)]
    for pid in pending:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while any(_alive(pid) for pid in pending) and time.monotonic() < deadline:
        time.sleep(0.05)


def stop_own_helpers() -> None:
    """Stop the multiprocessing helper processes this process started
    (the forkserver an in-process shard pool uses, and the resource
    tracker), then wait for any remaining descendant."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (getattr(forkserver, "_forkserver", None),
                   getattr(resource_tracker, "_resource_tracker", None)):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            try:
                stop()
            except (OSError, ChildProcessError):
                pass
    wait_gone(descendants(os.getpid()), timeout=10.0)


def program_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


class ServedTier:
    """``python -m repro.experiments serve`` as a subprocess.

    ``shards=0`` is the single-process tier (``LocalDispatcher`` over a
    ``SessionManager`` with the per-event ``SessionWAL``); ``shards>0``
    is the sharded tier.  ``start()`` returns once ``/healthz`` reports
    every shard up; ``stop()`` sends SIGTERM (the graceful drain) and
    waits for the server and every process it spawned.
    """

    def __init__(self, root: Path, tmp: Path, *, shards: int = 0,
                 codec: str | None = None):
        self.root = Path(root)
        self.tmp = Path(tmp)
        self.shards = shards
        self.codec = codec
        self.proc = None
        self.url = None
        self._log = None

    def start(self, timeout: float = 60.0) -> "ServedTier":
        from repro.service import EvaluationClient

        self.root.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, "-m", "repro.experiments", "serve",
               "--host", "127.0.0.1", "--port", "0", "--root", str(self.root)]
        if self.shards:
            cmd += ["--shards", str(self.shards), "--codec", self.codec]
        self._log = open(self.root.with_suffix(".log"), "ab")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log,
            env=program_env(self.tmp), cwd=str(ROOT))
        deadline = time.monotonic() + timeout
        line = b""
        while b"serving evaluation sessions on" not in line:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("served tier did not start; see "
                                   f"{self.root.with_suffix('.log')}")
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        min(remaining, 1.0))
            if ready:
                line = self.proc.stdout.readline()
        match = re.search(rb"http://([0-9.]+):(\d+)", line)
        self.url = f"http://{match.group(1).decode()}:{int(match.group(2))}"
        with EvaluationClient(self.url, timeout=10.0) as client:
            while True:
                health = client.healthz()
                if health.get("status") == "ok":
                    break
                if time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError(f"served tier unhealthy: {health}")
                time.sleep(0.05)
        return self

    def pids(self) -> list[int]:
        return [self.proc.pid] + descendants(self.proc.pid)

    def stop(self, timeout: float = 60.0) -> None:
        if self.proc is None:
            return
        spawned = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        wait_gone(spawned)
        self.proc = None


class Scraper:
    """A keep-alive connection of its own for ``GET /metrics``, parsed
    with the program's exposition parser."""

    def __init__(self, url: str):
        import http.client
        from urllib.parse import urlsplit

        parts = urlsplit(url)
        self.conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                               timeout=60)

    def text(self) -> str:
        self.conn.request("GET", "/metrics")
        response = self.conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"/metrics answered {response.status}")
        return body.decode("utf-8")

    def families(self) -> dict:
        from repro.utils.metrics import parse_prometheus_text

        return parse_prometheus_text(self.text())

    def close(self) -> None:
        self.conn.close()


def family_total(families: dict, family: str, suffix: str = "") -> float:
    """Sum of one family's samples named ``family + suffix``."""
    entry = families.get(family)
    if entry is None:
        return 0.0
    return float(sum(value for (metric, _), value in entry["samples"].items()
                     if metric == family + suffix))


def series_count(families: dict) -> int:
    return sum(len(entry["samples"]) for entry in families.values())


# -- call tracing ------------------------------------------------------------

class Tracer:
    """Times calls into a layer by wrapping its public functions.

    Wrapping happens at class level from the benchmark's own code, so
    the program is unchanged.  Nested calls into the same layer are
    counted once, by the outermost call.  Recording is off until
    ``active`` is set; ``restore()`` puts the original functions back.
    """

    def __init__(self):
        self.active = False
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self._depth = defaultdict(int)
        self._patches = []

    def wrap(self, owner, attr: str, layer: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if not tracer.active or tracer._depth[layer]:
                return original(*args, **kwargs)
            tracer._depth[layer] += 1
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.seconds[layer] += time.perf_counter() - started
                tracer.calls[layer] += 1
                tracer._depth[layer] -= 1

        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()


CORE_LAYERS = ("core.instrumental", "core.stratification", "core.bayes",
               "core.estimators")


def core_tracer() -> Tracer:
    """A tracer over the four parts of one OASIS draw (Algorithm 3):
    the instrumental distribution, the within-stratum draw, the Beta
    posterior update and the AIS estimator update.  Scalar and batched
    entry points of each part count toward the same layer."""
    from repro.core.bayes import BetaBernoulliModel
    from repro.core.estimators import AISEstimator
    from repro.core.oasis import OASISSampler
    from repro.core.stratification import Strata

    tracer = Tracer()
    tracer.wrap(OASISSampler, "instrumental_distribution", "core.instrumental")
    tracer.wrap(Strata, "sample_in_stratum", "core.stratification")
    tracer.wrap(Strata, "sample_in_strata", "core.stratification")
    tracer.wrap(BetaBernoulliModel, "update", "core.bayes")
    tracer.wrap(BetaBernoulliModel, "update_batch", "core.bayes")
    tracer.wrap(AISEstimator, "update", "core.estimators")
    tracer.wrap(AISEstimator, "update_batch", "core.estimators")
    return tracer


def core_layer_metrics(tracer: Tracer, draws: int, loop_seconds: float) -> dict:
    """Per-draw microseconds in each core layer and the loop's self time."""
    out = {}
    covered = 0.0
    for layer in CORE_LAYERS:
        out[f"{layer}.us_per_draw"] = tracer.seconds[layer] / draws * 1e6
        covered += tracer.seconds[layer]
    out["core.loop.self_us_per_draw"] = (loop_seconds - covered) / draws * 1e6
    return out


# -- provenance --------------------------------------------------------------

def source_digest() -> str:
    """SHA-256 over the program sources, identifying the code measured
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance() -> dict:
    import numpy as np

    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = None
    try:
        match = re.search(r"^model name\s*:\s*(.+)$",
                          Path("/proc/cpuinfo").read_text(), re.MULTILINE)
        cpu = match.group(1).strip() if match else None
    except OSError:
        pass
    return {
        "commit": commit,
        "source_digest": source_digest(),
        "host": platform.node(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
