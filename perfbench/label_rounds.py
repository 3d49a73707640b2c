"""``label_rounds``: the labelling round on the sharded service tier.

``python -m repro.experiments serve --shards 2 --codec binary`` runs as
a subprocess.  The load is a closed loop: 2 client threads, each with
its own keep-alive ``EvaluationClient`` and its own session on a 50k
pool, doing propose+ingest rounds at B=256.  A labeller waits for each
batch before labelling it, hence closed.  The round crosses client ->
``service.http`` -> ``service.router`` -> ``service.shard`` ->
``service.session`` -> ``core`` -> ``service.wal``; the sampler is a
small share of it, so transport and journal changes show here and not
in ``sampler_seq``.

Session ids derive from the seed, one per shard, so both runs of a
seed place the sessions alike and the two shards share the load.

The traced run splits the round with a ladder of stacks, each run
with the same B=256 schedule and session seeds: ``sample_batch``
(core), a memory-only ``EvaluationSession`` (+session), the same
session journalled by a ``GroupCommitWAL`` flushed per request as a
shard does (+wal), ``ShardRouter.dispatch`` over an in-process shard
pool (+router, RPC and shard queue) and a second pair of served
sessions (+http).  Each layer is its rung's median round minus the
rung below, so the five sum to the top rung, which must lie within
10% of the untraced median round.  The untraced loop and the rungs
run in interleaved slices, because this host's speed drifts by tens
of percent over seconds and rungs timed minutes apart would not add
up.

The untraced run is fixed work, 140 timed rounds per session per
second of ``--seconds`` after a warm-up, so its memory and session
ages do not depend on how fast the program is.
"""

from __future__ import annotations

import json
import threading
import time

from common import (
    Scraper,
    ServedTier,
    core_layer_metrics,
    core_tracer,
    family_total,
    make_pool,
    median,
    oasis,
    peak_rss_mib,
    percentile,
    replay,
    same_float,
    series_count,
    tail_level,
)

BATCH = 256
CLIENTS = 2
SHARDS = 2
SETUPS = 3
WARMUP_ROUNDS = 20
ATTRIBUTION_TOLERANCE = 0.10


def _pool_size(ctx) -> int:
    return 5_000 if ctx.tiny else 50_000


def _rounds(ctx) -> int:
    """Timed rounds per session: fixed work, about ``--seconds`` of it on
    a 2-core host, so memory and session age do not depend on speed."""
    return int((15 if ctx.tiny else 140) * ctx.seconds)


def session_ids(seed: int, n_sessions: int, n_shards: int, tag: str) -> list[str]:
    """Seed-derived session ids, session ``i`` placed on shard ``i % n``."""
    from repro.service.router import HashRing

    ring = HashRing(n_shards)
    ids = []
    for index in range(n_sessions):
        candidate = 0
        while True:
            sid = f"{tag}{seed}-{index}-{candidate}"
            if ring.shard_for(sid) == index % n_shards:
                ids.append(sid)
                break
            candidate += 1
    return ids


class Load:
    """The sessions one run drives: ids, program seeds, rounds done."""

    def __init__(self, ctx, pool, tag: str, seeds=None):
        self.pool = pool
        self.ids = session_ids(ctx.seed, CLIENTS, SHARDS, tag)
        self.seeds = seeds or [ctx.program_seed("load", i)
                               for i in range(CLIENTS)]
        self.rounds = [0] * CLIENTS

    def create(self, client, index: int) -> None:
        predictions, scores, _ = self.pool
        client.create_session(predictions, scores, session_id=self.ids[index],
                              sampler="oasis", seed=self.seeds[index])


def _served_round(client, sid, labels) -> None:
    proposal = client.propose(sid, BATCH)
    client.ingest(sid, proposal["ticket"], labels[proposal["pending"]])


def closed_loop(url, load, counts, *, warmup=0, during=None) -> dict:
    """Drive every session from its own thread and client.

    Each session runs ``warmup`` untimed rounds (the first one opens
    its connection), then exactly ``counts[i]`` timed rounds on session
    ``i``.  ``during`` runs on the calling thread while the timed load
    is on.  Returns each round's time in seconds, the wall time,
    requests attempted and failures.
    """
    from repro.service import EvaluationClient

    labels = load.pool[2]
    times = [[] for _ in load.ids]
    errors = []
    ready = threading.Barrier(len(load.ids) + 1)

    def worker(index):
        sid = load.ids[index]
        with EvaluationClient(url, timeout=60.0) as client:
            try:
                for _ in range(warmup):
                    _served_round(client, sid, labels)
                    load.rounds[index] += 1
            except Exception as exc:  # counted, and ends this client
                errors.append(f"{sid}: {exc!r}")
                return
            finally:
                ready.wait()
            for _ in range(counts[index]):
                t0 = time.perf_counter()
                try:
                    _served_round(client, sid, labels)
                except Exception as exc:  # counted, and ends this client
                    errors.append(f"{sid}: {exc!r}")
                    return
                times[index].append(time.perf_counter() - t0)
                load.rounds[index] += 1

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(load.ids))]
    for thread in threads:
        thread.start()
    ready.wait()
    started = time.perf_counter()
    extra = during() if during else None
    for thread in threads:
        thread.join(timeout=600)
    wall = time.perf_counter() - started
    rounds = sum(len(t) for t in times)
    return {"times": [t for per in times for t in per],
            "wall": wall, "rounds": rounds,
            "attempted": 2 * (warmup * len(load.ids) + rounds + len(errors)),
            "errors": errors, "extra": extra}


def _setup(ctx, pool, index: int):
    """Start a served tier and create the load's sessions; returns both."""
    from repro.service import EvaluationClient

    tier = ServedTier(ctx.work / f"served-{index}", ctx.tmp, shards=SHARDS,
                      codec="binary")
    load = Load(ctx, pool, "lr")
    tier.start()
    try:
        with EvaluationClient(tier.url, timeout=60.0) as client:
            for i in range(CLIENTS):
                load.create(client, i)
    except BaseException:
        tier.stop()
        raise
    return tier, load


def _http_errors(families) -> float:
    entry = families.get("oasis_http_requests_total", {"samples": {}})
    return sum(value for (_, labels), value in entry["samples"].items()
               if not dict(labels).get("status", "200").startswith("2"))


def _shard_requests(health) -> list[int]:
    return [int(shard.get("requests", 0)) for shard in health["shards"]]


def check_sessions(ctx, client, load) -> None:
    for index, sid in enumerate(load.ids):
        status = client.estimate(sid)
        served = ctx.observed(status["estimate"])
        expected = replay(load.pool, load.seeds[index], load.rounds[index],
                          BATCH)
        ctx.check(f"served_equals_inprocess[{sid}]",
                  same_float(served, expected.estimate)
                  and status["labels_consumed"] == expected.labels_consumed
                  and status["draws"] == load.rounds[index] * BATCH,
                  f"{load.rounds[index]} rounds, estimate {served!r} vs "
                  f"{expected.estimate!r}")


def run(ctx) -> None:
    from repro.service import EvaluationClient

    pool = make_pool(ctx.seed, _pool_size(ctx))

    setups = []
    for index in range(1 if ctx.trace else SETUPS):
        if setups:
            tier.stop()
        t0 = time.perf_counter()
        tier, load = _setup(ctx, pool, index)
        setups.append(time.perf_counter() - t0)
    ctx.metric("setup_s", median(setups))
    ctx.detail("setup_s", median(setups), "s", n=len(setups),
               note="2-shard server start + 2 session creates")
    try:
        with EvaluationClient(tier.url, timeout=60.0) as client:
            loads = _trace(ctx, pool, tier, load) if ctx.trace else \
                _untraced(ctx, tier, load)
            for driven in loads:
                check_sessions(ctx, client, driven)
    finally:
        tier.stop()


def _untraced(ctx, tier, load) -> list:
    scraper = Scraper(tier.url)
    before = scraper.families()
    result = closed_loop(tier.url, load, [_rounds(ctx)] * CLIENTS,
                         warmup=WARMUP_ROUNDS)
    after = scraper.families()
    scraper.close()
    rss = peak_rss_mib(tier.pids())

    ms = [t * 1e3 for t in result["times"]]
    # A closed loop without think time completes CLIENTS rounds per
    # round time (Little's law).  The median round makes the rate read
    # the prevailing speed of this host, which steps by tens of percent
    # for seconds to minutes at a time; the run mean follows the spells.
    draws_per_s = CLIENTS * BATCH / (median(ms) / 1e3)
    failed = len(result["errors"]) + _http_errors(after) - _http_errors(before)
    ctx.attempted += result["attempted"]
    ctx.failed += int(failed)
    ctx.metric("throughput_per_s", draws_per_s)
    ctx.metric("op_ms", median(ms))
    ctx.metric("peak_rss_mib", rss)
    ctx.detail("draws_per_s", draws_per_s, "1/s", n=result["rounds"] * BATCH,
               note="2 clients x B / median round")
    ctx.detail("draws_per_s_mean", result["rounds"] * BATCH / result["wall"],
               "1/s", n=result["rounds"] * BATCH, note="over the whole run")
    ctx.detail("round_p50_ms", median(ms), "ms", n=len(ms))
    level = tail_level(len(ms))
    ctx.detail("round_p99_ms", percentile(ms, 99.0), "ms", n=len(ms),
               note=None if level == 99.0 else
               f"p{level} is the highest percentile with ten samples beyond")
    ctx.detail("peak_rss_mib", rss, "MiB",
               note="server and its workers, sum of VmHWM")
    ctx.detail("failed_frac", failed / max(result["attempted"], 1), "ratio",
               n=result["attempted"])
    for family, name in (("oasis_request_seconds", "shard_request_ms"),
                         ("oasis_wal_fsync_seconds", "wal_fsync_ms")):
        count = (family_total(after, family, "_count")
                 - family_total(before, family, "_count"))
        total = (family_total(after, family, "_sum")
                 - family_total(before, family, "_sum"))
        ctx.detail(name, total / count * 1e3 if count else 0.0, "ms", n=count,
                   note="mean, from the served tier's /metrics")
    for error in result["errors"]:
        ctx.check("request_failed", False, error)
    return [load]


# -- the traced run ----------------------------------------------------------

class Ladder:
    """The four in-process rungs, each holding sessions seeded like the
    served load so every rung draws exactly the same pairs."""

    def __init__(self, ctx, pool, seeds):
        from repro.service import EvaluationSession, GroupCommitWAL
        from repro.service.http import make_sharded_backend

        predictions, scores, labels = pool
        self.labels = labels
        self.ids = session_ids(ctx.seed, CLIENTS, SHARDS, "ld")
        self.times = {"core": [], "session": [], "wal": [], "router": []}
        self.tracer = core_tracer()
        self.samplers = [oasis(pool, s) for s in seeds]
        self.memory = [
            EvaluationSession.create(predictions, scores, seed=s,
                                     session_id=sid)
            for s, sid in zip(seeds, self.ids)]

        def wal_factory(directory):
            return GroupCommitWAL(directory, codec="binary", max_batch=64)

        self.journalled = [
            EvaluationSession.create(
                predictions, scores, seed=s, session_id=sid,
                directory=ctx.work / "ladder-wal" / sid,
                wal_factory=wal_factory)
            for s, sid in zip(seeds, self.ids)]
        self.router = make_sharded_backend(ctx.work / "ladder-router", SHARDS,
                                           codec="binary")
        for seed, sid in zip(seeds, self.ids):
            self._call("/sessions", {
                "predictions": predictions.tolist(),
                "scores": scores.tolist(), "sampler": "oasis",
                "session_id": sid, "seed": seed})

    def close(self) -> None:
        self.tracer.restore()
        self.router.close()

    def _call(self, path, payload):
        status, reply, _ = self.router.dispatch(
            "POST", path, json.dumps(payload).encode())
        if status != 200:
            raise RuntimeError(f"{path} answered {status}: {reply[:200]!r}")
        return json.loads(reply)

    def _session_round(self, session, flush=False):
        proposal = session.propose(BATCH)
        if flush:
            session.wal.flush()
        session.ingest(proposal["ticket"], self.labels[proposal["pending"]])
        if flush:
            session.wal.flush()

    def _inprocess(self, key, sessions, do_round, warmup, counts):
        """Round ``k`` of every session in turn on this thread."""
        for k in range(warmup + max(counts)):
            for session, count in zip(sessions, counts):
                if k < warmup + count:
                    t0 = time.perf_counter()
                    do_round(session)
                    if k >= warmup:
                        self.times[key].append(time.perf_counter() - t0)

    def _router(self, warmup, counts):
        """One thread per session, as the HTTP front door's handler
        threads call ``ShardRouter.dispatch``."""
        errors = []

        def worker(index):
            sid = self.ids[index]
            try:
                for k in range(warmup + counts[index]):
                    t0 = time.perf_counter()
                    proposal = self._call(f"/sessions/{sid}/propose",
                                          {"batch_size": BATCH})
                    self._call(f"/sessions/{sid}/ingest", {
                        "ticket": proposal["ticket"],
                        "labels": self.labels[proposal["pending"]].tolist()})
                    if k >= warmup:
                        self.times["router"].append(time.perf_counter() - t0)
            except Exception as exc:  # re-raised below
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(self.ids))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        if errors:
            raise RuntimeError(f"router rung failed: {errors[0]}")

    def rung(self, key, warmup, counts) -> None:
        if key == "core":
            self.tracer.active = True
            try:
                self._inprocess(key, self.samplers,
                                lambda s: s.sample_batch(BATCH), warmup, counts)
            finally:
                self.tracer.active = False
        elif key == "session":
            self._inprocess(key, self.memory, self._session_round, warmup,
                            counts)
        elif key == "wal":
            self._inprocess(key, self.journalled,
                            lambda s: self._session_round(s, flush=True),
                            warmup, counts)
        else:
            self._router(warmup, counts)

    def core_metrics(self) -> dict:
        draws = len(self.times["core"]) * BATCH
        out = core_layer_metrics(self.tracer, draws, sum(self.times["core"]))
        out["core.labels_per_draw"] = (
            sum(s.labels_consumed for s in self.samplers)
            / sum(len(s.history) for s in self.samplers))
        return out


def _trace(ctx, pool, tier, load) -> list:
    """Per-layer metrics; returns the served loads for checking."""
    from repro.service import EvaluationClient

    passes = 4 if ctx.tiny else 8
    per_slice = [10 if ctx.tiny else 40] * CLIENTS
    top = Load(ctx, pool, "lt", seeds=load.seeds)
    with EvaluationClient(tier.url, timeout=60.0) as client:
        for i in range(CLIENTS):
            top.create(client, i)
    ladder = Ladder(ctx, pool, load.seeds)
    scraper = Scraper(tier.url)
    served = {"untraced": [], "http": []}
    try:
        with EvaluationClient(tier.url, timeout=60.0) as client:
            before, health_before = scraper.families(), client.healthz()
            order = ["untraced", "core", "session", "wal", "router", "http"]
            for step in range(passes):
                # The first pass warms every rung up as the untraced run
                # is warmed; each slice then opens with one untimed round.
                warmup = WARMUP_ROUNDS if step == 0 else 1
                live = None
                for key in order if step % 2 == 0 else order[::-1]:
                    if key in served:
                        result = closed_loop(
                            tier.url, load if key == "untraced" else top,
                            per_slice, warmup=warmup,
                            during=(lambda: (scraper.families(),
                                             client.healthz()))
                            if key == "untraced" and live is None else None)
                        live = live or result["extra"]
                        served[key].extend(result["times"])
                        ctx.attempted += result["attempted"]
                        ctx.failed += len(result["errors"])
                        for error in result["errors"]:
                            ctx.check("request_failed", False, error)
                    else:
                        ladder.rung(key, warmup, per_slice)
            after, health_after = scraper.families(), client.healthz()
        layers = ladder.core_metrics()
    finally:
        scraper.close()
        ladder.close()

    for name, value in layers.items():
        ctx.metric(name, value)
    per_shard = [a - b for a, b in zip(_shard_requests(health_after),
                                       _shard_requests(health_before))]
    rounds = max(sum(per_shard) / 2, 1)

    def delta(family, suffix):
        return (family_total(after, family, suffix)
                - family_total(before, family, suffix))

    def mean_ms(family):
        count = delta(family, "_count")
        return delta(family, "_sum") / count * 1e3 if count else 0.0

    count = delta("oasis_commit_batch_size", "_count")
    ctx.metric("service.shard.request_ms", mean_ms("oasis_request_seconds"))
    ctx.metric("service.shard.queue_depth",
               family_total(live[0], "oasis_queue_depth"))
    ctx.metric("service.shard.commit_batch",
               delta("oasis_commit_batch_size", "_sum") / count if count else 0)
    ctx.metric("service.shard.balance", min(per_shard) / max(max(per_shard), 1))
    ctx.metric("service.wal.fsyncs_per_round",
               delta("oasis_wal_fsync_seconds", "_count") / rounds)
    ctx.metric("service.wal.fsync_ms", mean_ms("oasis_wal_fsync_seconds"))
    ctx.metric("service.wal.append_ms", mean_ms("oasis_wal_append_seconds"))
    ctx.metric("utils.metrics.series", series_count(after))
    ctx.failed += int(_http_errors(after) - _http_errors(before))

    untraced = median([t * 1e3 for t in served["untraced"]])
    rungs = [median([t * 1e3 for t in ladder.times[key]])
             for key in ("core", "session", "wal", "router")]
    rungs.append(median([t * 1e3 for t in served["http"]]))
    names = ("core.round_ms", "service.session.round_ms",
             "service.wal.round_ms", "service.router.round_ms",
             "service.http.round_ms")
    below = 0.0
    for name, rung in zip(names, rungs):
        ctx.metric(name, rung - below)
        ctx.detail(f"rung.{name.rsplit('.', 1)[0]}_ms", rung, "ms",
                   n=len(served["http"]))
        below = rung
    error = (rungs[-1] - untraced) / untraced
    ctx.metric("trace.overhead_frac", error)
    ctx.metric("trace.attribution_error_frac", abs(error))
    ctx.detail("round_p50_ms", untraced, "ms", n=len(served["untraced"]),
               note="untraced, interleaved with the ladder")
    ctx.check("ladder_sums_to_untraced_round",
              abs(error) <= ATTRIBUTION_TOLERANCE,
              f"ladder {rungs[-1]:.3f} ms vs untraced p50 {untraced:.3f} ms "
              f"({error:+.1%})")
    return [load, top]
