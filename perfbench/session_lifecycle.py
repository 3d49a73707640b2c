"""``session_lifecycle``: writes beside reads on the single-process tier.

``python -m repro.experiments serve`` without ``--shards``: a
``LocalDispatcher`` over a ``SessionManager`` journalling every event
through the per-event ``SessionWAL`` with JSON snapshots.  One
connection runs sessions in turn; each is created over a 50k pool,
driven at B=4096 to a fixed age and closed.  After every round it takes
a ``checkpoint``, a ``status`` + ``estimate`` read and a ``GET
/metrics`` scrape (on a second connection).  This is the state path:
snapshot cost that grows with draws, scrape cost that grows with
closed sessions.  ``label_rounds`` barely touches it.

The schedule is fixed work, not a time budget, so a faster program
does not run more sessions and then pay for a longer ``/metrics``: it
runs ``0.6 x --seconds`` sessions (6 at the default 10 s, about 10 s
on a 2-core host), giving 54 checkpoints, enough for a p80 with ten
samples beyond it.

The traced run drives the same schedule in process through the same
parts the server wires together (``SessionManager`` +
``LocalDispatcher``) and times each public call; odd rounds also run
with the core tracer on, and their mean time against the even rounds'
is the tracing overhead.
"""

from __future__ import annotations

import json
import time

import numpy as np

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
)

SETUPS = 3


def _schedule(ctx) -> dict:
    if ctx.tiny:
        return {"pool": 5_000, "batch": 1024, "sessions": 2, "rounds": 3}
    return {"pool": 50_000, "batch": 4096,
            "sessions": max(2, round(0.6 * ctx.seconds)), "rounds": 9}


def _sessions(ctx, plan):
    return [(f"sl{ctx.seed}-{i}", ctx.program_seed("session", i))
            for i in range(plan["sessions"])]


def check_outputs(ctx, root, pool, plan, sessions, finals, expected) -> None:
    """Finals equal the in-process run; every snapshot loads back."""
    from repro.service import EvaluationSession, SessionWAL, decode_state

    for sid, seed in sessions:
        want = replay(pool, seed, plan["rounds"], plan["batch"]).estimate
        got = ctx.observed(finals[sid])
        ctx.check(f"final_equals_inprocess[{sid}]", same_float(got, want),
                  f"{got!r} vs {want!r}")
        snapshots = [event for event in SessionWAL(root / sid).events()
                     if event["kind"] == "checkpoint"]
        loader = oasis(pool, seed)
        wrong = []
        for event in snapshots:
            loader.load_state_dict(decode_state(event["state"]))
            if loader.labels_consumed != expected[sid][int(event["ticket"])]:
                wrong.append(int(event["ticket"]))
        ctx.check(f"snapshots_load_back[{sid}]",
                  len(snapshots) == plan["rounds"] + 1 and not wrong,
                  f"{len(snapshots)} snapshots, wrong labels_consumed at "
                  f"tickets {wrong}" if wrong else f"{len(snapshots)} snapshots")
    sid = sessions[-1][0]
    restored = EvaluationSession.restore(root / sid).estimate
    ctx.check(f"restore_equals_final[{sid}]",
              same_float(restored, ctx.observed(finals[sid])))


def _bytes_under(directory) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


def run(ctx) -> None:
    plan = _schedule(ctx)
    pool = make_pool(ctx.seed, plan["pool"])
    if ctx.trace:
        _traced(ctx, plan, pool)
    else:
        _served(ctx, plan, pool)


def _served(ctx, plan, pool) -> None:
    from repro.service import EvaluationClient
    from repro.utils.metrics import parse_prometheus_text

    predictions, scores, labels = pool
    setups = []
    for index in range(SETUPS):
        if setups:
            tier.stop()
        t0 = time.perf_counter()
        tier = ServedTier(ctx.work / f"served-{index}", ctx.tmp).start()
        setups.append(time.perf_counter() - t0)
    ctx.metric("setup_s", median(setups))
    ctx.detail("setup_s", median(setups), "s", n=len(setups),
               note="single-process server start")

    sessions = _sessions(ctx, plan)
    timings = {key: [] for key in
               ("create", "round", "checkpoint", "read", "scrape", "close",
                "session")}
    series = []
    finals, expected = {}, {}
    try:
        scraper = Scraper(tier.url)
        with EvaluationClient(tier.url, timeout=120.0) as client:
            for sid, seed in sessions:
                expected[sid] = {}
                t0 = started = time.perf_counter()
                client.create_session(predictions, scores, session_id=sid,
                                      sampler="oasis", seed=seed)
                timings["create"].append(time.perf_counter() - t0)
                for _ in range(plan["rounds"]):
                    t0 = time.perf_counter()
                    proposal = client.propose(sid, plan["batch"])
                    status = client.ingest(sid, proposal["ticket"],
                                           labels[proposal["pending"]])
                    t1 = time.perf_counter()
                    client.checkpoint(sid)
                    t2 = time.perf_counter()
                    client.status(sid)
                    client.estimate(sid)
                    t3 = time.perf_counter()
                    text = scraper.text()
                    t4 = time.perf_counter()
                    expected[sid][proposal["ticket"]] = status["labels_consumed"]
                    for key, a, b in (("round", t0, t1), ("checkpoint", t1, t2),
                                      ("read", t2, t3), ("scrape", t3, t4)):
                        timings[key].append(b - a)
                    series.append(series_count(parse_prometheus_text(text)))
                finals[sid] = client.estimate(sid)["estimate"]
                t0 = time.perf_counter()
                client.close_session(sid)
                timings["close"].append(time.perf_counter() - t0)
                timings["session"].append(time.perf_counter() - started)
                expected[sid][plan["rounds"]] = status["labels_consumed"]
        scraper.close()
        rss = peak_rss_mib(tier.pids())
    finally:
        tier.stop()

    requests = len(sessions) * (3 + 6 * plan["rounds"])
    ctx.attempted += requests
    draws = len(sessions) * plan["rounds"] * plan["batch"]
    ms = {key: [t * 1e3 for t in values] for key, values in timings.items()}
    # Per session, create to close; the median session, because this
    # host's speed steps by tens of percent for seconds at a time.
    draws_per_s = plan["rounds"] * plan["batch"] / median(timings["session"])
    ctx.metric("throughput_per_s", draws_per_s)
    ctx.metric("op_ms", median(ms["checkpoint"]))
    ctx.metric("peak_rss_mib", rss)
    ctx.detail("draws_per_s", draws_per_s, "1/s", n=draws,
               note="median session, create to close, checkpoints and "
                    "scrapes included")
    n = len(ms["checkpoint"])
    ctx.detail("checkpoint_p50_ms", median(ms["checkpoint"]), "ms", n=n)
    ctx.detail("checkpoint_p80_ms", percentile(ms["checkpoint"], 80.0), "ms",
               n=n, note=f"{n - int(np.ceil(0.8 * n))} samples beyond")
    ctx.detail("read_p50_ms", median(ms["read"]), "ms", n=len(ms["read"]),
               note="status + estimate")
    ctx.detail("scrape_p50_ms", median(ms["scrape"]), "ms",
               n=len(ms["scrape"]))
    ctx.detail("round_p50_ms", median(ms["round"]), "ms", n=len(ms["round"]))
    ctx.detail("create_p50_ms", median(ms["create"]), "ms",
               n=len(ms["create"]))
    ctx.detail("close_p50_ms", median(ms["close"]), "ms", n=len(ms["close"]))
    ctx.detail("metrics_series_first", series[0], "count")
    ctx.detail("metrics_series_last", series[-1], "count")
    ctx.detail("peak_rss_mib", rss, "MiB", note="server process VmHWM")
    ctx.detail("failed_frac", 0.0, "ratio", n=requests)
    check_outputs(ctx, tier.root, pool, plan, sessions, finals, expected)


def _traced(ctx, plan, pool) -> None:
    from repro.service import SessionManager, dump_state, dump_state_binary
    from repro.service.http import LocalDispatcher
    from repro.utils.metrics import parse_prometheus_text, render_prometheus

    predictions, scores, labels = pool
    root = ctx.work / "inprocess"
    manager = SessionManager(root)
    dispatcher = LocalDispatcher(manager)
    tracer = core_tracer()
    sessions = _sessions(ctx, plan)
    times = {key: [] for key in ("create", "close", "read", "render",
                                 "encode")}
    rounds = {False: [], True: []}
    checkpoints = []  # (kdraws, ms, KiB on disk)
    finals, expected = {}, {}
    state_kib = []

    def call(method, path, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        status, reply, _ = dispatcher.dispatch(method, path, body)
        if status != 200:
            raise RuntimeError(f"{method} {path} answered {status}: "
                               f"{reply[:200]!r}")
        return reply

    try:
        for sid, seed in sessions:
            expected[sid] = {}
            t0 = time.perf_counter()
            session = manager.create_session(predictions, scores,
                                             session_id=sid, seed=seed)
            times["create"].append(time.perf_counter() - t0)
            for r in range(plan["rounds"]):
                traced = r % 2 == 1
                tracer.active = traced
                t0 = time.perf_counter()
                proposal = json.loads(call(
                    "POST", f"/sessions/{sid}/propose",
                    {"batch_size": plan["batch"]}))
                status = json.loads(call(
                    "POST", f"/sessions/{sid}/ingest",
                    {"ticket": proposal["ticket"],
                     "labels": labels[proposal["pending"]].tolist()}))
                rounds[traced].append(time.perf_counter() - t0)
                tracer.active = False
                expected[sid][proposal["ticket"]] = status["labels_consumed"]
                on_disk = _bytes_under(root / sid)
                t0 = time.perf_counter()
                session.checkpoint()
                elapsed = time.perf_counter() - t0
                checkpoints.append(((r + 1) * plan["batch"] / 1000,
                                    elapsed * 1e3,
                                    (_bytes_under(root / sid) - on_disk) / 1024))
                t0 = time.perf_counter()
                call("GET", f"/sessions/{sid}")
                times["read"].append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                manager.observe_session_telemetry()
                text = render_prometheus(manager.metrics.snapshot())
                times["render"].append(time.perf_counter() - t0)
            state = session.sampler.state_dict()
            t0 = time.perf_counter()
            dump_state(state)
            times["encode"].append(time.perf_counter() - t0)
            draws = plan["rounds"] * plan["batch"]
            state_kib.append(len(dump_state_binary(state)) / 1024
                             / (draws / 1000))
            finals[sid] = session.estimate
            t0 = time.perf_counter()
            manager.close_session(sid)
            times["close"].append(time.perf_counter() - t0)
            expected[sid][plan["rounds"]] = status["labels_consumed"]
            labels_per_draw = status["labels_consumed"] / draws
        families = parse_prometheus_text(text)
    finally:
        tracer.restore()

    traced_draws = len(rounds[True]) * plan["batch"]
    for name, value in core_layer_metrics(tracer, traced_draws,
                                          sum(rounds[True])).items():
        ctx.metric(name, value)
    ctx.metric("trace.overhead_frac",
               sum(rounds[True]) / len(rounds[True])
               / (sum(rounds[False]) / len(rounds[False])) - 1.0)
    kdraws, ckpt_ms, kib = (np.array(column) for column in zip(*checkpoints))
    ctx.metric("service.session.checkpoint_ms_per_kdraw",
               np.polyfit(kdraws, ckpt_ms, 1)[0])
    ctx.metric("service.codec.snapshot_kib_per_kdraw",
               np.polyfit(kdraws, kib, 1)[0])
    ctx.metric("service.codec.encode_ms", median(times["encode"]) * 1e3)
    ctx.metric("service.manager.create_ms", median(times["create"]) * 1e3)
    ctx.metric("service.manager.close_ms", median(times["close"]) * 1e3)
    count = family_total(families, "oasis_wal_append_seconds", "_count")
    ctx.metric("service.wal.append_ms", family_total(
        families, "oasis_wal_append_seconds", "_sum") / count * 1e3)
    ctx.metric("utils.metrics.series", series_count(families))
    ctx.metric("utils.metrics.render_ms", median(times["render"]) * 1e3)
    ctx.metric("service.http.read_ms", median(times["read"]) * 1e3)
    ctx.metric("core.labels_per_draw", labels_per_draw)
    ctx.metric("core.state_kib_per_kdraw", median(state_kib))
    ctx.detail("checkpoint_p50_ms", median(ckpt_ms), "ms", n=len(ckpt_ms),
               note="in process")
    ctx.attempted += len(sessions) * (3 + 4 * plan["rounds"])
    check_outputs(ctx, root, pool, plan, sessions, finals, expected)
