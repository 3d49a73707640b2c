"""``sampler_seq``: the sequential OASIS loop, in process.

An ``OASISSampler`` with K=30 strata over a 200k-item pool with 1%
positives, drawn one item at a time (``sample``, B=1) in blocks of
100 draws, about ``--seconds`` of them.  This is the loop the paper-figure
benchmarks spend most of the tier-1 time in; no HTTP or journal code
runs.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    core_layer_metrics,
    core_tracer,
    f_measure,
    make_pool,
    median,
    oasis,
    peak_rss_mib,
    percentile,
    same_float,
    tail_level,
)

BLOCK = 100
SETUPS = 21
PREFIX = 2000  # draws compared between sample(n) and n x sample_batch(1)


def _sizes(ctx) -> dict:
    """Fixed work, about ``--seconds`` of it on a 2-core host, so the
    sampler's memory does not depend on how fast it ran."""
    return {"pool": 20_000 if ctx.tiny else 200_000,
            "blocks": max(40, int((30 if ctx.tiny else 130) * ctx.seconds))}


def _blocks(sampler, n_blocks: int, tracer=None):
    """Draw ``n_blocks`` blocks of ``BLOCK`` draws; returns block times.

    With a tracer, even blocks run untraced and odd blocks traced, so
    the two halves see the same sampler age and the difference is the
    tracing overhead.
    """
    plain, traced = [], []
    for index in range(n_blocks):
        on = tracer is not None and index % 2 == 1
        if tracer is not None:
            tracer.active = on
        t0 = time.perf_counter()
        sampler.sample(BLOCK)
        elapsed = time.perf_counter() - t0
        (traced if on else plain).append(elapsed)
    if tracer is not None:
        tracer.active = False
    return plain, traced


def run(ctx) -> None:
    from repro.service import dump_state_binary

    sizes = _sizes(ctx)
    pool = make_pool(ctx.seed, sizes["pool"])
    predictions, _, labels = pool
    seed = ctx.program_seed("sampler")

    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        sampler = oasis(pool, seed, n_strata=30)
        setups.append(time.perf_counter() - t0)
    ctx.metric("setup_s", median(setups))
    ctx.detail("setup_s", median(setups), "s", n=len(setups))

    tracer = core_tracer() if ctx.trace else None
    try:
        plain, traced = _blocks(sampler, sizes["blocks"], tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    draws = len(sampler.history)
    ctx.attempted += draws
    rss = peak_rss_mib()

    # A median block, not the run's mean: this host's speed steps by
    # tens of percent for seconds at a time, and the median reads the
    # prevailing speed whatever share of the run a fast spell covered.
    block_ms = [t * 1e3 for t in plain]
    draws_per_s = BLOCK / median(plain)
    ctx.metric("throughput_per_s", draws_per_s)
    ctx.metric("op_ms", median(block_ms))
    ctx.metric("peak_rss_mib", rss)
    ctx.detail("draws_per_s", draws_per_s, "1/s", n=len(plain) * BLOCK)
    ctx.detail("block_p50_ms", median(block_ms), "ms", n=len(block_ms),
               note=f"{BLOCK} draws per block")
    level = tail_level(len(block_ms))
    if level is not None:
        ctx.detail(f"block_p{level:g}_ms", percentile(block_ms, level), "ms",
                   n=len(block_ms))
    ctx.detail("peak_rss_mib", rss, "MiB")

    if ctx.trace:
        traced_draws = len(traced) * BLOCK
        loop_seconds = sum(traced)
        for name, value in core_layer_metrics(tracer, traced_draws,
                                              loop_seconds).items():
            ctx.metric(name, value)
        ctx.metric("trace.overhead_frac", median(traced) / median(plain) - 1.0)
        ctx.metric("core.labels_per_draw", sampler.labels_consumed / draws)
        state_bytes = len(dump_state_binary(sampler.state_dict()))
        ctx.metric("core.state_kib_per_kdraw", state_bytes / 1024 / (draws / 1000))

    # -- correctness ---------------------------------------------------------
    # sample(n) must be bit-identical to n x sample_batch(1): compare the
    # timed loop's own first PREFIX draws against a fresh sampler.
    reference = oasis(pool, seed, n_strata=30)
    for _ in range(PREFIX):
        reference.sample_batch(1)
    ours = np.asarray(sampler.history[:PREFIX])
    theirs = np.asarray(reference.history)
    ctx.check("sample_equals_batch1_prefix",
              ours.tobytes() == theirs.tobytes()
              and sampler.sampled_indices[:PREFIX] == reference.sampled_indices
              and sampler.budget_history[:PREFIX] == reference.budget_history,
              f"{PREFIX} draws")
    estimate = ctx.observed(sampler.estimate)
    truth = f_measure(labels, predictions)
    ctx.check("estimate_near_pool_f",
              np.isfinite(estimate) and abs(estimate - truth) < 0.1,
              f"estimate {estimate:.4f} vs pool F {truth:.4f} "
              f"after {draws} draws")
    ctx.check("estimate_is_last_history_entry",
              same_float(estimate, sampler.history[-1]))
