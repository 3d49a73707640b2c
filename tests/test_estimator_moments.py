"""The AIS estimator's closed-form variance, CI and ESS.

With binary labels and predictions every observation falls into one of
four (label, prediction) cells, and within a cell its influence on the
delta-method variance is linear in its importance weight.  The
estimator therefore keeps only count, sum w and sum w^2 per cell — 12
floats — instead of a per-draw observation log.  These tests hold the
closed forms to the per-observation formulas they replace, for every
registered measure, and check that the snapshot no longer grows with
the number of draws.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core import AISEstimator
from repro.measures.ratio import (
    MEASURE_KINDS,
    BalancedAccuracy,
    FMeasure,
    LinearRatioMeasure,
    measure_from_spec,
)
from repro.service.codec import decode_state, dump_state_binary

FIXTURES = Path(__file__).parent / "fixtures"

#: Relative agreement required between closed form and reference.
RTOL = 1e-12


# -- the per-observation formulas the closed forms replace ------------------

def reference_variance(measure, g_hat, labels, predictions, weights):
    """Delta-method variance from an explicit observation log."""
    t = len(labels)
    if np.isnan(g_hat) or t == 0:
        return float("nan")
    if isinstance(measure, LinearRatioMeasure):
        # Each observation's numerator and denominator coefficient: the
        # measure's mass coefficient of its (TP, FP, FN, TN) cell.
        cell = np.select(
            [labels * predictions == 1, predictions == 1, labels == 1],
            [0, 1, 2], 3)
        g_num, g_den = measure.numerator[cell], measure.denominator[cell]
        b_bar = float(np.sum(weights * g_den)) / t
        if b_bar <= 0:
            return float("nan")
        influence = weights * (g_num - g_hat * g_den)
        return float(np.mean(influence**2) / (t * b_bar**2))
    moments = measure.observation_moments(labels, predictions, weights)
    mean_moments = moments.sum(axis=0) / t
    gradient = np.asarray(measure.moment_gradient(*mean_moments), dtype=float)
    if not np.all(np.isfinite(gradient)):
        return float("nan")
    influence = moments @ gradient - float(mean_moments @ gradient)
    return float(np.mean(influence**2) / t)


def cancellation_scale(measure, labels, predictions, weights):
    """The variance the gradient form would have without cancellation.

    In the gradient form each influence ``sum_k w x_k g_k - mu`` can
    cancel to (nearly) zero — for example balanced accuracy on a sample
    with no false positives and no false negatives, whose variance is
    exactly zero.  Float64 evaluates such a cancelled sum only to about
    1e-16 of the magnitude of its terms, so neither formula is accurate
    relative to the (near) zero result; both are accurate relative to
    this scale.  The linear form has no such cancellation (its terms
    are non-negative) and is compared on relative error alone.
    """
    if isinstance(measure, LinearRatioMeasure):
        return 0.0
    t = len(labels)
    moments = measure.observation_moments(labels, predictions, weights)
    gradient = measure.moment_gradient(*(moments.sum(axis=0) / t))
    if not np.all(np.isfinite(gradient)):
        return 0.0
    terms = np.abs(moments * gradient).sum(axis=1)
    return float(np.mean(terms**2) / t)


def assert_close(actual, expected, scale=0.0):
    if np.isnan(expected):
        assert np.isnan(actual), (actual, expected)
        return
    bound = RTOL * max(abs(expected), scale)
    assert abs(actual - expected) <= bound, (actual, expected, scale)


# -- Hypothesis: closed forms against the per-observation formulas ----------

# Importance weights p/q over the range the repo's other estimator
# properties use, plus exact zeros.  The cell sums hold sum w^2, so the
# closed forms need w^2 to be a normal float64 (|w| within about
# 1e-150..1e150); the per-observation formulas squared w * influence
# instead and reached further.
observations = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, 1),
        st.one_of(st.floats(0.01, 100.0), st.sampled_from([0.0, 1.0, 0.5])),
    ),
    min_size=0,
    max_size=80,
)


def measures():
    named = [st.just(cls()) for kind, cls in sorted(MEASURE_KINDS.items())
             if kind != "fmeasure"]
    return st.one_of(st.floats(0.0, 1.0).map(FMeasure), *named)


def fill(estimator, rows, chunks):
    """Feed ``rows`` through a mix of scalar and batched updates."""
    position = 0
    for size in chunks:
        block = rows[position:position + size]
        position += size
        if len(block) == 1:
            estimator.update(*block[0])
        elif block:
            labels, predictions, weights = zip(*block)
            estimator.update_batch(labels, predictions, weights)
    for label, prediction, weight in rows[position:]:
        estimator.update(label, prediction, weight)


@settings(max_examples=300, deadline=None)
# A perfect classifier under balanced accuracy: every influence cancels
# and the true variance is zero, so both formulas return float noise.
@example(rows=[(1, 1, 0.3), (0, 0, 0.7), (1, 1, 1.1), (0, 0, 2.9)],
         measure=BalancedAccuracy(), chunks=[2], level=0.95)
@given(rows=observations, measure=measures(),
       chunks=st.lists(st.integers(1, 30), max_size=6),
       level=st.floats(0.5, 0.99))
def test_closed_forms_match_per_observation_formulas(rows, measure, chunks,
                                                     level):
    estimator = AISEstimator(measure=measure, track_observations=True)
    fill(estimator, rows, chunks)
    labels = np.array([row[0] for row in rows], dtype=float)
    predictions = np.array([row[1] for row in rows], dtype=float)
    weights = np.array([row[2] for row in rows], dtype=float)

    g_hat = estimator.estimate
    expected = reference_variance(measure, g_hat, labels, predictions,
                                  weights)
    scale = cancellation_scale(measure, labels, predictions, weights) \
        if rows else 0.0
    assert_close(estimator.variance_estimate(), expected, scale)

    low, high = estimator.confidence_interval(level)
    if np.isnan(expected):
        assert np.isnan(low) and np.isnan(high)
    else:
        z = float(stats.norm.ppf(0.5 + level / 2.0))
        lower, upper = measure.bounds
        half_scale = z * np.sqrt(scale)
        assert_close(low, max(lower, g_hat - z * np.sqrt(expected)),
                     half_scale)
        assert_close(high, min(upper, g_hat + z * np.sqrt(expected)),
                     half_scale)

    square_sum = float(np.sum(weights**2))
    expected_ess = (float(np.sum(weights)) ** 2 / square_sum
                    if square_sum > 0 else 0.0)
    assert_close(estimator.weight_ess(), expected_ess)


@pytest.mark.parametrize("kind", sorted(MEASURE_KINDS))
def test_degenerate_samples_give_nan(kind):
    measure = MEASURE_KINDS[kind]()
    estimator = AISEstimator(measure=measure, track_observations=True)
    assert np.isnan(estimator.variance_estimate())
    assert estimator.weight_ess() == 0.0
    estimator.update(0, 0, 0.0)  # zero weight: no mass anywhere
    assert np.isnan(estimator.variance_estimate())
    assert estimator.confidence_interval() == (
        pytest.approx(float("nan"), nan_ok=True),
        pytest.approx(float("nan"), nan_ok=True),
    )


def test_tracked_observations_must_be_binary():
    estimator = AISEstimator(track_observations=True)
    with pytest.raises(ValueError, match="binary"):
        estimator.update(2, 1)
    with pytest.raises(ValueError, match="binary"):
        estimator.update_batch([1, 0.5], [1, 1])
    assert estimator.n_observations == 0
    # Untracked estimators keep accepting fractional observations.
    AISEstimator().update_batch([1, 0.5], [1, 1])


# -- snapshots ---------------------------------------------------------------

def test_snapshot_size_does_not_grow_with_draws():
    rng = np.random.default_rng(0)
    sizes = []
    estimator = AISEstimator(track_observations=True)
    for draws in (1_000, 39_000):
        estimator.update_batch(rng.integers(0, 2, draws),
                               rng.integers(0, 2, draws),
                               rng.random(draws) * 4.0)
        sizes.append(len(dump_state_binary(estimator.state_dict())))
    assert estimator.n_observations == 40_000
    assert sizes[0] == sizes[1]


def test_v2_observation_log_folds_into_cell_sums():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, 300)
    predictions = rng.integers(0, 2, 300)
    weights = rng.random(300) * 3.0
    live = AISEstimator(alpha=0.3, track_observations=True)
    for row in zip(labels.tolist(), predictions.tolist(), weights.tolist()):
        live.update(*row)
    state = live.state_dict()
    # The v2 layout: the observation log instead of the cell sums.
    state["format_version"] = 2
    del state["cells"]
    state["observations"] = np.column_stack([weights, labels, predictions])
    restored = AISEstimator(alpha=0.3, track_observations=True)
    restored.load_state_dict(state)
    assert restored.estimate == live.estimate
    assert restored.confidence_interval() == live.confidence_interval()
    assert restored.weight_ess() == live.weight_ess()


def restored_fixture_session(tmp_path, name):
    from repro.service.session import EvaluationSession

    sidecar = json.loads((FIXTURES / name / "fixture.json").read_text())
    directory = tmp_path / sidecar["session_id"]
    shutil.copytree(FIXTURES / name / sidecar["session_id"], directory)
    return EvaluationSession.restore(directory)


def logged_checkpoint(tmp_path, name):
    """Target measure and estimator state of a fixture's checkpoint."""
    from repro.service.wal import SessionWAL

    sidecar = json.loads((FIXTURES / name / "fixture.json").read_text())
    directory = tmp_path / "log"
    shutil.copytree(FIXTURES / name / sidecar["session_id"], directory)
    checkpoints = [event for event in SessionWAL(directory).events()
                   if event["kind"] == "checkpoint"]
    measure = (measure_from_spec(sidecar["measure"]) if "measure" in sidecar
               else FMeasure(sidecar["alpha"]))
    return measure, decode_state(checkpoints[-1]["state"])["estimator"]


@pytest.mark.parametrize("name", ["v1_session", "binary_wal_session"])
def test_fixture_restore_gives_the_ci_its_log_implies(tmp_path, name):
    measure, state = logged_checkpoint(tmp_path, name)
    log = np.asarray(state["observations"], dtype=float).reshape(-1, 3)
    assert len(log) == state["n_observations"] > 0
    weights, labels, predictions = log.T

    estimator = AISEstimator(measure=measure, track_observations=True)
    estimator.load_state_dict(state)
    g_hat = estimator.estimate
    variance = reference_variance(measure, g_hat, labels, predictions,
                                  weights)
    assert np.isfinite(variance)
    z = float(stats.norm.ppf(0.975))
    lower, upper = measure.bounds
    low, high = estimator.confidence_interval()
    assert_close(low, max(lower, g_hat - z * np.sqrt(variance)))
    assert_close(high, min(upper, g_hat + z * np.sqrt(variance)))

    # The whole session restores through the same fold and keeps going.
    session = restored_fixture_session(tmp_path, name)
    assert np.isfinite(session.telemetry()["ci_width"])


def test_wracc_gradient_with_underflowing_total_is_nan_not_an_error():
    # total**2 underflows to zero below about 1e-154; the variance is
    # then undefined (NaN), as for any non-finite gradient.
    measure = MEASURE_KINDS["wracc"]()
    assert not np.all(np.isfinite(measure.moment_gradient(1e-200, 1e-200,
                                                          1e-200, 1e-200)))
    estimator = AISEstimator(measure=measure, track_observations=True)
    estimator.update_batch([1, 0], [1, 0], [1e-200, 1e-200])
    assert np.isnan(estimator.variance_estimate())
