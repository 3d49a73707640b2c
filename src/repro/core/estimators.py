"""Importance-weighted ratio-measure estimation (paper Eqn 3, section 5.2).

The AIS estimator generalises the paper's F-measure estimator to any
:class:`~repro.measures.ratio.RatioMeasure`.  It maintains the four
weighted moment sums

    (sum_t w_t l_t lhat_t,  sum_t w_t lhat_t,  sum_t w_t l_t,  sum_t w_t)

— a linear bijection of the weighted confusion masses (TP, FP, FN, TN)
— and evaluates the configured measure (or any other measure, since the
moments are measure-independent) at every iteration.  For
``FMeasure(alpha)`` this is exactly the paper's ratio of
importance-weighted sums

    F-hat = sum_t w_t l_t lhat_t
            -------------------------------------------------
            alpha sum_t w_t lhat_t + (1-alpha) sum_t w_t l_t

with w_t = p(z_t) / q_t(z_t), evaluated through the identical
floating-point expression tree as the historical alpha-only
implementation.  ``alpha=`` and the ``f_measure()`` / ``precision`` /
``recall`` accessors are kept as thin shims over the measure API.
"""

from __future__ import annotations

import numpy as np

from repro.measures.ratio import (
    FMeasure,
    LinearRatioMeasure,
    measure_from_spec,
    resolve_measure,
)
from repro.utils import check_in_range

__all__ = [
    "AISEstimator",
    "sample_f_measure_history",
    "sample_measure_history",
]

# Binary observations fall into four cells c = 2 l + lhat (TN, FP, FN,
# TP).  Within a cell an observation's delta-method influence is linear
# in its weight, so (count, sum w, sum w^2) per cell suffice for the
# variance and the ESS.  _CELL_MASS maps c to the (TP, FP, FN, TN) mass
# axis; row c of _CELL_MOMENTS is the moment vector (l lhat, lhat, l, 1).
_CELL_MASS = np.array([3, 1, 2, 0])
_CELL_MOMENTS = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0],
                          [0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
_NOT_BINARY = "tracked observations need binary labels and predictions"


class AISEstimator:
    """Online ratio-of-sums estimator for any ratio measure.

    Parameters
    ----------
    alpha:
        Deprecated F-measure shim: ``alpha=a`` is ``measure=FMeasure(a)``
        (0.5 balanced; 1 precision; 0 recall).  Mutually exclusive with
        ``measure``.
    measure:
        The target :class:`~repro.measures.ratio.RatioMeasure` (or a
        kind name / spec dict); defaults to ``FMeasure(0.5)``.
    track_observations:
        Keep count, sum w and sum w^2 per (label, prediction) cell so
        delta-method confidence intervals (:meth:`confidence_interval`)
        and the weight ESS can be computed on demand in closed form.
        Costs 12 floats total; labels and predictions must be binary.
    """

    def __init__(self, alpha: float | None = None, *, measure=None,
                 track_observations: bool = False):
        self.measure = resolve_measure(measure, alpha)
        self.track_observations = track_observations
        self._weighted_tp = 0.0  # sum w * l * lhat
        self._weighted_pred = 0.0  # sum w * lhat
        self._weighted_true = 0.0  # sum w * l
        self._weighted_count = 0.0  # sum w
        self.n_observations = 0
        self._cells = [[0.0, 0.0, 0.0] for _ in range(4)]

    @property
    def alpha(self):
        """The F-family weight, or None for non-F measures (deprecated)."""
        return getattr(self.measure, "alpha", None)

    def update(self, label: int, prediction: int, weight: float = 1.0) -> None:
        """Fold in one observation (l_t, lhat_t) with weight w_t."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative; got {weight}")
        # Plain floats: the same bits as NumPy scalars, cheaper per draw.
        weight, label, prediction = float(weight), float(label), float(prediction)
        if self.track_observations:
            if label not in (0.0, 1.0) or prediction not in (0.0, 1.0):
                raise ValueError(_NOT_BINARY)
            cell = self._cells[int(2.0 * label + prediction)]
            cell[0] += 1.0
            cell[1] += weight
            cell[2] += weight * weight
        self._weighted_tp += weight * label * prediction
        self._weighted_pred += weight * prediction
        self._weighted_true += weight * label
        self._weighted_count += weight
        self.n_observations += 1

    def update_batch(self, labels, predictions, weights=None) -> np.ndarray:
        """Fold in a batch of observations with one vectorised update.

        Equivalent to calling :meth:`update` per observation in order.
        The running sums advance by cumulative sums computed in the
        same left-to-right order as the sequential path, so the
        post-batch state matches a sequential replay of the same
        observations and a batch of one is bit-identical to a single
        :meth:`update`.

        Returns the per-observation estimate trajectory (the value
        :attr:`estimate` would have reported after each observation;
        NaN where undefined) so batched samplers can keep per-draw
        histories without materialising intermediate states.
        """
        labels = np.asarray(labels, dtype=float)
        predictions = np.asarray(predictions, dtype=float)
        if labels.shape != predictions.shape or labels.ndim != 1:
            raise ValueError(
                f"labels {labels.shape} and predictions {predictions.shape} "
                "must be aligned 1-D arrays"
            )
        if weights is None:
            weights = np.ones_like(labels)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != labels.shape:
                raise ValueError(
                    f"weights {weights.shape} must align with labels "
                    f"{labels.shape}"
                )
            if np.any(weights < 0):
                raise ValueError("weights must be non-negative")
        if len(labels) == 0:
            return np.zeros(0)
        if self.track_observations:
            self._fold_cells(labels, predictions, weights)

        # Cumulate with the running sum as the first term so additions
        # happen in exactly the sequential left-to-right order — the
        # post-batch state is bit-identical to a sequential replay.
        def running(start, contributions):
            return np.cumsum(np.concatenate([[start], contributions]))[1:]

        tp_cum = running(self._weighted_tp, weights * labels * predictions)
        pred_cum = running(self._weighted_pred, weights * predictions)
        true_cum = running(self._weighted_true, weights * labels)
        count_cum = running(self._weighted_count, weights)
        trajectory = np.asarray(
            self.measure.value_from_moments(
                tp_cum, pred_cum, true_cum, count_cum
            ),
            dtype=float,
        )

        self._weighted_tp = float(tp_cum[-1])
        self._weighted_pred = float(pred_cum[-1])
        self._weighted_true = float(true_cum[-1])
        self._weighted_count = float(count_cum[-1])
        self.n_observations += len(labels)
        return trajectory

    def _fold_cells(self, labels, predictions, weights) -> None:
        """Add a batch of observations to the per-cell variance sums."""
        if not (np.isin(labels, (0.0, 1.0)).all()
                and np.isin(predictions, (0.0, 1.0)).all()):
            raise ValueError(_NOT_BINARY)
        cells = (2.0 * labels + predictions).astype(np.intp)
        sums = np.column_stack([np.bincount(cells, minlength=4),
                                np.bincount(cells, weights, 4),
                                np.bincount(cells, weights * weights, 4)])
        for cell, (count, total, square) in zip(self._cells, sums.tolist()):
            cell[0] += count
            cell[1] += total
            cell[2] += square

    def measure_value(self, measure=None) -> float:
        """Evaluate any ratio measure at the current moment sums.

        The moments are measure-independent, so a single sampling run
        can be read out under every measure; ``measure=None`` evaluates
        the configured target.
        """
        measure = self.measure if measure is None else measure_from_spec(measure)
        return measure.value_from_sums(
            self._weighted_tp,
            self._weighted_pred,
            self._weighted_true,
            self._weighted_count,
        )

    def f_measure(self, alpha: float | None = None) -> float:
        """Current F_alpha estimate; NaN while undefined.

        With ``alpha=None`` and a non-F configured measure, evaluates
        that measure instead (the method predates the measure API and
        is kept as its F-parametrised shim).
        """
        if alpha is None:
            return self.measure_value()
        check_in_range(alpha, 0.0, 1.0, "alpha")
        return self.measure_value(FMeasure(alpha))

    @property
    def estimate(self) -> float:
        return self.measure_value()

    @property
    def precision(self) -> float:
        return self.f_measure(alpha=1.0)

    @property
    def recall(self) -> float:
        return self.f_measure(alpha=0.0)

    def _resolve(self, alpha, measure):
        if alpha is not None and measure is not None:
            raise ValueError("pass either measure= or alpha=, not both")
        if alpha is not None:
            check_in_range(alpha, 0.0, 1.0, "alpha")
            return FMeasure(alpha)
        if measure is not None:
            return measure_from_spec(measure)
        return self.measure

    def variance_estimate(self, alpha: float | None = None, *,
                          measure=None) -> float:
        """Delta-method variance of the ratio estimator.

        For a linear ratio G = A/B (A, B importance-weighted moment
        means) the first-order expansion gives
        ``Var(G) ~ mean[(w (g_num - G g_den))^2] / (T B^2)``; for
        non-linear measures the full gradient form
        ``mean[(grad . (w x - s))^2] / T`` is used.  Within a cell c the
        influence is ``w r_c`` or ``w a_c - mu``, so both are exact
        closed forms of the cell sums.  Requires ``track_observations=True``;
        returns NaN while the estimate is undefined or the measure's
        denominator mass is zero (degenerate pools never raise).
        """
        if not self.track_observations:
            raise RuntimeError(
                "variance_estimate requires track_observations=True"
            )
        measure = self._resolve(alpha, measure)
        g_hat = self.measure_value(measure)
        count, total, square = np.array(self._cells).T
        logged = float(count.sum())
        if np.isnan(g_hat) or logged == 0:
            return float("nan")
        t = self.n_observations
        if isinstance(measure, LinearRatioMeasure):
            g_num = measure.numerator[_CELL_MASS]
            g_den = measure.denominator[_CELL_MASS]
            b_bar = float(g_den @ total) / t
            if b_bar <= 0:
                return float("nan")
            residual = g_num - g_hat * g_den
            return float((residual**2 @ square) / logged / (t * b_bar**2))
        mean_moments = (total @ _CELL_MOMENTS) / t
        gradient = np.asarray(
            measure.moment_gradient(*mean_moments), dtype=float
        )
        if not np.all(np.isfinite(gradient)):
            return float("nan")
        slope = _CELL_MOMENTS @ gradient
        centre = float(mean_moments @ gradient)
        # sum_t (w_t a_c - mu)^2, expanded per cell.
        sum_squares = (slope**2 @ square - 2.0 * centre * (slope @ total)
                       + centre * centre * logged)
        return float(max(sum_squares, 0.0) / logged / t)

    def confidence_interval(self, level: float = 0.95,
                            alpha: float | None = None, *,
                            measure=None) -> tuple:
        """Normal-approximation confidence interval for the estimate.

        Based on the asymptotic normality of the importance-weighted
        ratio estimator; clipped symmetrically into the measure's
        bounds ([0, 1] for the F family).  Returns (NaN, NaN) while the
        estimate or its variance is undefined.
        """
        from scipy import stats

        check_in_range(level, 0.0, 1.0, "level", low_open=True, high_open=True)
        measure = self._resolve(alpha, measure)
        g_hat = self.measure_value(measure)
        variance = self.variance_estimate(measure=measure)
        if np.isnan(g_hat) or np.isnan(variance):
            return (float("nan"), float("nan"))
        z = float(stats.norm.ppf(0.5 + level / 2.0))
        half = z * np.sqrt(variance)
        low, high = measure.bounds
        return (max(low, g_hat - half), min(high, g_hat + half))

    def weight_ess(self) -> float:
        """Kish effective sample size of the importance weights.

        ``(sum w)^2 / sum w^2`` — equals the observation count when the
        instrumental distribution matches the target exactly and decays
        toward 1 as the weights degenerate, making it a direct
        convergence signal for the sampling policy (the observability
        layer exports it per session).  Requires
        ``track_observations=True``; 0.0 before any observation.
        """
        if not self.track_observations:
            raise RuntimeError("weight_ess requires track_observations=True")
        _, total, square_sum = np.sum(self._cells, axis=0)
        if square_sum <= 0.0:
            return 0.0
        return float(total * total / square_sum)

    def state(self) -> dict:
        """Snapshot of the running sums (for checkpoint/diagnostics)."""
        return {
            "weighted_tp": self._weighted_tp,
            "weighted_pred": self._weighted_pred,
            "weighted_true": self._weighted_true,
            "weighted_count": self._weighted_count,
            "n_observations": self.n_observations,
        }

    def state_dict(self) -> dict:
        """Versioned snapshot capturing the estimator exactly.

        Together with :meth:`load_state_dict` this is the
        snapshot-restore contract of the serving layer: restoring the
        returned dict into a fresh estimator reproduces every future
        estimate bit for bit, including the delta-method confidence
        intervals (the cell sums ride along).

        Format version 3 stores the cell sums as one 4 x 3 ``cells``
        array, so the snapshot size does not grow with updates; version
        2 and 1 snapshots still load — see :meth:`load_state_dict`.
        """
        state = dict(self.state())
        state["format_version"] = 3
        state["measure"] = self.measure.spec()
        state["track_observations"] = self.track_observations
        state["cells"] = np.array(self._cells, dtype=float)
        return state

    def _check_measure(self, captured) -> None:
        if captured != self.measure:
            raise ValueError(
                f"state was captured for measure {captured.name}, but this "
                f"estimator targets {self.measure.name}"
            )

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        Version-1 (alpha-only) snapshots migrate transparently: the
        measure is reconstructed as ``FMeasure(alpha)`` and the missing
        total-weight moment is rebuilt from the observation log
        when present (by the same sequential accumulation the live
        estimator performed, so the restore stays bit-identical) or
        marked NaN otherwise — in which case measures that need the
        total moment (accuracy, specificity, ...) read NaN until reset,
        while the F family is unaffected.
        """
        version = state.get("format_version")
        if version == 1:
            captured = FMeasure(float(state["alpha"]))
        elif version in (2, 3):
            captured = measure_from_spec(state["measure"])
        else:
            raise ValueError(f"unsupported estimator state version {version!r}")
        self._check_measure(captured)
        self._weighted_tp = float(state["weighted_tp"])
        self._weighted_pred = float(state["weighted_pred"])
        self._weighted_true = float(state["weighted_true"])
        self.n_observations = int(state["n_observations"])
        self.track_observations = bool(state["track_observations"])
        log = np.asarray(state.get("observations", ()),
                         dtype=float).reshape(-1, 3)
        self._cells = np.asarray(state.get("cells", np.zeros((4, 3))),
                                 dtype=float).tolist()
        # Snapshots before v3 carry an observation log instead of cells.
        self._fold_cells(log[:, 1], log[:, 2], log[:, 0])
        if version >= 2:
            self._weighted_count = float(state["weighted_count"])
        elif len(log) == self.n_observations:
            # cumsum adds in the live estimator's sequential order.
            self._weighted_count = float(np.cumsum(np.r_[0.0, log[:, 0]])[-1])
        else:
            self._weighted_count = float("nan")

    def reset(self) -> None:
        self._weighted_tp = 0.0
        self._weighted_pred = 0.0
        self._weighted_true = 0.0
        self._weighted_count = 0.0
        self.n_observations = 0
        self._cells = [[0.0, 0.0, 0.0] for _ in range(4)]


def sample_measure_history(labels, predictions, weights=None, *,
                           measure=None, alpha=None):
    """Vectorised trajectory of the AIS estimate after each observation.

    Equivalent to feeding the sequence through :class:`AISEstimator`
    configured with the same measure and recording the estimate at
    every step — used to post-process recorded sampling runs without
    re-simulation.

    Returns an array of length T with NaN where the estimate is
    undefined.
    """
    measure = resolve_measure(measure, alpha)
    labels = np.asarray(labels, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    if weights is None:
        weights = np.ones_like(labels)
    else:
        weights = np.asarray(weights, dtype=float)
    if not (len(labels) == len(predictions) == len(weights)):
        raise ValueError("labels, predictions and weights must share length")

    tp = np.cumsum(weights * labels * predictions)
    pred = np.cumsum(weights * predictions)
    true = np.cumsum(weights * labels)
    count = np.cumsum(weights)
    return np.asarray(
        measure.value_from_moments(tp, pred, true, count), dtype=float
    )


def sample_f_measure_history(labels, predictions, weights=None,
                             alpha: float = 0.5):
    """F-measure shim over :func:`sample_measure_history`."""
    check_in_range(alpha, 0.0, 1.0, "alpha")
    return sample_measure_history(
        labels, predictions, weights, measure=FMeasure(alpha)
    )
