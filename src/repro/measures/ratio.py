"""Ratio measures over the confusion masses (the generalised Eqn 1/3).

Every target the AIS machinery can estimate is an instance of one
pattern: a smooth function of the four *weighted confusion masses*

    m = (TP, FP, FN, TN),

most of them literally a ratio of linear functionals

    G(m) = (c_num . m) / (c_den . m).

The paper's F-measure is the special case ``c_num = (1, 0, 0, 0)``,
``c_den = (1, alpha, 1 - alpha, 0)``; precision, recall, accuracy and
specificity are other coefficient choices, while balanced accuracy and
weighted relative accuracy are smooth-but-nonlinear members of the same
family.  A :class:`RatioMeasure` packages everything the estimation
stack needs about such a target:

* **evaluation** from the running moments the estimator maintains
  (:meth:`RatioMeasure.value_from_moments`),
* the **gradient** with respect to the masses/moments, which drives the
  delta-method confidence intervals
  (:meth:`RatioMeasure.moment_gradient`), and
* the **per-item variance profile** that the asymptotically optimal
  instrumental distribution is built from
  (:meth:`RatioMeasure.instrumental_weights`) — the paper's Eqn (5)
  closed form falls out of the generic gradient derivation when the
  measure is :class:`FMeasure` (see ``docs/measures.md``).

Moments versus masses
---------------------

The estimator accumulates the *moment* vector

    s = (sum w l lhat,  sum w lhat,  sum w l,  sum w)
      = (TP,  TP + FP,  TP + FN,  TP + FP + FN + TN),

a linear bijection of the masses that is cheaper to maintain online.
Mass-space coefficients convert to moment-space coefficients exactly
(:func:`mass_to_moment_coefficients`), and the conversion is arranged
so the F-measure path evaluates the *identical* floating-point
expression tree as the historical alpha-threaded implementation — the
refactor changes no numeric result on that path, bit for bit.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.measures.confusion import ConfusionCounts, confusion_counts
from repro.utils import check_in_range

__all__ = [
    "RatioMeasure",
    "LinearRatioMeasure",
    "FMeasure",
    "Precision",
    "Recall",
    "Accuracy",
    "Specificity",
    "BalancedAccuracy",
    "WeightedRelativeAccuracy",
    "MEASURE_KINDS",
    "measure_from_spec",
    "resolve_measure",
    "mass_to_moment_coefficients",
]

#: Order of the confusion-mass axis used throughout: (TP, FP, FN, TN).
MASS_LABELS = ("tp", "fp", "fn", "tn")

#: Order of the moment axis: (sum w l lhat, sum w lhat, sum w l, sum w).
MOMENT_LABELS = ("tp", "predicted", "actual", "total")

# Moment indicator of each confusion cell: row c is the moment vector
# x(z, l) of one unit of mass in cell c (TP, FP, FN, TN).  Used to turn
# a moment-space gradient into per-cell scores.
_CELL_MOMENTS = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],  # TP: l = 1, lhat = 1
        [0.0, 1.0, 0.0, 1.0],  # FP: l = 0, lhat = 1
        [0.0, 0.0, 1.0, 1.0],  # FN: l = 1, lhat = 0
        [0.0, 0.0, 0.0, 1.0],  # TN: l = 0, lhat = 0
    ]
)


def mass_to_moment_coefficients(coefficients) -> np.ndarray:
    """Convert mass-space coefficients ``c`` to moment-space ``d``.

    ``c . m == d . s`` identically, with ``m`` the masses and ``s`` the
    moments.  The arithmetic is arranged term by term so that, for the
    F-measure coefficients, the derived moment coefficients are exactly
    ``(0, alpha, 1 - alpha, 0)`` at the floating-point level — the
    cancellation ``(1 - alpha) - (1 - alpha)`` is computed on identical
    float values and is exactly zero.
    """
    c = [float(v) for v in coefficients]
    if len(c) != 4:
        raise ValueError(f"expected 4 mass coefficients, got {len(c)}")
    return np.array(
        [
            ((c[0] - c[1]) - c[2]) + c[3],
            c[1] - c[3],
            c[2] - c[3],
            c[3],
        ]
    )


def _combine(coefficients, tp, predicted, actual, total):
    """``d . s`` with exact-zero coefficients skipped.

    Skipping zero terms keeps two guarantees at once: the surviving
    expression tree is identical to the historical hand-written
    formulas (adding an exact ``0.0`` term is the identity, so dropping
    it changes no bits), and a NaN in a moment a measure does not use
    (e.g. the total-weight moment of a migrated v1 snapshot) cannot
    poison the result.
    """
    out = None
    for coefficient, moment in zip(
        coefficients, (tp, predicted, actual, total)
    ):
        if coefficient == 0.0:
            continue
        term = moment if coefficient == 1.0 else coefficient * moment
        out = term if out is None else out + term
    if out is None:
        return np.zeros(np.broadcast(tp, predicted, actual, total).shape)
    return out


def _scalar_combine(coefficients, tp, predicted, actual, total) -> float:
    """Pure-float ``d . s`` with the same term skipping as :func:`_combine`."""
    out = None
    for coefficient, moment in zip(
        coefficients, (tp, predicted, actual, total)
    ):
        if coefficient == 0.0:
            continue
        term = moment if coefficient == 1.0 else coefficient * moment
        out = term if out is None else out + term
    return 0.0 if out is None else out


class RatioMeasure(abc.ABC):
    """A performance measure over the weighted confusion masses.

    Subclasses provide vectorised evaluation from the moment sums and
    the moment-space gradient; everything else — mass-space gradients,
    instrumental weights, confusion-count evaluation — derives from
    those two.  Instances are immutable value objects: equality and
    hashing go through :meth:`spec`.
    """

    #: Registry key of the concrete measure class.
    kind: str = ""

    #: Mathematical range of the measure; estimates and confidence
    #: intervals are clamped into it.
    bounds: tuple = (0.0, 1.0)

    # -- identity ----------------------------------------------------------

    def spec(self) -> dict:
        """JSON-safe description; round-trips via :func:`measure_from_spec`."""
        return {"kind": self.kind}

    @property
    def name(self) -> str:
        """Compact display name, e.g. ``fmeasure(alpha=0.5)``."""
        spec = self.spec()
        extra = {k: v for k, v in sorted(spec.items()) if k != "kind"}
        if not extra:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in extra.items())
        return f"{self.kind}({inner})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self.name}>"

    def __eq__(self, other) -> bool:
        return isinstance(other, RatioMeasure) and self.spec() == other.spec()

    def __hash__(self) -> int:
        import json

        return hash(json.dumps(self.spec(), sort_keys=True))

    # -- evaluation --------------------------------------------------------

    @abc.abstractmethod
    def value_from_moments(self, tp, predicted, actual, total, *,
                           clamp: bool = True):
        """Evaluate the measure from moment sums (scalars or arrays).

        Returns NaN wherever the measure is undefined (a constituent
        denominator has no mass).  With ``clamp`` (the estimator path)
        the value is clipped into :attr:`bounds`, guarding against
        denominator roundoff; plug-in paths (initialisation, stratified
        estimates) pass ``clamp=False`` to keep their historical
        unclamped behaviour.
        """

    @abc.abstractmethod
    def moment_gradient(self, tp, predicted, actual, total) -> np.ndarray:
        """Gradient of the measure with respect to the moment vector.

        Evaluated at scalar moments; returns shape ``(4,)`` (NaN-filled
        where the measure is undefined).  This is the object the
        delta-method variance and the optimal instrumental distribution
        are built from.
        """

    @property
    def uses_true_negatives(self) -> bool:
        """Whether the TN mass carries information for this measure.

        Positive-class-only measures (the F family) read nothing from
        true negatives, so a sample containing no positive at all is
        genuinely uninformative for them — the condition the stratified
        plug-in estimators use to report a cold-start NaN.  Measures
        that weight the TN cell (accuracy, specificity, ...) stay
        estimable from all-negative samples.  Conservative default:
        True (no cold-start suppression).
        """
        return True

    def value_from_sums(self, tp: float, predicted: float, actual: float,
                        total: float, *, clamp: bool = True) -> float:
        """Scalar counterpart of :meth:`value_from_moments`.

        Semantically identical; exists because the estimators evaluate
        the measure once per draw, where routing four Python floats
        through the array machinery costs an order of magnitude more
        than plain float arithmetic.  Subclasses override with a pure
        scalar expression; the fallback delegates to the vectorised
        path.
        """
        return float(
            self.value_from_moments(tp, predicted, actual, total, clamp=clamp)
        )

    def value_from_counts(self, counts: ConfusionCounts, *,
                          clamp: bool = False) -> float:
        """Evaluate the measure on explicit confusion counts."""
        return self.value_from_sums(
            counts.tp,
            counts.predicted_positives,
            counts.actual_positives,
            counts.total,
            clamp=clamp,
        )

    def value(self, true_labels, pred_labels, weights=None) -> float:
        """Evaluate the measure on labelled data (optionally weighted)."""
        return self.value_from_counts(
            confusion_counts(true_labels, pred_labels, weights=weights)
        )

    def mass_gradient(self, tp, predicted, actual, total) -> np.ndarray:
        """Gradient with respect to the masses ``(TP, FP, FN, TN)``.

        Each component is the moment gradient contracted with the
        moment indicator of one confusion cell — equivalently the
        per-cell influence score driving the instrumental distribution.
        """
        return _CELL_MOMENTS @ np.asarray(
            self.moment_gradient(tp, predicted, actual, total), dtype=float
        )

    # -- optimal instrumental design ---------------------------------------

    def cell_scores(self, base, predictions, probabilities,
                    estimate: float) -> np.ndarray:
        """Per-cell influence scores ``(r_tp, r_fp, r_fn, r_tn)``.

        The generic implementation evaluates the mass gradient at the
        plug-in moments implied by ``(base, predictions,
        probabilities)``; linear ratios override this with the
        moment-free residual ``c_num - G c_den`` (positively
        proportional to the gradient, so the normalised instrumental
        distribution is unchanged).
        """
        base = np.asarray(base, dtype=float)
        predictions = np.asarray(predictions, dtype=float)
        probabilities = np.asarray(probabilities, dtype=float)
        tp = float(np.sum(base * predictions * probabilities))
        predicted = float(np.sum(base * predictions))
        actual = float(np.sum(base * probabilities))
        total = float(np.sum(base))
        return self.mass_gradient(tp, predicted, actual, total)

    def instrumental_weights(self, base, predictions, probabilities,
                             estimate: float) -> np.ndarray:
        """Unnormalised asymptotically optimal instrumental weights.

        The generalisation of paper Eqn (5): item ``z`` receives mass

            base(z) * sqrt( E_{l | z} [ (grad . x(z, l))^2 ] )

        where ``x(z, l)`` is the moment contribution of observing label
        ``l`` on ``z`` and the expectation is over the (estimated)
        oracle probability.  With fractional predictions (per-stratum
        means) the lhat = 0 and lhat = 1 profiles mix linearly, exactly
        as the stratified Eqn (12) does for the F-measure.

        Returns a copy of ``base`` when the gradient is undefined (no
        information yet), mirroring the NaN-estimate fallback.
        """
        base = np.asarray(base, dtype=float)
        predictions = np.asarray(predictions, dtype=float)
        probabilities = np.asarray(probabilities, dtype=float)
        scores = np.asarray(
            self.cell_scores(base, predictions, probabilities, estimate),
            dtype=float,
        )
        if not np.all(np.isfinite(scores)):
            return np.array(base, copy=True)
        r_tp, r_fp, r_fn, r_tn = scores
        positive = np.sqrt(
            probabilities * r_tp**2 + (1.0 - probabilities) * r_fp**2
        )
        negative = np.sqrt(
            probabilities * r_fn**2 + (1.0 - probabilities) * r_tn**2
        )
        return base * (
            predictions * positive + (1.0 - predictions) * negative
        )

    # -- variance ----------------------------------------------------------

    def observation_moments(self, labels, predictions, weights) -> np.ndarray:
        """Per-observation weighted moment rows ``w * x`` (T x 4)."""
        labels = np.asarray(labels, dtype=float)
        predictions = np.asarray(predictions, dtype=float)
        weights = np.asarray(weights, dtype=float)
        return np.column_stack(
            [
                weights * labels * predictions,
                weights * predictions,
                weights * labels,
                weights,
            ]
        )


class LinearRatioMeasure(RatioMeasure):
    """A ratio of linear functionals of the masses.

    Parameters
    ----------
    numerator:
        Mass-space coefficients ``c_num`` over ``(TP, FP, FN, TN)``.
    denominator:
        Mass-space coefficients ``c_den``; must be non-negative so that
        positive denominator mass is exactly the "measure is defined"
        condition.
    """

    def __init__(self, numerator, denominator):
        self.numerator = np.asarray(
            [float(v) for v in numerator], dtype=float
        )
        self.denominator = np.asarray(
            [float(v) for v in denominator], dtype=float
        )
        if self.numerator.shape != (4,) or self.denominator.shape != (4,):
            raise ValueError("coefficient vectors must have length 4")
        if np.any(self.denominator < 0):
            raise ValueError("denominator coefficients must be non-negative")
        self._moment_numerator = mass_to_moment_coefficients(self.numerator)
        self._moment_denominator = mass_to_moment_coefficients(self.denominator)
        # Scalar (pure-float) copies of the moment coefficients for the
        # per-draw hot path — see value_from_sums.
        self._scalar_numerator = tuple(float(v) for v in self._moment_numerator)
        self._scalar_denominator = tuple(
            float(v) for v in self._moment_denominator
        )
        self.bounds = self._derive_bounds()

    def _derive_bounds(self) -> tuple:
        """Exact range of the ratio over the non-negative mass cone.

        A ratio of linear functionals attains its extremes at the cell
        vertices: cells with positive denominator mass contribute their
        coefficient ratio; a cell with zero denominator but non-zero
        numerator pushes the corresponding end to infinity.  For the
        classical measures this derives exactly (0.0, 1.0); custom
        coefficient choices (e.g. ``(TP - FP) / (TP + FP)``) get their
        true range instead of a silently wrong clamp.
        """
        low, high = np.inf, -np.inf
        for num_c, den_c in zip(self.numerator, self.denominator):
            if den_c > 0:
                ratio = float(num_c) / float(den_c)
                low = min(low, ratio)
                high = max(high, ratio)
            elif num_c > 0:
                high = np.inf
            elif num_c < 0:
                low = -np.inf
        if not low <= high:
            return (-np.inf, np.inf)
        return (float(low), float(high))

    @property
    def uses_true_negatives(self) -> bool:
        return bool(self.numerator[3] != 0.0 or self.denominator[3] != 0.0)

    kind = "linear"

    def spec(self) -> dict:
        if type(self) is not LinearRatioMeasure:
            # Named subclasses (precision, recall, ...) are identified
            # by their kind alone; the coefficients are implied.
            return super().spec()
        return {
            "kind": self.kind,
            "numerator": [float(v) for v in self.numerator],
            "denominator": [float(v) for v in self.denominator],
        }

    def value_from_moments(self, tp, predicted, actual, total, *,
                           clamp: bool = True):
        numerator = _combine(self._moment_numerator, tp, predicted, actual, total)
        denominator = _combine(
            self._moment_denominator, tp, predicted, actual, total
        )
        low, high = self.bounds
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = numerator / np.asarray(denominator, dtype=float)
            if clamp:
                ratio = np.clip(ratio, low, high)
            return np.where(np.asarray(denominator) > 0, ratio, np.nan)

    def value_from_sums(self, tp: float, predicted: float, actual: float,
                        total: float, *, clamp: bool = True) -> float:
        # The per-draw hot path: the historical scalar expression tree
        # (zero coefficients skipped, unit coefficients not multiplied),
        # bit-identical to the vectorised evaluation.
        numerator = _scalar_combine(
            self._scalar_numerator, tp, predicted, actual, total
        )
        denominator = _scalar_combine(
            self._scalar_denominator, tp, predicted, actual, total
        )
        if not denominator > 0:  # catches NaN denominators too
            return float("nan")
        value = numerator / denominator
        if value != value:  # NaN numerator; min/max would mishandle it
            return value
        if clamp:
            low, high = self.bounds
            return max(low, min(high, value))
        return value

    def moment_gradient(self, tp, predicted, actual, total) -> np.ndarray:
        denominator = float(
            _combine(self._moment_denominator, tp, predicted, actual, total)
        )
        if denominator <= 0:
            return np.full(4, np.nan)
        value = float(
            _combine(self._moment_numerator, tp, predicted, actual, total)
        ) / denominator
        return (
            self._moment_numerator - value * self._moment_denominator
        ) / denominator

    def cell_scores(self, base, predictions, probabilities,
                    estimate: float) -> np.ndarray:
        # The mass gradient of a linear ratio is (c_num - G c_den) / D;
        # the positive 1/D scale is constant across items and cells, so
        # the residuals alone determine the normalised distribution —
        # and they only need the running estimate, not plug-in moments.
        if not np.isfinite(estimate):
            return np.full(4, np.nan)
        return self.numerator - float(estimate) * self.denominator


class FMeasure(LinearRatioMeasure):
    """The paper's F_alpha (Eqn 1): ``TP / (alpha (TP+FP) + (1-alpha) (TP+FN))``.

    ``alpha = 1`` is precision, ``alpha = 0`` recall, ``alpha = 1/2``
    the balanced F-measure; ``alpha = 1 / (1 + beta^2)`` maps from the
    conventional F_beta parametrisation.
    """

    kind = "fmeasure"

    def __init__(self, alpha: float = 0.5):
        check_in_range(alpha, 0.0, 1.0, "alpha")
        self.alpha = float(alpha)
        super().__init__(
            numerator=(1.0, 0.0, 0.0, 0.0),
            denominator=(1.0, self.alpha, 1.0 - self.alpha, 0.0),
        )

    def spec(self) -> dict:
        return {"kind": self.kind, "alpha": self.alpha}

    def instrumental_weights(self, base, predictions, probabilities,
                             estimate: float) -> np.ndarray:
        # The closed form of paper Eqns (5)/(12).  It is the generic
        # gradient-based expression of the base class with the residuals
        # r_tp = 1 - F, r_fp = -alpha F, r_fn = -(1-alpha) F, r_tn = 0
        # substituted and the square roots simplified algebraically
        # (sqrt(pi r^2) = |r| sqrt(pi)); the historical expression tree
        # is kept verbatim so the F-measure sampling path is
        # bit-identical to the pre-measure implementation.
        if not np.isfinite(estimate):
            return np.array(np.asarray(base, dtype=float), copy=True)
        base = np.asarray(base, dtype=float)
        predictions = np.asarray(predictions, dtype=float)
        probabilities = np.asarray(probabilities, dtype=float)
        f = float(estimate)
        alpha = self.alpha
        negative_term = (
            (1.0 - alpha) * (1.0 - predictions) * f * np.sqrt(probabilities)
        )
        positive_term = predictions * np.sqrt(
            (alpha * f) ** 2 * (1.0 - probabilities)
            + (1.0 - f) ** 2 * probabilities
        )
        return base * (negative_term + positive_term)


class Precision(LinearRatioMeasure):
    """``TP / (TP + FP)`` — F_alpha at ``alpha = 1``."""

    kind = "precision"
    alpha = 1.0

    def __init__(self):
        super().__init__(
            numerator=(1.0, 0.0, 0.0, 0.0), denominator=(1.0, 1.0, 0.0, 0.0)
        )


class Recall(LinearRatioMeasure):
    """``TP / (TP + FN)`` — F_alpha at ``alpha = 0``."""

    kind = "recall"
    alpha = 0.0

    def __init__(self):
        super().__init__(
            numerator=(1.0, 0.0, 0.0, 0.0), denominator=(1.0, 0.0, 1.0, 0.0)
        )


class Accuracy(LinearRatioMeasure):
    """``(TP + TN) / (TP + FP + FN + TN)``.

    Needs the total-weight moment the F-family ignores, which is why
    the estimator tracks all four moments.
    """

    kind = "accuracy"

    def __init__(self):
        super().__init__(
            numerator=(1.0, 0.0, 0.0, 1.0), denominator=(1.0, 1.0, 1.0, 1.0)
        )


class Specificity(LinearRatioMeasure):
    """``TN / (TN + FP)`` — the true-negative rate."""

    kind = "specificity"

    def __init__(self):
        super().__init__(
            numerator=(0.0, 0.0, 0.0, 1.0), denominator=(0.0, 1.0, 0.0, 1.0)
        )


class BalancedAccuracy(RatioMeasure):
    """``(recall + specificity) / 2`` — a smooth non-linear member.

    Not a single ratio of linear functionals, but still a smooth
    function of the masses, so the gradient machinery (delta-method
    CIs, optimal instrumental) applies unchanged.
    """

    kind = "balanced_accuracy"

    def value_from_moments(self, tp, predicted, actual, total, *,
                           clamp: bool = True):
        tp = np.asarray(tp, dtype=float)
        predicted = np.asarray(predicted, dtype=float)
        actual = np.asarray(actual, dtype=float)
        total = np.asarray(total, dtype=float)
        negatives = total - actual
        tn = total - predicted - actual + tp
        with np.errstate(invalid="ignore", divide="ignore"):
            value = 0.5 * (tp / actual) + 0.5 * (tn / negatives)
            if clamp:
                value = np.clip(value, *self.bounds)
            return np.where((actual > 0) & (negatives > 0), value, np.nan)

    def value_from_sums(self, tp: float, predicted: float, actual: float,
                        total: float, *, clamp: bool = True) -> float:
        negatives = total - actual
        if not (actual > 0 and negatives > 0):
            return float("nan")
        tn = total - predicted - actual + tp
        value = 0.5 * (tp / actual) + 0.5 * (tn / negatives)
        if value != value:
            return value
        if clamp:
            low, high = self.bounds
            return max(low, min(high, value))
        return value

    def moment_gradient(self, tp, predicted, actual, total) -> np.ndarray:
        tp, predicted, actual, total = (
            float(tp), float(predicted), float(actual), float(total)
        )
        negatives = total - actual
        if actual <= 0 or negatives <= 0:
            return np.full(4, np.nan)
        tn = total - predicted - actual + tp
        recall = tp / actual
        specificity = tn / negatives
        return np.array(
            [
                0.5 / actual + 0.5 / negatives,
                -0.5 / negatives,
                -0.5 * recall / actual + 0.5 * (specificity - 1.0) / negatives,
                0.5 * (1.0 - specificity) / negatives,
            ]
        )


class WeightedRelativeAccuracy(RatioMeasure):
    """WRAcc: ``P(lhat=1, l=1) - P(lhat=1) P(l=1)`` over the weighted pool.

    The covariance between prediction and label — the subgroup-discovery
    trade-off between coverage and purity.  Degree-0 homogeneous in the
    masses, so it evaluates directly on unnormalised moment sums; its
    mathematical range is ``[-0.25, 0.25]``.
    """

    kind = "wracc"
    bounds = (-0.25, 0.25)

    def value_from_moments(self, tp, predicted, actual, total, *,
                           clamp: bool = True):
        tp = np.asarray(tp, dtype=float)
        predicted = np.asarray(predicted, dtype=float)
        actual = np.asarray(actual, dtype=float)
        total = np.asarray(total, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            value = tp / total - (predicted / total) * (actual / total)
            if clamp:
                value = np.clip(value, *self.bounds)
            return np.where(total > 0, value, np.nan)

    def value_from_sums(self, tp: float, predicted: float, actual: float,
                        total: float, *, clamp: bool = True) -> float:
        if not total > 0:
            return float("nan")
        value = tp / total - (predicted / total) * (actual / total)
        if value != value:
            return value
        if clamp:
            low, high = self.bounds
            return max(low, min(high, value))
        return value

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def moment_gradient(self, tp, predicted, actual, total) -> np.ndarray:
        # A NumPy total: if its powers underflow, the result is non-finite
        # (callers fall back to NaN) instead of a ZeroDivisionError.
        tp, predicted, actual, total = (
            float(tp), float(predicted), float(actual), np.float64(total)
        )
        if total <= 0:
            return np.full(4, np.nan)
        return np.array(
            [
                1.0 / total,
                -actual / total**2,
                -predicted / total**2,
                -tp / total**2 + 2.0 * predicted * actual / total**3,
            ]
        )


#: Registry of named measure kinds (the sweep/CLI/service vocabulary).
MEASURE_KINDS = {
    "fmeasure": FMeasure,
    "precision": Precision,
    "recall": Recall,
    "accuracy": Accuracy,
    "specificity": Specificity,
    "balanced_accuracy": BalancedAccuracy,
    "wracc": WeightedRelativeAccuracy,
}


def measure_from_spec(spec) -> RatioMeasure:
    """Build a measure from a spec: an instance, a kind name, or a dict.

    Dicts are the JSON form produced by :meth:`RatioMeasure.spec`:
    ``{"kind": "fmeasure", "alpha": 0.25}``.  Strings name a kind with
    default parameters.
    """
    if isinstance(spec, RatioMeasure):
        return spec
    if isinstance(spec, str):
        if spec not in MEASURE_KINDS:
            raise ValueError(
                f"unknown measure kind {spec!r}; choose from "
                f"{sorted(MEASURE_KINDS)}"
            )
        return MEASURE_KINDS[spec]()
    if isinstance(spec, dict):
        payload = dict(spec)
        kind = payload.pop("kind", None)
        if kind == "linear":
            return LinearRatioMeasure(**payload)
        if kind not in MEASURE_KINDS:
            raise ValueError(
                f"unknown measure kind {kind!r}; choose from "
                f"{sorted(MEASURE_KINDS)} (or 'linear')"
            )
        return MEASURE_KINDS[kind](**payload)
    raise TypeError(
        f"cannot build a measure from {type(spec).__name__}; pass a "
        "RatioMeasure, a kind name or a spec dict"
    )


def resolve_measure(measure=None, alpha=None, *,
                    default_alpha: float = 0.5) -> RatioMeasure:
    """Resolve the ``(measure=, alpha=)`` pair every entry point accepts.

    ``alpha`` is the historical F-measure-only parametrisation, kept as
    a shim: passing it builds ``FMeasure(alpha)``.  Passing both is an
    error — the caller would otherwise silently target two different
    measures.
    """
    if measure is not None and alpha is not None:
        raise ValueError(
            "pass either measure= or the deprecated alpha=, not both"
        )
    if measure is not None:
        return measure_from_spec(measure)
    return FMeasure(default_alpha if alpha is None else alpha)
