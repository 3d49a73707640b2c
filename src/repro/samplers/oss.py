"""Online stratified sampling with adaptive Neyman allocation.

An implementation of the adaptive stratified method of Bennett &
Carvalho (paper reference [3]): strata are sampled with probability
proportional to their population weight times a running estimate of
the within-stratum label standard deviation (Neyman allocation), so
labelling effort concentrates where labels are uncertain.  The paper
discusses this approach in related work as adaptive-but-stratified —
stronger than proportional allocation, weaker than importance
sampling.  Included as an extension baseline beyond the paper's three.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import BaseEvaluationSampler
from repro.core.stratification import Strata, stratify
from repro.utils import check_in_range, check_positive, normalise

__all__ = ["OSSSampler"]


class OSSSampler(BaseEvaluationSampler):
    """Adaptive stratified sampler (Neyman allocation on label variance).

    Allocation at iteration t: stratum k is drawn with probability
    proportional to  omega_k * sigma_hat_k + floor, where sigma_hat_k
    is the posterior standard deviation of a Bernoulli with an add-one
    smoothed match-rate estimate, and the epsilon floor keeps every
    stratum reachable.  The F-measure uses the stratified plug-in of
    :class:`~repro.samplers.stratified.StratifiedSampler`.

    Parameters
    ----------
    predictions:
        Predicted labels (R-hat membership) per pool item.
    scores:
        Similarity scores per pool item; drive the stratification.
    oracle:
        Labelling oracle queried for ground truth.
    alpha:
        Deprecated F-measure shim: ``alpha=a`` targets ``FMeasure(a)``.
    measure:
        Target :class:`~repro.measures.ratio.RatioMeasure`; defaults to
        ``FMeasure(0.5)``.  The stratified plug-in estimate evaluates
        this measure from the per-stratum moments.
    n_strata:
        Requested CSF strata.
    epsilon:
        Mixing weight with proportional allocation (coverage floor).
    stratification_method:
        ``"csf"`` (Algorithm 1) or ``"equal_size"``.
    strata:
        Pre-built :class:`~repro.core.stratification.Strata` to reuse
        (skips stratification).
    random_state:
        Seed or generator for the sampling randomness.
    """

    def __init__(
        self,
        predictions,
        scores,
        oracle,
        *,
        alpha=None,
        measure=None,
        n_strata: int = 30,
        epsilon: float = 0.1,
        stratification_method: str = "csf",
        strata: Strata | None = None,
        random_state=None,
    ):
        super().__init__(predictions, scores, oracle, alpha=alpha,
                         measure=measure, random_state=random_state)
        check_in_range(epsilon, 0.0, 1.0, "epsilon", low_open=True)
        self.epsilon = epsilon
        if strata is not None:
            if strata.n_items != self.n_items:
                raise ValueError(
                    f"strata cover {strata.n_items} items but the pool has "
                    f"{self.n_items}"
                )
            self.strata = strata
        else:
            check_positive(n_strata, "n_strata")
            self.strata = stratify(self.scores, n_strata, stratification_method)

        k = self.strata.n_strata
        self._weights = self.strata.weights
        self._total_weight = float(np.sum(self.strata.weights))
        self._mean_predictions = self.strata.stratum_means(self.predictions)
        self._n_sampled = np.zeros(k)
        self._sum_true = np.zeros(k)
        self._sum_tp = np.zeros(k)

    @property
    def n_strata(self) -> int:
        return self.strata.n_strata

    def allocation(self) -> np.ndarray:
        """Current Neyman-style stratum allocation probabilities."""
        # Add-one smoothed match-rate estimate per stratum.
        p_hat = (self._sum_true + 1.0) / (self._n_sampled + 2.0)
        sigma = np.sqrt(p_hat * (1.0 - p_hat))
        neyman = normalise(self._weights * sigma)
        return self.epsilon * self._weights + (1.0 - self.epsilon) * neyman

    def _stratified_estimate(self) -> float:
        sampled = self._n_sampled > 0
        if not np.any(sampled):
            return float("nan")
        tp_rate = np.zeros(self.n_strata)
        true_rate = np.zeros(self.n_strata)
        tp_rate[sampled] = self._sum_tp[sampled] / self._n_sampled[sampled]
        true_rate[sampled] = self._sum_true[sampled] / self._n_sampled[sampled]

        tp = float(np.sum(self._weights * tp_rate))
        predicted = float(np.sum(self._weights * self._mean_predictions))
        actual = float(np.sum(self._weights * true_rate))
        if tp == 0 and actual == 0 and not self.measure.uses_true_negatives:
            # No positive has been seen at all: for positive-class-only
            # measures (the F family) the sample carries no information
            # yet.  TN-weighted measures (accuracy, specificity, ...)
            # are estimable from all-negative samples, so they proceed.
            return float("nan")
        return self.measure.value_from_sums(
            tp, predicted, actual, self._total_weight, clamp=False
        )

    def _step(self) -> None:
        allocation = self.allocation()
        stratum = int(self.rng.choice(self.n_strata, p=allocation))
        index = self.strata.sample_in_stratum(stratum, self.rng)
        label = self._query_label(index)
        prediction = int(self.predictions[index])

        self._n_sampled[stratum] += 1
        self._sum_true[stratum] += label
        self._sum_tp[stratum] += label * prediction

        self._record_draw(index, self._stratified_estimate())

    def _propose_batch(self, batch_size: int) -> dict:
        """Batched draws under a Neyman allocation frozen for the block.

        The allocation — the adaptive part of this sampler — is
        recomputed once per batch rather than once per draw, the same
        block-adaptive relaxation OASIS uses for its instrumental
        distribution; draws are vectorised.
        """
        allocation = self.allocation()
        strata_drawn = self.rng.choice(
            self.n_strata, p=allocation, size=batch_size
        )
        indices = self.strata.sample_in_strata(strata_drawn, self.rng)
        return {"indices": indices, "strata": strata_drawn}

    def _commit_batch(self, context, labels, new_mask) -> None:
        """Fold the labels in; the plug-in estimate is replayed per draw."""
        indices = context["indices"]
        strata_drawn = context["strata"]
        predictions = self.predictions[indices]

        self._record_batch(indices, new_mask)
        for t in range(len(indices)):
            stratum = strata_drawn[t]
            self._n_sampled[stratum] += 1
            self._sum_true[stratum] += labels[t]
            self._sum_tp[stratum] += labels[t] * predictions[t]
            self.history.append(self._stratified_estimate())

    def _extra_state(self) -> dict:
        return {
            "strata_checksum": self.strata.checksum(),
            "epsilon": self.epsilon,
            "n_sampled": np.array(self._n_sampled, copy=True),
            "sum_tp": np.array(self._sum_tp, copy=True),
            "sum_true": np.array(self._sum_true, copy=True),
        }

    def _load_extra_state(self, state: dict) -> None:
        if state["strata_checksum"] != self.strata.checksum():
            raise ValueError(
                "state was captured over a different stratification; "
                "rebuild the sampler with the same scores and strata "
                "configuration before restoring"
            )
        if float(state["epsilon"]) != self.epsilon:
            raise ValueError(
                f"state was captured with epsilon={state['epsilon']}, but "
                f"this sampler has epsilon={self.epsilon}"
            )
        self._n_sampled = np.asarray(state["n_sampled"], dtype=float)
        self._sum_tp = np.asarray(state["sum_tp"], dtype=float)
        self._sum_true = np.asarray(state["sum_true"], dtype=float)
