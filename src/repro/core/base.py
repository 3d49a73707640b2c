"""Shared sampler infrastructure (paper Definition 4's setting).

Every evaluation sampler — OASIS and the baselines — shares the same
contract: it holds (predictions, scores, oracle) for a pool, draws
items with replacement, queries the oracle for *new* items only (label
caching: footnote 5 — a repeated draw is free), and maintains an
estimate of its target ratio measure (the paper's F-measure by
default) whose history is indexed both by iteration and by distinct
labels consumed.

Two execution paths share that contract:

* the sequential path (:meth:`BaseEvaluationSampler.sample`), one
  oracle query per iteration, exactly as the paper specifies; and
* the batched path (:meth:`BaseEvaluationSampler.sample_batch`), which
  freezes the sampler's proposal for a block of ``B`` draws and
  amortises the per-iteration Python overhead across the block.
  Holding the instrumental distribution fixed over a block is the
  standard adaptive-importance-sampling relaxation (Delyon & Portier):
  the weights stay unbiased because each draw's weight uses the
  proposal it was actually drawn from.  ``sample_batch`` with
  ``batch_size=1`` is bit-identical to one sequential step under the
  same random state.

The batched path is itself split into two halves — a *propose* phase
(:meth:`BaseEvaluationSampler._propose_batch`: consume randomness, pick
the draws) and a *commit* phase
(:meth:`BaseEvaluationSampler._commit_batch`: fold the labels into the
model, estimator and histories).  The oracle round-trip sits exactly at
the seam, which is what lets the serving layer
(:mod:`repro.service`) replace the synchronous oracle call with an
asynchronous propose-pairs → ingest-labels protocol without perturbing
a single draw.

Samplers also support versioned snapshot/restore
(:meth:`BaseEvaluationSampler.state_dict` /
:meth:`~BaseEvaluationSampler.load_state_dict`): restoring a snapshot
into an identically-constructed sampler continues the run bit-for-bit,
RNG stream included.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.measures.ratio import FMeasure, measure_from_spec, resolve_measure
from repro.oracle.base import BaseOracle
from repro.utils import (
    check_count,
    ensure_rng,
    rng_from_state_dict,
    rng_state_dict,
)

__all__ = ["BaseEvaluationSampler"]

#: Version stamp of the sampler snapshot layout.  Version 3 packs the
#: histories into arrays; v2 (measure spec) and v1 (alpha-only) still load.
STATE_FORMAT_VERSION = 3


class BaseEvaluationSampler(abc.ABC):
    """Base class for label-efficient ratio-measure samplers.

    Parameters
    ----------
    predictions:
        Predicted labels (R-hat membership) per pool item.
    scores:
        Similarity scores per pool item.
    oracle:
        Labelling oracle queried for ground truth.
    alpha:
        Deprecated F-measure shim: ``alpha=a`` targets ``FMeasure(a)``
        (0.5 balanced; 1 precision; 0 recall).  Mutually exclusive with
        ``measure``.
    measure:
        The target :class:`~repro.measures.ratio.RatioMeasure` (or a
        kind name / spec dict); defaults to ``FMeasure(0.5)``, the
        paper's setting.
    random_state:
        Seed or generator for the sampling randomness.

    Attributes
    ----------
    measure:
        The resolved target measure.
    alpha:
        The F-family weight of the target measure, or None for non-F
        measures (kept for the historical API).
    estimate:
        Current estimate of the target measure (NaN while undefined).
    history:
        Estimate after every iteration.
    budget_history:
        Distinct labels consumed after every iteration; plotting
        ``history`` against ``budget_history`` gives the paper's
        label-budget curves.
    queried_labels:
        Cache of oracle labels by pool index.
    """

    def __init__(self, predictions, scores, oracle: BaseOracle, *,
                 alpha: float | None = None, measure=None, random_state=None):
        predictions = np.asarray(predictions)
        scores = np.asarray(scores, dtype=float)
        if predictions.shape != scores.shape or predictions.ndim != 1:
            raise ValueError(
                f"predictions {predictions.shape} and scores {scores.shape} "
                "must be aligned 1-D arrays"
            )
        if len(predictions) == 0:
            raise ValueError("pool must be non-empty")
        unique = set(np.unique(predictions).tolist())
        if not unique <= {0, 1}:
            raise ValueError(f"predictions must be binary; found {unique}")
        self.measure = resolve_measure(measure, alpha)

        self.predictions = predictions.astype(np.int8)
        self.scores = scores
        self.oracle = oracle
        self.rng = ensure_rng(random_state)

        self.queried_labels: dict[int, int] = {}
        # Array mirror of ``queried_labels`` (-1 = unqueried) so the
        # batched path can resolve cache hits with one gather instead
        # of a Python dict probe per draw.
        self._label_cache = np.full(len(predictions), -1, dtype=np.int8)
        self.history: list[float] = []
        self.budget_history: list[int] = []
        self.sampled_indices: list[int] = []

    @property
    def n_items(self) -> int:
        return len(self.predictions)

    @property
    def alpha(self):
        """The F-family weight, or None for non-F measures (deprecated)."""
        return getattr(self.measure, "alpha", None)

    @property
    def labels_consumed(self) -> int:
        """Distinct oracle labels consumed so far (the budget)."""
        return len(self.queried_labels)

    @property
    def estimate(self) -> float:
        if not self.history:
            return float("nan")
        return self.history[-1]

    def _query_label(self, index: int) -> int:
        """Oracle label for ``index`` with caching (footnote 5)."""
        index = int(index)
        cached = self.queried_labels.get(index)
        if cached is not None:
            return cached
        label = int(self.oracle.label(index))
        if label not in (0, 1):
            raise ValueError(f"oracle returned non-binary label {label}")
        self.queried_labels[index] = label
        self._label_cache[index] = label
        return label

    def _pending_fresh(self, indices) -> np.ndarray:
        """Distinct not-yet-labelled indices of a batch of draws.

        Returned in first-occurrence order — exactly the order the
        oracle (or an asynchronous labeller) must answer them in for
        randomised labellers to consume their randomness as the
        sequential path would.
        """
        indices = np.asarray(indices, dtype=np.int64)
        unknown = self._label_cache[indices] < 0
        if not np.any(unknown):
            return np.zeros(0, dtype=np.int64)
        unknown_values = indices[unknown]
        unique, first_pos = np.unique(unknown_values, return_index=True)
        return unique[np.argsort(first_pos)]

    def _apply_labels(self, indices, fresh_labels) -> tuple[np.ndarray, np.ndarray]:
        """Fold labels for :meth:`_pending_fresh` indices into the caches.

        ``fresh_labels`` must align with ``self._pending_fresh(indices)``
        (the dedup is recomputed here in one pass — the caches have not
        changed in between).  Shape and label range are re-checked at
        this trust boundary, as the labels may come from an overridden
        oracle backend or an external client.

        Returns
        -------
        labels:
            int64 label array aligned with ``indices``.
        new_mask:
            Boolean array marking the positions that consumed a fresh
            distinct label (the first occurrence of each
            previously-unqueried index); its cumulative sum is the
            intra-batch label-budget trajectory.
        """
        indices = np.asarray(indices, dtype=np.int64)
        fresh_labels = np.asarray(fresh_labels, dtype=np.int64)
        new_mask = np.zeros(len(indices), dtype=bool)
        # One dedup pass serves both outputs: ``fresh`` (what the labels
        # must align with) and ``new_mask`` (where the budget advances).
        unknown_pos = np.flatnonzero(self._label_cache[indices] < 0)
        if unknown_pos.size:
            unknown_values = indices[unknown_pos]
            unique, first_pos = np.unique(unknown_values, return_index=True)
            fresh = unique[np.argsort(first_pos)]
        else:
            fresh = np.zeros(0, dtype=np.int64)
        if fresh_labels.shape != fresh.shape:
            raise ValueError(
                f"oracle returned {fresh_labels.shape} labels for "
                f"{fresh.shape} queries"
            )
        if fresh.size:
            if np.any((fresh_labels != 0) & (fresh_labels != 1)):
                bad = fresh_labels[(fresh_labels != 0) & (fresh_labels != 1)][0]
                raise ValueError(f"oracle returned non-binary label {bad}")
            new_mask[unknown_pos[first_pos]] = True
            self._label_cache[fresh] = fresh_labels
            self.queried_labels.update(
                zip(fresh.tolist(), fresh_labels.tolist()))
        labels = self._label_cache[indices].astype(np.int64)
        return labels, new_mask

    def _query_labels(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Bulk cached oracle lookup for a batch of draws.

        Cache hits are resolved with one vectorised gather; the
        remaining distinct indices (:meth:`_pending_fresh`) are
        forwarded to the oracle's
        :meth:`~repro.oracle.base.BaseOracle.query_many` in
        first-occurrence order, so randomised oracles consume their
        randomness exactly as the sequential path would, and the
        answers are folded back in via :meth:`_apply_labels`.

        Returns the ``(labels, new_mask)`` pair of
        :meth:`_apply_labels`.
        """
        indices = np.asarray(indices, dtype=np.int64)
        fresh = self._pending_fresh(indices)
        if fresh.size:
            fresh_labels = np.asarray(self.oracle.query_many(fresh), dtype=np.int64)
        else:
            fresh_labels = np.zeros(0, dtype=np.int64)
        return self._apply_labels(indices, fresh_labels)

    @abc.abstractmethod
    def _step(self) -> None:
        """Perform one sampling iteration, appending to the histories."""

    def _propose_batch(self, batch_size: int) -> dict:
        """Propose phase of one batched iteration: pick the draws.

        Consumes randomness and computes everything derivable *without*
        labels — the drawn indices plus whatever per-sampler context
        (strata, weights, frozen proposal) the commit phase needs.
        Returns a context dict with at least ``"indices"``.

        Subclasses with a vectorised batched path override this
        together with :meth:`_commit_batch`; the base implementation
        signals "no split path" and :meth:`_step_batch` falls back to
        looping :meth:`_step`.
        """
        raise NotImplementedError

    def _record_draw(self, index: int, estimate: float) -> None:
        """Append one sequential draw to the per-draw histories."""
        self.sampled_indices.append(index)
        self.history.append(estimate)
        self.budget_history.append(self.labels_consumed)

    def _record_batch(self, indices, new_mask, trajectory=None) -> None:
        """Append a committed batch (and its estimates, if given)."""
        self.sampled_indices.extend(indices.tolist())
        if trajectory is not None:
            self.history.extend(trajectory.tolist())
        consumed = self.labels_consumed
        budgets = consumed - int(new_mask.sum()) + np.cumsum(new_mask)
        self.budget_history.extend(budgets.tolist())

    def _commit_batch(self, context, labels, new_mask) -> None:
        """Commit phase of one batched iteration: fold the labels in.

        ``context`` is the dict returned by :meth:`_propose_batch`;
        ``labels`` / ``new_mask`` come from :meth:`_apply_labels` on
        ``context["indices"]``.  Updates model, estimator and the
        histories — everything downstream of the oracle round-trip.
        """
        raise NotImplementedError

    @property
    def supports_propose_ingest(self) -> bool:
        """Whether this sampler implements the split batched path.

        Split samplers can be driven through the asynchronous
        propose-pairs → ingest-labels protocol of
        :class:`repro.service.session.EvaluationSession`.
        """
        return type(self)._propose_batch is not BaseEvaluationSampler._propose_batch

    def _step_batch(self, batch_size: int) -> None:
        """Perform one batched iteration of ``batch_size`` draws.

        Runs propose → oracle round-trip → commit when the sampler
        implements the split path; otherwise falls back to looping
        :meth:`_step`, preserving exact sequential semantics for
        samplers without a vectorised path.
        """
        if not self.supports_propose_ingest:
            for __ in range(batch_size):
                self._step()
            return
        context = self._propose_batch(batch_size)
        labels, new_mask = self._query_labels(context["indices"])
        self._commit_batch(context, labels, new_mask)

    def sample_batch(self, batch_size: int) -> float:
        """Draw ``batch_size`` items under one frozen proposal.

        The batched counterpart of a single :meth:`_step`: one proposal
        computation is amortised over the whole block, the oracle is
        queried once via :meth:`~repro.oracle.base.BaseOracle.query_many`
        (with cache-aware deduplication), and the model/estimator
        updates are vectorised.  Histories still gain one entry per
        draw, so budget-indexed post-processing is unaffected.

        ``sample_batch(1)`` is bit-identical to one sequential step
        under the same random state.  Returns the updated estimate.
        """
        batch_size = check_count(batch_size, "batch_size")
        self._step_batch(batch_size)
        return self.estimate

    def sample(self, n_iterations: int, *, batch_size: int = 1) -> float:
        """Run ``n_iterations`` sampling draws; return the estimate.

        With ``batch_size > 1`` the draws are executed in blocks of
        (at most) ``batch_size`` via :meth:`sample_batch`; the proposal
        is refreshed between blocks instead of between draws.
        """
        n_iterations = check_count(n_iterations, "n_iterations", minimum=0)
        batch_size = check_count(batch_size, "batch_size")
        if batch_size == 1:
            for __ in range(n_iterations):
                self._step()
        else:
            remaining = n_iterations
            while remaining > 0:
                block = min(batch_size, remaining)
                self._step_batch(block)
                remaining -= block
        return self.estimate

    def sample_until_budget(self, budget: int, *, batch_size: int = 1,
                            max_iterations: int | None = None) -> float:
        """Sample until ``budget`` distinct labels have been consumed.

        ``max_iterations`` bounds the loop for safety; it defaults to
        50x the budget (re-draws of cached items consume iterations but
        not budget).  The budget is exact for every ``batch_size``: a
        draw consumes at most one distinct label, so each block is
        capped at the remaining budget and the run stops with
        ``labels_consumed == budget`` labels billed to the oracle
        (unless ``max_iterations`` or the pool size intervenes).
        """
        budget = check_count(budget, "budget")
        batch_size = check_count(batch_size, "batch_size")
        budget = min(budget, self.n_items)
        if max_iterations is None:
            max_iterations = 50 * budget
        iterations = 0
        while self.labels_consumed < budget and iterations < max_iterations:
            if batch_size == 1:
                self._step()
                iterations += 1
            else:
                block = min(
                    batch_size,
                    budget - self.labels_consumed,
                    max_iterations - iterations,
                )
                self._step_batch(block)
                iterations += block
        return self.estimate

    def sample_distinct(self, n_labels: int, **kwargs) -> float:
        """Alias for :meth:`sample_until_budget`.

        Matches the naming of the original author implementation, where
        ``sample_distinct(n)`` consumes exactly ``n`` distinct oracle
        labels.
        """
        return self.sample_until_budget(n_labels, **kwargs)

    def estimate_at_budgets(self, budgets) -> np.ndarray:
        """Estimates recorded at given distinct-label budgets.

        For each requested budget b, returns the latest estimate at the
        last iteration where ``labels_consumed <= b`` (NaN if the run
        never reached that point or the estimate was undefined).
        """
        budgets = np.asarray(budgets, dtype=int)
        consumed = np.asarray(self.budget_history, dtype=int)
        history = np.asarray(self.history, dtype=float)
        out = np.full(len(budgets), np.nan)
        if len(consumed) == 0:
            return out
        positions = np.searchsorted(consumed, budgets, side="right") - 1
        valid = positions >= 0
        out[valid] = history[positions[valid]]
        return out

    # -- snapshot / restore ------------------------------------------------

    def _extra_state(self) -> dict:
        """Subclass hook: additional state folded into :meth:`state_dict`."""
        return {}

    def _load_extra_state(self, state: dict) -> None:
        """Subclass hook: restore what :meth:`_extra_state` captured."""

    def state_dict(self) -> dict:
        """Versioned snapshot of everything mutable in the sampler.

        The snapshot captures the label cache, the histories, the RNG
        bit-generator state and every model/estimator running sum — but
        *not* the pool arrays or the oracle, which are construction
        inputs.  The restore contract: build a sampler with the same
        constructor arguments (any seed), call :meth:`load_state_dict`,
        and every subsequent draw, estimate and history entry is
        bit-identical to the snapshotted sampler continuing uninterrupted.

        The returned dict contains live NumPy arrays; pass it through
        :func:`repro.service.codec.encode_state` for a JSON-safe form.
        """
        indices = np.fromiter(self.queried_labels.keys(), dtype=np.int64,
                              count=len(self.queried_labels))
        labels = np.fromiter(self.queried_labels.values(), dtype=np.int64,
                             count=len(self.queried_labels))
        state = {
            "format_version": STATE_FORMAT_VERSION,
            "class": type(self).__name__,
            "n_items": self.n_items,
            "measure": self.measure.spec(),
            "rng": rng_state_dict(self.rng),
            "queried_indices": indices,
            "queried_label_values": labels,
            "history": np.array(self.history, dtype=np.float64),
            "budget_history": np.array(self.budget_history, dtype=np.int64),
            "sampled_indices": np.array(self.sampled_indices, dtype=np.int64),
        }
        state.update(self._extra_state())
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        The sampler must have been constructed over the same pool (size
        and class are validated; subclasses validate their structural
        configuration).  Accepts snapshots decoded by
        :func:`repro.service.codec.decode_state`.
        """
        version = state.get("format_version")
        if version not in (1, 2, STATE_FORMAT_VERSION):
            raise ValueError(f"unsupported sampler state version {version!r}")
        if state.get("class") != type(self).__name__:
            raise ValueError(
                f"state was captured from {state.get('class')!r}, not "
                f"{type(self).__name__!r}"
            )
        if int(state["n_items"]) != self.n_items:
            raise ValueError(
                f"state covers a pool of {state['n_items']} items, but this "
                f"sampler has {self.n_items}"
            )
        if version == 1:
            # v1 snapshots predate the measure axis: they always target
            # the F-measure and record only its alpha weight.
            captured = FMeasure(float(state["alpha"]))
        else:
            captured = measure_from_spec(state["measure"])
        if captured != self.measure:
            raise ValueError(
                f"state was captured for measure {captured.name}, but this "
                f"sampler targets {self.measure.name}"
            )
        self.rng = rng_from_state_dict(state["rng"])
        indices = np.asarray(state["queried_indices"], dtype=np.int64)
        labels = np.asarray(state["queried_label_values"], dtype=np.int64)
        if indices.shape != labels.shape:
            raise ValueError("queried indices and labels must align")
        self.queried_labels = {
            int(i): int(l) for i, l in zip(indices.tolist(), labels.tolist())
        }
        self._label_cache = np.full(self.n_items, -1, dtype=np.int8)
        if indices.size:
            self._label_cache[indices] = labels.astype(np.int8)
        self.history = np.asarray(state["history"], float).tolist()
        self.budget_history = np.asarray(state["budget_history"], int).tolist()
        self.sampled_indices = np.asarray(state["sampled_indices"], int).tolist()
        self._load_extra_state(state)
