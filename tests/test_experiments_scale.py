"""Reproducibility of the scale-ladder rung runner."""

from repro.datasets.scale import ScaleSpec
from repro.experiments.scale import run_scale_rung


def test_same_seed_rungs_are_identical():
    # Every randomised component of the rung — generation, blocking,
    # the SVM and its Platt calibration folds, OASIS — is seeded from
    # the rung seed, so two runs must agree exactly.
    spec = ScaleSpec(name="tiny", n_entities=400)
    first = run_scale_rung(spec, seed=3, train_size=300, label_budget=120,
                           oracle_recall_check=False)
    second = run_scale_rung(spec, seed=3, train_size=300, label_budget=120,
                            oracle_recall_check=False)
    assert first["n_candidates"] == second["n_candidates"]
    assert (first["pool_performance"]["f_measure"]
            == second["pool_performance"]["f_measure"])
    assert first["oasis"]["estimate"] == second["oasis"]["estimate"]
