"""Decision rule, calibration, and metric oracles (brute-force one-vs-rest
and the explicit binary MCC formula, both in helpers.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binary_mcc, brute_force_suite, classify_pair
from pairstate import labels, metrics
from pairstate.errors import ConfigError
from pairstate.metrics import (DecisionThresholds, calibrate_boundary,
                               classify_many, confusion_matrix,
                               metric_suite, rk_correlation)


# ---------------------------------------------------------------------------
# classify_pair
# ---------------------------------------------------------------------------

def test_classify_other_precedence():
    th = DecisionThresholds(t=0.1)
    assert classify_pair(0.9, 0.9, th) == labels.OTHER
    assert classify_pair(0.1, 0.51, th) == labels.OTHER


def test_classify_center_is_stable():
    for t in (0.0, 0.1, 0.4):
        assert classify_pair(0.5, 0.0, DecisionThresholds(t=t)) == labels.STABLE


def test_classify_threshold_arithmetic():
    th = DecisionThresholds(t=0.1)
    assert classify_pair(0.65, 0.1, th) == labels.BETTER
    assert classify_pair(0.35, 0.1, th) == labels.WORSE
    assert classify_pair(0.55, 0.1, th) == labels.STABLE


def test_classify_many_matches_scalar():
    rng = np.random.default_rng(0)
    p = rng.random(200)
    o = rng.random(200)
    th = DecisionThresholds(t=0.07)
    vec = classify_many(p, o, th)
    for i in range(200):
        assert labels.LABELS[vec[i]] == classify_pair(p[i], o[i], th)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.001, 0.999), t=st.floats(0, 0.49))
def test_classify_antisymmetry(p, t):
    # points within a few ulp of a band edge may round to either side when
    # the order is flipped; the invariant concerns everything else
    from hypothesis import assume
    assume(abs(p - (0.5 - t)) > 1e-9 and abs(p - (0.5 + t)) > 1e-9)
    th = DecisionThresholds(t=t)
    swap = {labels.BETTER: labels.WORSE, labels.WORSE: labels.BETTER,
            labels.STABLE: labels.STABLE, labels.OTHER: labels.OTHER}
    assert classify_pair(1.0 - p, 0.1, th) == swap[classify_pair(p, 0.1, th)]


def test_thresholds_validation():
    with pytest.raises(ConfigError):
        DecisionThresholds(t=0.5)
    with pytest.raises(ConfigError):
        DecisionThresholds(t=-0.01)


# ---------------------------------------------------------------------------
# rk correlation
# ---------------------------------------------------------------------------

def test_rk_perfect_diagonal():
    assert rk_correlation(np.diag([5, 3, 7, 2])) == 1.0


def test_rk_single_column_is_zero():
    cm = np.zeros((4, 4), dtype=int)
    cm[:, 1] = [5, 5, 5, 5]
    assert rk_correlation(cm) == 0.0


def test_rk_empty_matrix_rejected():
    with pytest.raises(ConfigError):
        rk_correlation(np.zeros((4, 4)))


def test_rk_equals_binary_mcc_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(100):
        cm = rng.integers(0, 50, size=(2, 2))
        if cm.sum() == 0:
            cm[0, 0] = 1
        assert abs(rk_correlation(cm) - binary_mcc(cm)) < 1e-12


def test_rk_bounded_and_permutation_invariant():
    rng = np.random.default_rng(12)
    for _ in range(50):
        cm = rng.integers(0, 30, size=(4, 4))
        if cm.sum() == 0:
            continue
        val = rk_correlation(cm)
        assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12
        perm = rng.permutation(4)
        assert rk_correlation(cm[np.ix_(perm, perm)]) == pytest.approx(val, abs=1e-12)


# ---------------------------------------------------------------------------
# metric suite
# ---------------------------------------------------------------------------

def test_suite_perfect_predictions():
    suite = metric_suite(np.diag([10, 20, 30, 40]))
    for key in metrics.METRIC_KEYS:
        assert suite[key] == pytest.approx(1.0)
    assert suite["zero_denominator_flags"] == []


def test_suite_degenerate_binary_by_hand():
    # [[50, 0], [50, 0]]: recall macro = (1 + 0)/2, specificity = (0 + 1)/2
    suite = metric_suite(np.array([[50, 0], [50, 0]]))
    assert suite["recall"] == pytest.approx(0.5)
    assert suite["specificity"] == pytest.approx(0.5)
    assert suite["bal_acc"] == pytest.approx(0.5)
    assert "precision[1]" in suite["zero_denominator_flags"]


def test_suite_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        cm = rng.integers(0, 40, size=(4, 4))
        if cm.sum() == 0:
            cm[1, 2] = 3
        suite = metric_suite(cm)
        brute = brute_force_suite(cm)
        for key in ("precision", "recall", "specificity", "f1"):
            assert abs(suite[key] - brute[key]) < 1e-12
        assert suite["bal_acc"] == suite["recall"]


def test_suite_macro_permutation_invariant():
    rng = np.random.default_rng(14)
    cm = rng.integers(0, 40, size=(4, 4))
    base = metric_suite(cm)
    perm = rng.permutation(4)
    permuted = metric_suite(cm[np.ix_(perm, perm)])
    for key in metrics.METRIC_KEYS:
        assert permuted[key] == pytest.approx(base[key], abs=1e-12)


# ---------------------------------------------------------------------------
# boundary calibration
# ---------------------------------------------------------------------------

def test_calibrate_separable_clusters():
    # three separable clusters: WORSE near 0.1, STABLE spread over
    # [0.38, 0.62], BETTER near 0.9. Any t in [0.12, 0.4) separates them;
    # the tie-break returns the smallest separating grid value, 0.12.
    p = np.concatenate([np.linspace(0.05, 0.1, 20),
                        np.linspace(0.38, 0.62, 20),
                        np.linspace(0.9, 0.95, 20)])
    lab = [labels.WORSE] * 20 + [labels.STABLE] * 20 + [labels.BETTER] * 20
    o = np.zeros(60)
    th = calibrate_boundary(p, o, lab)
    assert 0.1 < th.t < 0.4
    assert th.t == pytest.approx(0.12)
    pred = classify_many(p, o, th)
    true = np.array([labels.LABEL_TO_INDEX[l] for l in lab])
    suite = metric_suite(confusion_matrix(true, pred))
    # every present class perfectly recovered; absent OTHER is flagged
    assert suite["recall"] == pytest.approx(0.75)
    assert np.trace(confusion_matrix(true, pred)) == 60


def test_calibrate_all_stable_picks_widest_band():
    # scores spread densely over (0, 1): every shrink of the band loses a
    # stable prediction, so the largest grid width wins
    p = np.linspace(0.006, 0.994, 199)
    lab = [labels.STABLE] * 199
    th = calibrate_boundary(p, np.zeros(199), lab)
    assert th.t == pytest.approx(0.495)


def test_calibrate_deterministic():
    rng = np.random.default_rng(15)
    p = rng.random(100)
    o = rng.random(100) * 0.3
    lab = [labels.LABELS[i] for i in rng.integers(0, 4, 100)]
    a = calibrate_boundary(p, o, lab)
    b = calibrate_boundary(p, o, lab)
    assert a == b


def test_calibrate_empty_rejected():
    with pytest.raises(ConfigError):
        calibrate_boundary(np.array([]), np.array([]), [])


def test_confusion_matrix_totals():
    cm = confusion_matrix([0, 1, 2, 3, 0], [0, 1, 1, 3, 2])
    assert cm.sum() == 5
    assert cm[0, 0] == 1 and cm[0, 2] == 1 and cm[2, 1] == 1
