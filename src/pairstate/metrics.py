"""4-class decision rule, boundary calibration, and confusion-matrix metrics.

The progression probability is cut symmetrically around 0.5: inside the
band is STABLE, below is WORSE, above is BETTER. An ungradability
probability above its own threshold overrides everything, since one bad
image already makes the pair ungradable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import labels
from .errors import ConfigError

METRIC_KEYS = ("f1", "rk", "specificity", "bal_acc", "precision", "recall")

CALIBRATION_GRID = np.arange(100) * 0.005          # 0.000 .. 0.495


@dataclass(frozen=True)
class DecisionThresholds:
    t: float                       # half-width of the STABLE band around 0.5
    t_other: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.t < 0.5:
            raise ConfigError(f"t must lie in [0, 0.5), got {self.t}")
        if not 0.0 < self.t_other < 1.0:
            raise ConfigError(f"t_other must lie in (0, 1), got {self.t_other}")


def classify_many(prob_progression, prob_other, th: DecisionThresholds) -> np.ndarray:
    """Class indices, in labels.LABELS order, of the decision rule: OTHER
    wins over the progression classes, then the symmetric band."""
    p = np.asarray(prob_progression)
    o = np.asarray(prob_other)
    out = np.full(p.shape, labels.LABEL_TO_INDEX[labels.STABLE], dtype=np.int64)
    out[p < 0.5 - th.t] = labels.LABEL_TO_INDEX[labels.WORSE]
    out[p > 0.5 + th.t] = labels.LABEL_TO_INDEX[labels.BETTER]
    out[o > th.t_other] = labels.LABEL_TO_INDEX[labels.OTHER]
    return out


def confusion_matrix(true_idx, pred_idx, n_classes: int = 4) -> np.ndarray:
    """Counts with rows = true class, columns = predicted class."""
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (np.asarray(true_idx), np.asarray(pred_idx)), 1)
    return cm


def rk_correlation(cm) -> float:
    """K-category correlation coefficient from a confusion matrix.

    (c*s - sum_k t_k p_k) / sqrt((s^2 - sum p_k^2)(s^2 - sum t_k^2)) with
    s = total, c = trace, t = row sums, p = column sums. Returns 0 when a
    denominator factor vanishes (all predictions or all truths one class).
    """
    cm = np.asarray(cm, dtype=np.float64)
    s = cm.sum()
    if s == 0:
        raise ConfigError("empty confusion matrix")
    c = np.trace(cm)
    t = cm.sum(axis=1)
    p = cm.sum(axis=0)
    num = c * s - t @ p
    d1 = s * s - p @ p
    d2 = s * s - t @ t
    if d1 <= 0 or d2 <= 0:
        return 0.0
    return float(num / np.sqrt(d1 * d2))


def metric_suite(cm) -> dict:
    """Macro one-vs-rest metrics of a K x K confusion matrix.

    Per-class statistics with a zero denominator contribute 0 and are
    recorded in "zero_denominator_flags" so degenerate splits stay defined.
    Balanced accuracy equals macro recall.
    """
    cm = np.asarray(cm, dtype=np.float64)
    s = cm.sum()
    if s == 0:
        raise ConfigError("empty confusion matrix")
    k = cm.shape[0]
    flags = []
    precision = np.zeros(k)
    recall = np.zeros(k)
    specificity = np.zeros(k)
    f1 = np.zeros(k)
    for i in range(k):
        tp = cm[i, i]
        fn = cm[i].sum() - tp
        fp = cm[:, i].sum() - tp
        tn = s - tp - fn - fp
        for name, num, den, store in (
                ("precision", tp, tp + fp, precision),
                ("recall", tp, tp + fn, recall),
                ("specificity", tn, tn + fp, specificity),
                ("f1", 2 * tp, 2 * tp + fp + fn, f1)):
            if den == 0:
                flags.append(f"{name}[{i}]")
            else:
                store[i] = num / den
    out = {
        "f1": float(f1.mean()),
        "rk": rk_correlation(cm),
        "specificity": float(specificity.mean()),
        "bal_acc": float(recall.mean()),
        "precision": float(precision.mean()),
        "recall": float(recall.mean()),
        "zero_denominator_flags": flags,
    }
    return out


def calibrate_boundary(prob_progression, prob_other, label_list) -> DecisionThresholds:
    """Grid-search the symmetric band half-width maximizing macro F1 of the
    4-class decision on validation data; ties go to the smaller width. The
    ungradability threshold stays at 0.5."""
    if len(label_list) == 0:
        raise ConfigError("empty validation set")
    true_idx = np.array([labels.LABEL_TO_INDEX[l] for l in label_list])
    best_t = 0.0
    best_f1 = -1.0
    for t in CALIBRATION_GRID:
        th = DecisionThresholds(t=float(t))
        pred = classify_many(prob_progression, prob_other, th)
        score = metric_suite(confusion_matrix(true_idx, pred))["f1"]
        if score > best_f1:
            best_f1 = score
            best_t = float(t)
    return DecisionThresholds(t=best_t)
