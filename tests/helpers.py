"""Shared independent oracles and a kink-robust finite-difference check."""

import math

import numpy as np
import scipy.stats


def binary_mcc(cm):
    """Textbook two-class Matthews correlation from a 2x2 confusion matrix,
    rows true, columns predicted, class 0 treated as positive."""
    tp, fn = cm[0, 0], cm[0, 1]
    fp, tn = cm[1, 0], cm[1, 1]
    den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    if den == 0:
        return 0.0
    return (tp * tn - fp * fn) / den


def brute_force_suite(cm):
    """One-vs-rest macro metrics by explicit counting loops."""
    k = cm.shape[0]
    per = {"precision": [], "recall": [], "specificity": [], "f1": []}
    for c in range(k):
        tp = fp = fn = tn = 0
        for i in range(k):
            for j in range(k):
                n = cm[i, j]
                if i == c and j == c:
                    tp += n
                elif i == c:
                    fn += n
                elif j == c:
                    fp += n
                else:
                    tn += n
        per["precision"].append(tp / (tp + fp) if tp + fp else 0.0)
        per["recall"].append(tp / (tp + fn) if tp + fn else 0.0)
        per["specificity"].append(tn / (tn + fp) if tn + fp else 0.0)
        per["f1"].append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
    return {name: sum(vals) / k for name, vals in per.items()}


def central_diff_error(closure, array, index, analytic, steps=(1e-5, 1e-7)):
    """Relative error of an analytic gradient entry against central finite
    differences.

    The check is repeated at a smaller step when the first disagrees:
    crossing a ReLU/maxpool kink inflates the difference at one specific
    step size, while a genuinely wrong gradient fails at every step.
    Returns the smallest relative error observed.
    """
    flat = array.reshape(-1)
    best = np.inf
    for h in steps:
        orig = flat[index]
        flat[index] = orig + h
        up = closure()
        flat[index] = orig - h
        down = closure()
        flat[index] = orig
        fd = (up - down) / (2 * h)
        err = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-10)
        best = min(best, err)
        if best < 1e-6:
            break
    return best


def scalar_permutation_p(z_state, severity, rng, n_permutations):
    """Permutation p-value of the Spearman correlation, one scipy call per
    cumulative rng.shuffle of the severities: the reference for the
    vectorised test in evaluate.severity_recovery."""
    rho = float(scipy.stats.spearmanr(z_state, severity).statistic)
    count = 0
    shuffled = np.array(severity, dtype=np.float64)
    for _ in range(n_permutations):
        rng.shuffle(shuffled)
        r = abs(float(scipy.stats.spearmanr(z_state, shuffled).statistic))
        if r >= abs(rho):
            count += 1
    return rho, (count + 1) / (n_permutations + 1)
