"""Training objective: soft-target BCE on progression, BCE on the OR-merged
ungradability task, and an L1 penalty that pins the per-pair slope exponents
near zero.

OTHER pairs carry no progression target, so they are masked out of the
progression term; every pair contributes to the ungradability term. All
three terms are averaged over the batch.
"""

from __future__ import annotations

import numpy as np

from . import labels

PROB_EPS = 1e-12


def clamp_prob(p):
    """Pull probabilities 1e-12 away from 0 and 1 for log safety."""
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def bce(y, p):
    """Binary cross-entropy -[y ln p + (1-y) ln(1-p)] with soft targets.

    y may be fractional in [0, 1]; p is clamped away from the boundaries.
    Elementwise over arrays; returns a scalar for scalar inputs.
    """
    y = np.asarray(y, dtype=np.float64)
    if np.any(y < 0) or np.any(y > 1):
        raise ValueError(f"targets must lie in [0, 1], got {y}")
    p = clamp_prob(np.asarray(p, dtype=np.float64))
    out = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    return out if out.ndim else float(out)


def encode_target(label: str) -> tuple[float, bool, float]:
    """Map a 4-class pair label to (y_state, state_present, y_other)."""
    if label == labels.OTHER:
        return 0.0, False, 1.0
    if label not in labels.PROGRESSION_TARGET:
        raise ValueError(f"unknown label {label!r}")
    return labels.PROGRESSION_TARGET[label], True, 0.0


def encode_targets(label_list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized encode_target: (y_state, state_mask, y_other) arrays."""
    encoded = [encode_target(lbl) for lbl in label_list]
    y_state = np.array([e[0] for e in encoded])
    mask = np.array([e[1] for e in encoded])
    y_other = np.array([e[2] for e in encoded])
    return y_state, mask, y_other


def loss_parts(p_state, y_state, state_mask, p_other, y_other, alpha, lam):
    """Batch-mean loss terms from prediction and target arrays.

    Returns {"loss", "bce_state", "bce_other", "reg"}; "loss" is their sum.
    The masked progression term and the slope penalty are averaged over the
    full batch, like the ungradability term.
    """
    n = len(p_other)
    if n == 0:
        raise ValueError("empty batch")
    state_terms = np.where(state_mask, bce(np.where(state_mask, y_state, 0.0),
                                           p_state), 0.0)
    bce_state = float(state_terms.sum() / n)
    bce_other = float(bce(y_other, p_other).mean())
    reg = float(lam * np.abs(alpha).sum() / n)
    return {"loss": bce_state + bce_other + reg,
            "bce_state": bce_state, "bce_other": bce_other, "reg": reg}

