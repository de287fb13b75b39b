"""Loss math: soft-target BCE, target encoding, masking, the slope penalty,
and gradient correctness of the full objective."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairstate import labels, objective
from pairstate.model import SiameseModel, gamma_of, other_prob, progression_prob
from pairstate.nn import EncoderConfig, sigmoid

LN2 = float(np.log(2.0))
# -0.5 * (ln 0.75 + ln 0.25), 40-digit evaluation
BCE_HALF_075 = 0.8369882167858357731368416244550902838273


def loss_of(pair_labels, delta, lam, alpha=0.0, z_other=(-30.0, -30.0)):
    """objective.loss_parts total over pairs with the given state-logit
    differences, slope exponents and ungradability logits (each a scalar
    or one value per pair)."""
    shape = (len(pair_labels),)
    delta, alpha, o1, o2 = (np.broadcast_to(np.asarray(v, dtype=np.float64), shape)
                            for v in (delta, alpha, *z_other))
    y_state, mask, y_other = objective.encode_targets(pair_labels)
    return objective.loss_parts(progression_prob(delta, gamma_of(alpha)), y_state,
                                mask, other_prob(o1, o2), y_other, alpha,
                                lam)["loss"]


# ---------------------------------------------------------------------------
# bce
# ---------------------------------------------------------------------------

def test_bce_perfect_prediction():
    assert objective.bce(1.0, 1.0) < 1e-11
    assert objective.bce(0.0, 0.0) < 1e-11


def test_bce_fair_coin_entropy():
    assert objective.bce(0.5, 0.5) == pytest.approx(LN2, abs=1e-15)


def test_bce_soft_target_high_precision():
    assert objective.bce(0.5, 0.75) == pytest.approx(BCE_HALF_075, abs=1e-12)


def test_bce_rejects_bad_targets():
    with pytest.raises(ValueError):
        objective.bce(1.5, 0.5)
    with pytest.raises(ValueError):
        objective.bce(-0.1, 0.5)


@settings(max_examples=80, deadline=None)
@given(y=st.floats(0, 1), p=st.floats(1e-9, 1 - 1e-9))
def test_bce_nonnegative_and_finite(y, p):
    val = objective.bce(y, p)
    assert np.isfinite(val)
    assert val >= 0.0


def test_encode_targets():
    y, mask, y_other = objective.encode_targets(
        [labels.WORSE, labels.STABLE, labels.BETTER, labels.OTHER])
    assert list(y[:3]) == [0.0, 0.5, 1.0]
    assert list(mask) == [True, True, True, False]
    assert list(y_other) == [0.0, 0.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        objective.encode_target("UNKNOWN")


# ---------------------------------------------------------------------------
# total loss of a batch (loss_parts)
# ---------------------------------------------------------------------------

def test_total_loss_perfect_predictions():
    lab = [labels.BETTER, labels.WORSE, labels.OTHER]
    loss = loss_of(lab, [50.0, -50.0, 0.0], lam=0.0,
                   z_other=([-30.0, -30.0, 50.0], -30.0))
    assert loss < 1e-9


def test_total_loss_single_stable_pair():
    assert loss_of([labels.STABLE], 0.0, lam=0.15) == pytest.approx(LN2, abs=1e-9)


def test_total_loss_alpha_penalty():
    # alpha = 2 (gamma = 4), otherwise perfect: loss = 0.15 * |2| = 0.30
    loss = loss_of([labels.BETTER], 200.0, lam=0.15, alpha=2.0)
    assert loss == pytest.approx(0.30, abs=1e-9)


def test_total_loss_other_pairs_skip_state_term():
    loss = loss_of([labels.OTHER], -200.0, lam=0.0, z_other=(50.0, -30.0))
    assert loss < 1e-9


def test_total_loss_empty_batch():
    empty = np.array([])
    with pytest.raises(ValueError, match="empty batch"):
        objective.loss_parts(empty, empty, empty.astype(bool), empty, empty,
                             empty, 0.1)


def test_total_loss_swap_invariance():
    # swapping the image order while mapping y -> 1 - y keeps the loss
    rng = np.random.default_rng(0)
    for _ in range(40):
        delta = rng.normal(0, 3)
        zo = tuple(rng.normal(0, 2, size=2))
        alpha = rng.normal(0, 0.5)
        for lab, mirrored in ((labels.BETTER, labels.WORSE),
                              (labels.STABLE, labels.STABLE)):
            a = loss_of([lab], delta, lam=0.3, alpha=alpha, z_other=zo)
            b = loss_of([mirrored], -delta, lam=0.3, alpha=alpha,
                        z_other=zo[::-1])
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_stable_disease_term_minimized_at_zero_delta():
    # 1-D scan over delta: minimum at 0 with value ln 2
    deltas = np.linspace(-5, 5, 10001)
    terms = objective.bce(0.5, sigmoid(deltas))
    i = int(np.argmin(terms))
    assert deltas[i] == 0.0
    assert terms[i] == pytest.approx(LN2, abs=1e-9)
    assert np.all(terms >= terms[i])


def test_shortcut_penalty_has_finite_minimizer():
    # wrong hard label at fixed delta: pushing alpha down flattens the BCE
    # toward ln 2 but pays lam * |alpha|; the 1-D scan has an interior min
    delta, lam = 2.0, 0.15
    alphas = np.linspace(-40, 5, 4501)
    losses = [objective.bce(1.0, progression_prob(delta, float(np.exp2(a))))
              + lam * abs(a) for a in alphas]
    i = int(np.argmin(losses))
    assert 0 < i < len(alphas) - 1
    assert losses[0] > losses[i]
    assert losses[-1] > losses[i]
    # far tail grows linearly with |alpha|
    assert losses[0] == pytest.approx(LN2 + lam * 40, rel=1e-3)


# ---------------------------------------------------------------------------
# gradients of the full objective
# ---------------------------------------------------------------------------

def full_loss(model, x1, x2, y, mask, y_other, alpha, lam):
    feat1 = model.features(x1)
    feat2 = model.features(x2)
    z1 = feat1 @ model.params["head_state.w"] + model.params["head_state.b"][0]
    z2 = feat2 @ model.params["head_state.w"] + model.params["head_state.b"][0]
    o1 = feat1 @ model.params["head_other.w"] + model.params["head_other.b"][0]
    o2 = feat2 @ model.params["head_other.w"] + model.params["head_other.b"][0]
    p_state = sigmoid(np.exp2(alpha) * (z1 - z2))
    p_other = other_prob(o1, o2)
    return objective.loss_parts(p_state, y, mask, p_other, y_other,
                                alpha, lam)["loss"]


def test_loss_and_grads_matches_total_loss_value():
    # reference: each image encoded on its own, then the pair arithmetic
    rng = np.random.default_rng(1)
    model = SiameseModel.init(
        EncoderConfig(in_height=16, in_width=16, conv_widths=(2,), feature_dim=4), rng)
    x1 = rng.random((4, 1, 16, 16))
    x2 = rng.random((4, 1, 16, 16))
    lab = [labels.BETTER, labels.STABLE, labels.WORSE, labels.OTHER]
    y, mask, y_other = objective.encode_targets(lab)
    alpha = rng.normal(0, 0.4, 4)
    parts, _ = model.loss_and_grads(x1, x2, y, mask, y_other, alpha, 0.15)
    z1, o1 = np.array([model.encode(img[0]) for img in x1]).T
    z2, o2 = np.array([model.encode(img[0]) for img in x2]).T
    ref = objective.loss_parts(progression_prob(z1 - z2, gamma_of(alpha)), y, mask,
                               other_prob(o1, o2), y_other, alpha, 0.15)
    for key in ("loss", "bce_state", "bce_other", "reg"):
        assert parts[key] == pytest.approx(ref[key], rel=1e-12)


def test_objective_gradients_match_finite_differences():
    from helpers import central_diff_error
    rng = np.random.default_rng(2)
    model = SiameseModel.init(
        EncoderConfig(in_height=16, in_width=16, conv_widths=(2, 3), feature_dim=5),
        rng)
    x1 = rng.random((4, 1, 16, 16))
    x2 = rng.random((4, 1, 16, 16))
    y, mask, y_other = objective.encode_targets(
        [labels.BETTER, labels.STABLE, labels.WORSE, labels.OTHER])
    alpha = rng.normal(0, 0.4, 4)
    lam = 0.15
    _, grads = model.loss_and_grads(x1, x2, y, mask, y_other, alpha, lam)

    def closure():
        return full_loss(model, x1, x2, y, mask, y_other, alpha, lam)

    worst = 0.0
    for name, p in model.params.items():
        gflat = grads[name].reshape(-1)
        for i in rng.choice(p.size, size=min(10, p.size), replace=False):
            worst = max(worst, central_diff_error(closure, p, i, gflat[i]))
    for i in range(4):
        worst = max(worst, central_diff_error(closure, alpha, i,
                                              grads["alpha_batch"][i]))
    assert worst < 1e-4
