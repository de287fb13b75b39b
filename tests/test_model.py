"""Pair-model mechanics: logit arithmetic, OR merge, slope mapping,
antisymmetry, gradient correctness of the encoder, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairstate.errors import DataError
from pairstate.model import (AlphaTable, NaiveModel, SiameseModel, gamma_of,
                             load_checkpoint, other_prob, pair_delta,
                             progression_prob, save_checkpoint)
from pairstate.nn import ConvEncoder, EncoderConfig, Workspace, sigmoid

TINY = EncoderConfig(in_height=16, in_width=16, conv_widths=(2, 3), feature_dim=6)


def tiny_model(seed=0):
    return SiameseModel.init(TINY, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# pair arithmetic
# ---------------------------------------------------------------------------

def test_pair_delta_cases():
    assert pair_delta(3.0, 3.0) == 0.0
    assert pair_delta(1.0, -1.0) == 2.0


@settings(max_examples=100, deadline=None)
@given(a=st.floats(-50, 50), b=st.floats(-50, 50))
def test_pair_delta_antisymmetric_exactly(a, b):
    assert pair_delta(a, b) == -pair_delta(b, a)


def test_progression_prob_values():
    assert progression_prob(0.0, 1.0) == 0.5
    assert progression_prob(0.0, 7.3) == 0.5
    assert abs(progression_prob(np.log(3.0), 1.0) - 0.75) < 1e-15
    assert abs(progression_prob(np.log(3.0), 2.0) - 0.9) < 1e-15


def test_progression_prob_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        progression_prob(1.0, 0.0)
    with pytest.raises(ValueError):
        progression_prob(1.0, -2.0)


def test_progression_prob_no_overflow():
    # |gamma * delta| up to 700 stays finite, saturating smoothly
    with np.errstate(over="raise"):
        hi = progression_prob(700.0, 1.0)
        lo = progression_prob(-700.0, 1.0)
        assert hi == 1.0
        assert 0.0 < lo < 1e-300
        assert progression_prob(7.0, 100.0) == 1.0


def test_progression_prob_gamma_one_equals_plain_sigmoid():
    deltas = np.linspace(-30, 30, 101)
    assert np.array_equal(progression_prob(deltas, 1.0), sigmoid(deltas))


def test_progression_prob_monotonicity_and_steepening():
    deltas = np.linspace(-5, 5, 201)
    p1 = progression_prob(deltas, 1.0)
    assert np.all(np.diff(p1) > 0)
    p2 = progression_prob(deltas, 2.0)
    assert np.all(np.abs(p2 - 0.5) >= np.abs(p1 - 0.5) - 1e-15)


def test_other_prob_values():
    assert other_prob(0.0, 0.0) == 0.75
    z1 = np.log(0.2 / 0.8)
    z2 = np.log(0.3 / 0.7)
    assert abs(other_prob(z1, z2) - 0.44) < 1e-12
    assert other_prob(50.0, -50.0) > 1 - 1e-12


def test_other_prob_symmetric_and_dominant():
    rng = np.random.default_rng(0)
    z1 = rng.normal(0, 3, 500)
    z2 = rng.normal(0, 3, 500)
    assert np.array_equal(other_prob(z1, z2), other_prob(z2, z1))
    assert np.all(other_prob(z1, z2) >= np.maximum(sigmoid(z1), sigmoid(z2)))


def test_gamma_of_values():
    assert gamma_of(0.0) == 1.0
    assert gamma_of(1.0) == 2.0
    assert gamma_of(-1.0) == 0.5
    alphas = np.linspace(-3, 3, 25)
    assert np.all(np.diff(gamma_of(alphas)) > 0)
    assert np.all(gamma_of(alphas) > 0)


def test_alpha_table_default_zero():
    table = AlphaTable.zeros(4)
    assert table.gamma(2) == 1.0
    assert table.alpha(None) == 0.0
    assert table.gamma(99) == 1.0      # out of range -> default slope
    table.values[1] = 1.0
    assert table.gamma(1) == 2.0


# ---------------------------------------------------------------------------
# encoder and forward pass
# ---------------------------------------------------------------------------

def test_zero_image_zero_heads_gives_bias():
    model = tiny_model()
    for name in ("head_state.w", "head_other.w"):
        model.params[name][:] = 0.0
    model.params["head_state.b"][0] = 0.7
    model.params["head_other.b"][0] = -0.3
    z_state, z_other = model.encode(np.zeros((16, 16)))
    assert z_state == pytest.approx(0.7)
    assert z_other == pytest.approx(-0.3)


def test_encode_deterministic():
    model = tiny_model()
    img = np.random.default_rng(1).random((16, 16))
    assert model.encode(img) == model.encode(img)


def test_encode_rejects_wrong_size():
    model = tiny_model()
    with pytest.raises(ValueError, match="expected images"):
        model.encode(np.zeros((8, 8)))


def test_encoder_gradient_matches_finite_differences():
    # central differences, step 1e-3, on the state logit of one image
    config = EncoderConfig(in_height=16, in_width=16, conv_widths=(2,),
                           feature_dim=4)
    rng = np.random.default_rng(3)
    model = SiameseModel.init(config, rng)
    img = rng.random((1, 1, 16, 16))

    def z_state():
        feat, _ = model.encoder.forward(img)
        return float((feat @ model.params["head_state.w"])[0]
                     + model.params["head_state.b"][0])

    feat, cache = model.encoder.forward(img, ws=Workspace())
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    model.encoder.backward(model.params["head_state.w"][None, :], cache, grads)

    h = 1e-3
    worst = 0.0
    for name in model.encoder.params:
        flat = model.params[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in rng.choice(flat.size, size=min(8, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up = z_state()
            flat[i] = orig - h
            down = z_state()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            if abs(fd) < 1e-12 and abs(gflat[i]) < 1e-12:
                continue
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i])))
    assert worst < 1e-4


def test_pair_head_antisymmetry_and_symmetry():
    model = tiny_model(5)
    rows = model.embed(np.random.default_rng(6).random((2, 1, 16, 16)))
    a, b = rows[:1], rows[1:]
    ab = model.pair_head(a, b)
    ba = model.pair_head(b, a)
    assert ab["delta"][0] == -ba["delta"][0]
    assert abs(ab["prob_progression"][0] + ba["prob_progression"][0] - 1.0) < 1e-12
    assert ab["prob_other"][0] == ba["prob_other"][0]
    aa = model.pair_head(a, a)
    assert aa["prob_progression"][0] == 0.5
    assert aa["delta"][0] == 0.0


def test_pair_head_uses_alpha_table_slope():
    model = tiny_model(7)
    table = AlphaTable(np.array([0.0, 1.0]))
    rows = model.embed(np.random.default_rng(8).random((2, 1, 16, 16)))
    a, b = rows[:1], rows[1:]
    plain = model.pair_head(a, b)
    steep = model.pair_head(a, b, gamma=table.gamma(1))
    assert table.gamma(1) == 2.0
    assert steep["delta"][0] == plain["delta"][0]
    assert plain["prob_progression"][0] == progression_prob(plain["delta"][0], 1.0)
    assert steep["prob_progression"][0] == progression_prob(plain["delta"][0], 2.0)
    assert table.gamma(None) == 1.0
    no_id = model.pair_head(a, b, gamma=table.gamma(None))
    assert no_id["prob_progression"][0] == plain["prob_progression"][0]


def test_predict_pairs_matches_single_image_encode():
    model = tiny_model(9)
    rng = np.random.default_rng(10)
    x1 = rng.random((3, 1, 16, 16))
    x2 = rng.random((3, 1, 16, 16))
    batch = model.predict_pairs(x1, x2)
    for i in range(3):
        z1, o1 = model.encode(x1[i, 0])
        z2, o2 = model.encode(x2[i, 0])
        assert batch["delta"][i] == pytest.approx(z1 - z2, abs=1e-12)
        assert batch["prob_other"][i] == pytest.approx(other_prob(o1, o2), abs=1e-12)


def test_param_count_reported():
    model = tiny_model()
    total = sum(p.size for p in model.params.values())
    assert model.param_count() == total
    default = SiameseModel.init(EncoderConfig(), np.random.default_rng(0))
    assert default.param_count() == 8130


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = tiny_model(11)
    table = AlphaTable(np.random.default_rng(12).normal(size=20))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, model, alpha_table=table,
                    meta={"best_epoch": 3, "best_val_loss": 0.25})
    loaded, alpha, meta = load_checkpoint(path)
    assert meta["best_epoch"] == 3
    assert meta["kind"] == "siamese"
    assert loaded.config == model.config
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name], p)
    assert np.array_equal(alpha.values, table.values)
    img = np.random.default_rng(13).random((16, 16))
    assert loaded.encode(img) == model.encode(img)


def test_naive_checkpoint_distinguishable(tmp_path):
    naive = NaiveModel.init(TINY, np.random.default_rng(0))
    path = tmp_path / "naive.npz"
    save_checkpoint(path, naive)
    loaded, alpha, meta = load_checkpoint(path)
    assert meta["kind"] == "naive"
    assert alpha is None
    assert loaded.kind == "naive"
    probs = loaded.predict_pairs(np.zeros((2, 1, 16, 16)),
                                 np.zeros((2, 1, 16, 16)))["probs"]
    assert probs.shape == (2, 4)
    assert np.allclose(probs.sum(axis=1), 1.0)


def _rejected(path, match):
    with pytest.raises(DataError, match=match):
        load_checkpoint(path)


def test_checkpoint_unsupported_version_rejected(tmp_path):
    path = tmp_path / "ck.npz"
    save_checkpoint(path, tiny_model(), meta={"format_version": 2})
    _rejected(path, "unsupported checkpoint version 2")


@pytest.mark.parametrize("kind", ["siamese", "naive"])
def test_checkpoint_missing_or_unexpected_params_rejected(tmp_path, kind):
    model = (SiameseModel if kind == "siamese" else NaiveModel).init(
        TINY, np.random.default_rng(0))
    head_b = next(k for k in model.params if k.startswith("head") and k.endswith(".b"))
    del model.params[head_b]
    save_checkpoint(tmp_path / "missing.npz", model)
    _rejected(tmp_path / "missing.npz", rf"missing \['{head_b}'\], unexpected \[\]")
    model.params[head_b] = np.zeros(1)
    model.params["conv9.w"] = np.zeros((2, 2, 3, 3))
    save_checkpoint(tmp_path / "extra.npz", model)
    _rejected(tmp_path / "extra.npz", r"missing \[\], unexpected \['conv9.w'\]")


def test_checkpoint_shapes_checked_against_encoder_config(tmp_path):
    # the stored config says 4 feature units; the parameters were made for 6
    other = EncoderConfig(in_height=16, in_width=16, conv_widths=(2, 3), feature_dim=4)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, tiny_model(), meta={"encoder": other.to_dict()})
    _rejected(path, r"feat.w \(6, 3\) \(config wants \(4, 3\)\)")
    # a wider first conv block changes the shapes of conv0 and conv1
    other = EncoderConfig(in_height=16, in_width=16, conv_widths=(5, 3), feature_dim=6)
    save_checkpoint(path, tiny_model(), meta={"encoder": other.to_dict()})
    _rejected(path, r"conv0.w \(2, 1, 3, 3\) \(config wants \(5, 1, 3, 3\)\)")


def test_param_shapes_match_init():
    for cls in (SiameseModel, NaiveModel):
        model = cls.init(TINY, np.random.default_rng(0))
        shapes = {**ConvEncoder.param_shapes(TINY), **cls.head_shapes(TINY)}
        assert {k: v.shape for k, v in model.params.items()} == shapes


def test_encoder_shared_params_alias():
    model = tiny_model()
    model.params["conv0.w"] += 1.0
    assert np.array_equal(model.params["conv0.w"], model.encoder.params["conv0.w"])
