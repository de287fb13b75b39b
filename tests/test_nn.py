"""Encoder kernels against their loop and window-reduction references:
equal bit for bit, ties included. Training steps on reused workspace
buffers against steps on fresh arrays."""

import tracemalloc

import numpy as np
import pytest

from pairstate import labels, nn, objective
from pairstate.model import NaiveModel, SiameseModel

from helpers import loop_im2col, window_maxpool2_backward, window_maxpool2_forward


@pytest.mark.parametrize("c", [1, 8, 16, 32])
@pytest.mark.parametrize("h, w", [(32, 64), (8, 16), (2, 2)])
def test_im2col_matches_loop(c, h, w):
    xp = np.random.default_rng(c).normal(size=(3, h + 2, w + 2, c))
    cols = nn._im2col(xp, h, w)
    assert cols.shape == (3 * h * w, 9 * c)
    assert cols.flags.c_contiguous
    assert np.array_equal(cols, loop_im2col(xp, h, w))


def test_im2col_columns_follow_kernel_matrix():
    # the GEMM with _kernel_matrix is the textbook 3x3 cross-correlation
    gen = np.random.default_rng(1)
    x = gen.normal(size=(2, 6, 8, 3))
    weight = gen.normal(size=(4, 3, 3, 3))
    out, _ = nn.conv3x3_forward(x, weight, np.zeros(4))
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    ref = np.zeros((2, 6, 8, 4))
    for dy in range(3):
        for dx in range(3):
            ref += xp[:, dy:dy + 6, dx:dx + 8, :] @ weight[:, :, dy, dx].T
    assert np.allclose(out, ref, rtol=0, atol=1e-12)


def _pool_inputs(c):
    """ReLU-like activations: exact zeros from dead units, whole windows
    equal to one value (a dead-ReLU patch sits at the conv bias), and
    coarse values that tie inside a window."""
    gen = np.random.default_rng(c)
    x = np.maximum(gen.normal(size=(4, 8, 16, c)).round(1), 0.0)
    x[0, :4, :6] = 0.01                    # all-equal windows
    x[1] = 0.0                             # a whole dead image
    x[2, ::2] = x[2, 1::2]                 # ties across window rows
    x[3, :, ::2] = x[3, :, 1::2]           # ties across window columns
    return x


@pytest.mark.parametrize("c", [1, 8, 16, 32])
def test_maxpool_matches_window_reduction(c):
    x = _pool_inputs(c)
    out, cache = nn.maxpool2_forward(x)
    assert np.array_equal(out, window_maxpool2_forward(x))
    dout = np.random.default_rng(c + 100).normal(size=out.shape)
    dx = nn.maxpool2_backward(dout, cache)
    ref = window_maxpool2_backward(dout, x)
    assert np.array_equal(dx, ref)
    assert np.array_equal(np.signbit(dx), np.signbit(ref))


def test_maxpool_backward_splits_ties_evenly():
    x = np.full((1, 2, 2, 1), 0.01)
    x[0, 1, 1, 0] = 0.0
    out, cache = nn.maxpool2_forward(x)
    dx = nn.maxpool2_backward(np.full(out.shape, 3.0), cache)
    assert dx[0, :, :, 0].tolist() == [[1.0, 1.0], [1.0, 0.0]]
    # read-only broadcast gradients, as the encoder's global pool passes
    dx = nn.maxpool2_backward(np.broadcast_to(6.0, out.shape), cache)
    assert dx.sum() == 6.0


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------

SMALL = nn.EncoderConfig(in_height=16, in_width=32, conv_widths=(4, 8, 16),
                         feature_dim=8)


def _model(kind, config=SMALL):
    cls = SiameseModel if kind == "siamese" else NaiveModel
    return cls.init(config, np.random.default_rng(0))


def _step(model, x1, x2, seed, **kw):
    n = len(x1)
    gen = np.random.default_rng(seed)
    if model.kind == "naive":
        return model.loss_and_grads(x1, x2, gen.integers(0, 4, n), **kw)
    y_state, mask, y_other = objective.encode_targets(
        gen.choice(labels.LABELS, size=n).tolist())
    return model.loss_and_grads(x1, x2, y_state, mask, y_other,
                                gen.normal(0, 0.5, n), 0.15, **kw)


@pytest.mark.parametrize("kind", ["siamese", "naive"])
def test_workspace_reuse_matches_fresh_arrays(kind):
    # full batches, the 8-pair tail, then full batches again: every step's
    # loss parts and gradients equal a step on fresh arrays, bit for bit
    model = _model(kind)
    ws = nn.Workspace()
    gen = np.random.default_rng(1)
    for seed, n in enumerate([32, 32, 8, 32]):
        x1, x2 = gen.random((2, n, 1, 16, 32))
        parts, grads = _step(model, x1, x2, seed, ws=ws)
        ref_parts, ref_grads = _step(model, x1, x2, seed)
        assert parts == ref_parts
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert np.array_equal(g, ref_grads[name]), (n, name)
            assert np.array_equal(np.signbit(g), np.signbit(ref_grads[name]))
    assert ws.generation == 4


@pytest.mark.parametrize("kind", ["siamese", "naive"])
def test_backward_on_stale_cache_raises(kind):
    encoder = _model(kind).encoder
    gen = np.random.default_rng(2)
    ws = nn.Workspace()
    grads = {k: np.zeros_like(v) for k, v in encoder.params.items()}
    feat, first = encoder.forward(gen.random((4, 1, 16, 32)), ws=ws)
    encoder.forward(gen.random((4, 1, 16, 32)), ws=ws)
    with pytest.raises(RuntimeError, match="stale backward cache"):
        encoder.backward(np.ones_like(feat), first, grads)


@pytest.mark.parametrize("kind", ["siamese", "naive"])
def test_forward_without_workspace_keeps_no_cache(kind):
    encoder = _model(kind).encoder
    x = np.random.default_rng(3).random((4, 1, 16, 32))
    feat, cache = encoder.forward(x)
    assert cache is None
    grads = {k: np.zeros_like(v) for k, v in encoder.params.items()}
    with pytest.raises(ValueError, match="no backward cache"):
        encoder.backward(np.ones_like(feat), cache, grads)
    # the cache-free pass computes the same features
    assert np.array_equal(feat, encoder.forward(x, ws=nn.Workspace())[0])


def test_workspace_replaces_resized_arrays_and_keeps_borders_zero():
    ws = nn.Workspace()
    a = ws.array("cols", (4, 9))
    assert ws.array("cols", (4, 9)) is a
    assert ws.array("cols", (2, 9)) is not a
    assert ws.array("mask", (4, 9), bool).dtype == bool
    gen = np.random.default_rng(4)
    for n in (3, 3, 2):
        x = gen.normal(size=(n, 5, 6, 2))
        xp = nn._padded(x, ws, "xp")
        assert np.array_equal(xp, np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0))))


def test_training_step_allocation_budget():
    # with reused buffers a step allocates little beyond its small
    # parameter-sized arrays; on fresh arrays it is about 35 MB
    model = _model("siamese", nn.EncoderConfig())
    x1, x2 = np.random.default_rng(5).random((2, 32, 1, 32, 64))
    ws = nn.Workspace()
    for seed in range(2):
        _step(model, x1, x2, seed, ws=ws)
    tracemalloc.start()
    try:
        _step(model, x1, x2, 2, ws=ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"third step peaked at {peak / 1e6:.1f} MB"


def test_inference_forward_allocation_budget():
    # a cache-free pass frees each block's patches, conv output, ReLU mask
    # and pool input before the next block allocates its own: about 32 MB
    # for 64 images at 32x64, against 63 MB when every block's are kept
    encoder = nn.ConvEncoder.init(nn.EncoderConfig(), np.random.default_rng(6))
    x = np.random.default_rng(7).random((64, 1, 32, 64))
    encoder.forward(x)
    tracemalloc.start()
    try:
        encoder.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, f"forward peaked at {peak / 1e6:.1f} MB"
