"""Encoder kernels against their loop and window-reduction references:
equal bit for bit, ties included. Training steps on reused workspace
buffers against steps on fresh arrays."""

import copy
import sys
import tracemalloc

import numpy as np
import pytest

from pairstate import labels, nn, objective
from pairstate.model import NaiveModel, SiameseModel

from helpers import (loop_im2col, whole_batch_conv_input_grad,
                     window_maxpool2_backward, window_maxpool2_forward)


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


def _same_bits(got, ref):
    return (got.shape == ref.shape and np.array_equal(got, ref)
            and np.array_equal(np.signbit(got), np.signbit(ref)))


@pytest.mark.parametrize("cout", range(1, 33))
def test_kmajor_patches_match_row_major_products(cout):
    # conv3x3_forward takes K-major patches for a one-channel input only
    # when its product runs in BLAS's blocked kernel: two or more output
    # channels and more than BLAS_SMALL_PRODUCT multiply-adds. There the
    # forward product, the bias-added output and the weight-gradient
    # product equal those of row-major patches bit for bit, sign bit
    # included, for tiles at several offsets in a larger batch and row
    # counts either side of the bound. Signed-zero image regions and
    # rounded values make zero and tied products.
    h, w = 8, 16
    # the most images whose product is at most the bound
    edge = nn.BLAS_SMALL_PRODUCT // (h * w * 9 * cout)
    gen = np.random.default_rng(cout)
    total = edge + 9
    x = gen.normal(size=(total, h, w, 1)).round(1)
    x[::4, : h // 2] = -0.0
    x[1::4] = 0.0
    weight = gen.normal(size=(cout, 1, 3, 3))
    weight[0] = abs(weight[0])
    bias = gen.normal(size=cout)
    kernel = nn._kernel_matrix(weight)
    row_major = nn._im2col(np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0))), h, w)
    whole = row_major @ kernel
    checked = 0
    for n in sorted({1, edge, edge + 1, total}):
        for start in sorted({0, 3, total - n}):
            if start + n > total:
                continue
            out, cols = nn.conv3x3_forward(x[start:start + n], weight, bias)
            kmajor = cout >= 2 and n * h * w * 9 * cout > nn.BLAS_SMALL_PRODUCT
            assert cols.flags.c_contiguous != kmajor
            assert cols.T.flags.c_contiguous == kmajor
            rows = slice(start * h * w, (start + n) * h * w)
            assert np.array_equal(cols, row_major[rows])
            if not kmajor:
                continue
            ref = row_major[rows] @ kernel
            assert _same_bits(cols @ kernel, ref)
            assert _same_bits(cols @ kernel, whole[rows])
            assert _same_bits(out.reshape(-1, cout), ref + bias)
            dflat = gen.normal(size=(n * h * w, cout)).round(1)
            dflat[::5] = -0.0
            assert _same_bits(cols.T @ dflat, row_major[rows].T @ dflat)
            checked += 1
    assert checked == (0 if cout == 1 else 4)


def test_default_encoder_block0_takes_kmajor_patches(monkeypatch):
    # the default config's block 0 (one channel in, 8 out) takes K-major
    # patches in an inference tile and in a training batch; the blocks
    # above take row-major ones
    layouts = []
    real_conv = nn.conv3x3_forward

    def conv(*args, **kw):
        out, cols = real_conv(*args, **kw)
        layouts.append("K" if cols.T.flags.c_contiguous else "R")
        return out, cols

    monkeypatch.setattr(nn, "conv3x3_forward", conv)
    encoder = nn.ConvEncoder.init(nn.EncoderConfig(),
                                  np.random.default_rng(12))
    x = np.random.default_rng(13).random((64, 1, 32, 64))
    encoder.forward(x[:nn.INFERENCE_TILE])
    encoder.forward(x, ws=nn.Workspace())
    assert layouts == ["K", "R", "R"] * 2


@pytest.mark.parametrize("k", [9, 36, 72, 108, 144, 288])
def test_blas_rows_independent_of_row_count_offset_and_layout(k):
    # the assumption the tiles (_tile_images) and the K-major patches rest
    # on: above BLAS_SMALL_PRODUCT multiply-adds, a conv-shaped product
    # (K = 9 x input channels) with two or more columns rounds each row the
    # same for any row count, at any offset, and with either operand
    # stored transposed. Under a BLAS that breaks it, this test fails
    # instead of the encoder's bits changing silently.
    gen = np.random.default_rng(k)
    for cols in (2, 3, 4, 8, 12, 16, 32, 64):
        least = nn.BLAS_SMALL_PRODUCT // (k * cols) + 1
        a = gen.normal(size=(3 * least + 5, k))
        b = gen.normal(size=(k, cols))
        whole = a @ b
        for rows in (least, least + 1, 2 * least + 3):
            for start in sorted({0, 1, 7, len(a) - rows}):
                part = a[start:start + rows]
                ref = whole[start:start + rows]
                for lhs in (part, np.asfortranarray(part)):
                    for rhs in (b, np.asfortranarray(b)):
                        assert np.array_equal(lhs @ rhs, ref), \
                            (cols, rows, start)


@pytest.mark.parametrize("cout", range(1, 33))
def test_bias_gradient_equals_row_sum(cout):
    # conv3x3_backward sums the bias gradient with einsum for two or more
    # columns, which adds rows in order as sum(axis=0) does there, and
    # with sum for one column, whose sum(axis=0) adds pairwise; both equal
    # dflat.sum(axis=0) bit for bit for odd row counts, tied values and
    # an all-negative-zero column
    gen = np.random.default_rng(cout)
    weight = gen.normal(size=(cout, 2, 3, 3))
    for n, h, w in ((1, 1, 1), (1, 1, 7), (1, 1, 17), (1, 15, 17), (3, 31, 43),
                    (2, 64, 64)):
        dout = gen.normal(size=(n, h, w, cout)).round(1)
        dout[..., -1] = -0.0
        cols = gen.normal(size=(n * h * w, 18))
        _, _, dbias = nn.conv3x3_backward(dout, cols, weight, need_dx=False)
        assert _same_bits(dbias, dout.reshape(-1, cout).sum(axis=0)), (n, h, w)


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


def _record(monkeypatch, names):
    """Wrap nn functions so every call's arguments and result are copied
    into calls[name] (workspace buffers are overwritten later)."""
    calls = {name: [] for name in names}
    for name in names:
        def wrapper(*args, _fn=getattr(nn, name), _name=name, **kw):
            out = _fn(*args, **kw)
            calls[_name].append(copy.deepcopy((args, out)))
            return out
        monkeypatch.setattr(nn, name, wrapper)
    return calls


def test_encoder_block_pools_before_relu(monkeypatch):
    # each block runs conv3x3 -> maxpool -> ReLU, the ReLU on the pooled
    # quarter, and equals ReLU -> maxpool built from the window references,
    # in value and sign bit, forward and backward. Coarse inputs and
    # weights make exact sums, so windows hold ties. A zero-weight channel
    # and dead image regions make windows all equal to the bias, above or
    # below zero, and a negative-weight channel makes negative windows.
    config = nn.EncoderConfig(in_height=8, in_width=16, conv_widths=(4, 4),
                              feature_dim=3)
    gen = np.random.default_rng(8)
    encoder = nn.ConvEncoder.init(config, gen)
    for i in range(2):
        w = encoder.params[f"conv{i}.w"]
        w[...] = (w * 4).round() / 4
        w[0] = 0.0
        w[2] = -abs(w[2])
        encoder.params[f"conv{i}.b"][...] = [-0.5, 0.25, -0.25, 0.0]
    x = (gen.random((6, 1, 8, 16)) * 4).round() / 4
    x[0] = 0.0
    x[1, :, :4] = 0.0
    calls = _record(monkeypatch, ["maxpool2_forward", "relu_forward",
                                  "relu_backward", "maxpool2_backward"])
    feat, cache = encoder.forward(x, ws=nn.Workspace())
    grads = {k: np.zeros_like(v) for k, v in encoder.params.items()}
    encoder.backward(gen.normal(size=feat.shape), cache, grads)

    for i in range(2):
        (z,), (pooled, _) = calls["maxpool2_forward"][i]
        (relu_in,), (h, _) = calls["relu_forward"][i]
        assert np.array_equal(relu_in, pooled)
        a = np.maximum(z, 0.0)
        ref = window_maxpool2_forward(a)
        assert h.shape == ref.shape
        assert np.array_equal(h, ref)
        assert np.array_equal(np.signbit(h), np.signbit(ref))
        # backward runs the blocks last to first, after the feature ReLU
        (dh, _), _ = calls["relu_backward"][2 - i]
        _, dz = calls["maxpool2_backward"][1 - i]
        ref = window_maxpool2_backward(dh, a) * (z > 0)
        assert np.array_equal(dz, ref)
        assert np.array_equal(np.signbit(dz), np.signbit(ref))

        windows = z.reshape(6, z.shape[1] // 2, 2, z.shape[2] // 2, 2, 4)
        top = windows.max(axis=(2, 4))
        ties = (windows == top[:, :, None, :, None]).sum(axis=(2, 4))
        assert ((top < 0) & (ties == 1)).any()        # entirely negative
        assert ((top < 0) & (ties == 4)).any()        # all equal below zero
        assert ((top > 0) & (ties > 1)).any()         # tied above zero


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------

SMALL = nn.EncoderConfig(in_height=16, in_width=32, conv_widths=(4, 8, 16),
                         feature_dim=8)
# Under OpenBLAS, 16-image tiles of this config round rows of the 12-column
# products differently from a whole batch of 64; a width of 1 makes
# matrix-vector products
ODD = nn.EncoderConfig(in_height=16, in_width=32, conv_widths=(4, 12, 16),
                       feature_dim=8)
WIDTH1 = nn.EncoderConfig(in_height=16, in_width=32, conv_widths=(4, 1, 8),
                          feature_dim=8)
TILED_CONFIGS = pytest.mark.parametrize(
    "config", [SMALL, nn.EncoderConfig(), ODD, WIDTH1],
    ids=["small", "default", "odd", "width1"])


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
    # loss parts and gradients equal a step on fresh arrays, bit for bit.
    # The tail writes prefix views of the arenas the full batches sized.
    model = _model(kind)
    ws = nn.Workspace()
    gen = np.random.default_rng(1)
    for seed, n in enumerate([32, 32, 8, 32]):
        x1, x2 = gen.random((2, n, 1, 16, 32))
        arenas = {role: ws._arrays.get(role) for role in nn.SHARED_ROLES}
        parts, grads = _step(model, x1, x2, seed, ws=ws)
        if n == 8:
            for role, arena in arenas.items():
                assert ws._arrays[role] is arena, role
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


def test_training_workspace_size_budget():
    # the backward roles share one arena each across blocks, the ReLU runs
    # on pooled maps, and the input gradient's padded copy and patch matrix
    # are INFERENCE_TILE images: about 93 MiB for a 32-pair step at 32x64,
    # against 126 MiB with a whole-batch input gradient
    model = _model("siamese", nn.EncoderConfig())
    x1, x2 = np.random.default_rng(5).random((2, 32, 1, 32, 64))
    ws = nn.Workspace()
    _step(model, x1, x2, 0, ws=ws)
    total = sum(a.nbytes for a in ws._arrays.values())
    assert total < 100 * 2 ** 20, f"workspace holds {total / 2 ** 20:.1f} MiB"


def test_training_step_without_workspace_allocation_budget():
    # a step without a workspace makes a one-step workspace and drops it:
    # about 102 MB at peak for a 32-pair step at 32x64, against 143 MB
    # with a whole-batch input gradient
    model = _model("siamese", nn.EncoderConfig())
    x1, x2 = np.random.default_rng(5).random((2, 32, 1, 32, 64))
    _step(model, x1, x2, 0)
    tracemalloc.start()
    try:
        _step(model, x1, x2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 115e6, f"step peaked at {peak / 1e6:.1f} MB"


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
    # a cache-free pass runs the conv blocks over INFERENCE_TILE images at
    # a time in the encoder's own workspace. On a fresh encoder it peaks at
    # about 17.5 MB at 32x64 for 64 or 256 images, against 27 MB and 110 MB
    # for whole-batch blocks that free each block's arrays; a second pass
    # reuses that workspace and allocates only its (N, C) and (N, F) rows,
    # against about 17 MB for a workspace made per call
    x = np.random.default_rng(7).random((256, 1, 32, 64))
    for n in (64, 256):
        encoder = nn.ConvEncoder.init(nn.EncoderConfig(),
                                      np.random.default_rng(6))
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                encoder.forward(x[:n])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        first, second = (f"{peak / 1e6:.2f} MB" for peak in peaks)
        assert peaks[0] < 20e6, f"forward of {n} images peaked at {first}"
        assert peaks[1] < 1e6, f"second forward of {n} images peaked at {second}"


def _batch_sizes(tile):
    # batch sizes around a 16-image tile and around the config's own tile
    return sorted({1, 15, 16, 17, 35, 64} |
                  {n for n in (tile - 1, tile, tile + 1, 2 * tile + 3) if n <= 256})


@TILED_CONFIGS
@pytest.mark.parametrize("kind", ["siamese", "naive"])
def test_tiled_inference_matches_whole_batch_forward(monkeypatch, kind, config):
    # the cache-free forward runs the conv blocks tile by tile and the
    # feature layer once; its features equal the training path's
    # whole-batch pass bit for bit, sign bit included. Every tile has the
    # same size, the last one overlapping the one before. Constant image
    # regions make whole pooling windows tie.
    encoder = _model(kind, config).encoder
    tile = encoder._inference_tile()
    # block 0's products: 512 rows x 9 x 4 columns an image at 16x32
    assert tile == {SMALL: 55, nn.EncoderConfig(): nn.INFERENCE_TILE, ODD: 55,
                    WIDTH1: sys.maxsize}[config]
    batches = []
    real_conv = nn.conv3x3_forward

    def conv(x, *args, **kw):
        batches.append(len(x))
        return real_conv(x, *args, **kw)

    monkeypatch.setattr(nn, "conv3x3_forward", conv)
    gen = np.random.default_rng(9)
    shape = (config.in_height, config.in_width)
    for n in _batch_sizes(tile) + [256]:
        x = gen.random((n, 1) + shape)
        x[:, :, : shape[0] // 2, : shape[1] // 2] = 0.5
        x[::3] = 0.0
        batches.clear()
        feat, cache = encoder.forward(x)
        assert cache is None
        tiles = [min(tile, n)] * -(-n // tile)
        assert batches == [t for t in tiles for _ in config.conv_widths]
        ref, _ = encoder.forward(x, ws=nn.Workspace())
        assert np.array_equal(feat, ref), n
        assert np.array_equal(np.signbit(feat), np.signbit(ref)), n


@TILED_CONFIGS
def test_tiled_input_gradient_matches_whole_batch(monkeypatch, config):
    # conv3x3_backward computes dx one tile of images at a time; it equals
    # one patch matrix of the whole padded dout times the flipped kernel,
    # bit for bit and sign bit for sign bit, with a reused workspace and
    # without one. Constant image regions and all-zero images make pooling
    # windows tie, so dout holds tied shares.
    encoder = nn.ConvEncoder.init(config, np.random.default_rng(10))
    calls = []
    real_backward = nn.conv3x3_backward

    def backward(dout, cols, weight, need_dx=True, **kw):
        out = real_backward(dout, cols, weight, need_dx, **kw)
        if need_dx:
            calls.append(copy.deepcopy((dout, cols, weight, out[0])))
        return out

    monkeypatch.setattr(nn, "conv3x3_backward", backward)
    gen = np.random.default_rng(11)
    shape = (config.in_height, config.in_width)
    ws = nn.Workspace()
    tied = False
    for n in _batch_sizes(encoder._inference_tile()):
        x = gen.random((n, 1) + shape)
        x[:, :, : shape[0] // 2, : shape[1] // 2] = 0.5
        x[::3] = 0.0
        calls.clear()
        feat, cache = encoder.forward(x, ws=ws)
        grads = {k: np.zeros_like(v) for k, v in encoder.params.items()}
        encoder.backward(gen.normal(size=feat.shape), cache, grads)
        assert len(calls) == len(config.conv_widths) - 1
        for dout, cols, weight, dx in calls:
            ref = whole_batch_conv_input_grad(dout, weight)
            fresh, _, _ = real_backward(dout, cols, weight)
            for got in (dx, fresh):
                assert np.array_equal(got, ref), n
                assert np.array_equal(np.signbit(got), np.signbit(ref)), n
            h, w, c = dout.shape[1:]
            win = dout.reshape(n, h // 2, 2, w // 2, 2, c)
            tied |= bool(((win == win[:, :, :1, :, :1]) & (win != 0))
                         .all(axis=(2, 4)).any())
    assert tied
