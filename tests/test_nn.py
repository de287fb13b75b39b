"""Encoder kernels against their loop and window-reduction references:
equal bit for bit, ties included."""

import numpy as np
import pytest

from pairstate import nn

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
