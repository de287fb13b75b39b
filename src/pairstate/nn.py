"""Small float64 convolutional encoder with hand-rolled backprop.

Everything here is deterministic and double precision so that analytic
gradients can be checked against central finite differences. Layers are
forward/backward function pairs over explicit caches; internally the data
layout is channels-last (N, H, W, C), which keeps the im2col patch matrix
assembly cache-friendly and feeds BLAS without transposes. The encoder
accepts the conventional (N, 1, H, W) image batches.

The kernels move each value as few times as they can without changing a
bit of the result. im2col is one contiguous copy of a strided 3x3 window
view of the padded input, and the input gradient of a convolution reuses
it. 2x2 max pooling works on the four stride-2 quadrant slices of its
input: the forward is their elementwise maximum, and the backward counts
each window's ties as the sum of four equality masks and writes each
quadrant's share into one output array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# layers (channels-last)
# ---------------------------------------------------------------------------

def _im2col(xp, oh, ow):
    """Padded (N, H+2, W+2, C) -> patch matrix (N*OH*OW, 9C).

    Patch columns are offset-major: block k = (dy*3 + dx) holds the C
    channels of the pixel shifted by (dy, dx). The matrix is one copy of a
    strided (N, OH, OW, dy, dx, C) window view of the padded input.
    """
    n, _, _, c = xp.shape
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))[:, :oh, :ow]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, 9 * c)


def _kernel_matrix(weight):
    # (Cout, Cin, 3, 3) -> (9*Cin, Cout) matching _im2col's column order
    cout, cin = weight.shape[:2]
    return weight.transpose(2, 3, 1, 0).reshape(9 * cin, cout)


def _kernel_matrix_transposed(weight):
    # flipped and in/out-swapped kernel as (9*Cout, Cin), for the input grad
    cout, cin = weight.shape[:2]
    return weight[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(9 * cout, cin)


def conv3x3_forward(x, weight, bias):
    """Same-size 3x3 convolution (stride 1, zero padding 1).

    x: (N, H, W, Cin), weight: (Cout, Cin, 3, 3), bias: (Cout,).
    Returns (out, cache) with out of shape (N, H, W, Cout).
    """
    n, h, w, _ = x.shape
    cout = weight.shape[0]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = _im2col(xp, h, w)
    out = cols @ _kernel_matrix(weight)
    out += bias
    return out.reshape(n, h, w, cout), cols


def conv3x3_backward(dout, cols, weight, need_dx=True):
    """Gradients of conv3x3_forward. Returns (dx, dweight, dbias).

    dx is None when need_dx is False (saves the largest copy+matmul for
    the first layer, whose input gradient is never used).
    """
    cout, cin = weight.shape[:2]
    n, h, w, _ = dout.shape
    dflat = dout.reshape(-1, cout)
    dwm = cols.T @ dflat                               # (9*Cin, Cout)
    dweight = dwm.reshape(3, 3, cin, cout).transpose(3, 2, 0, 1)
    dbias = dflat.sum(axis=0)
    dx = None
    if need_dx:
        # input gradient == same-size conv of dout with the flipped,
        # in/out-swapped kernel
        dp = np.pad(dout, ((0, 0), (1, 1), (1, 1), (0, 0)))
        dx = (_im2col(dp, h, w) @ _kernel_matrix_transposed(weight)
              ).reshape(n, h, w, cin)
    return dx, dweight, dbias


def relu_forward(x):
    out = np.maximum(x, 0.0)
    return out, x > 0


def relu_backward(dout, mask):
    return dout * mask


def _quadrants(x):
    # the four stride-2 offsets of every 2x2 window, each (N, H/2, W/2, C)
    return [x[:, dy::2, dx::2] for dy in (0, 1) for dx in (0, 1)]


def maxpool2_forward(x):
    """2x2 max pooling, stride 2, channels-last. H and W must be even."""
    q = _quadrants(x)
    out = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
    return out, (x, out)


def maxpool2_backward(dout, cache):
    # The window gradient is split evenly across every entry equal to the
    # max. Ties are not measure-zero here: a dead-ReLU patch makes a whole
    # window equal the conv bias, and those tied entries shift identically
    # under any parameter change, so the even split is the exact gradient.
    x, out = cache
    masks = [q == out for q in _quadrants(x)]
    ties = masks[0].astype(np.int8)
    for mask in masks[1:]:
        ties += mask
    g = dout / ties
    dx = np.empty(x.shape)
    for mask, dq in zip(masks, _quadrants(dx)):
        np.multiply(mask, g, out=dq)
    return dx


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncoderConfig:
    """Shape of the compact convolutional encoder.

    Each conv block is conv3x3 -> ReLU -> 2x2 maxpool; after the blocks a
    global average pool and one ReLU-activated linear layer produce the
    feature vector.
    """
    in_height: int = 32
    in_width: int = 64
    conv_widths: tuple[int, ...] = (8, 16, 32)
    feature_dim: int = 64

    def __post_init__(self):
        object.__setattr__(self, "conv_widths", tuple(self.conv_widths))
        if not self.conv_widths:
            raise ValueError("need at least one conv block")
        div = 2 ** len(self.conv_widths)
        if self.in_height % div or self.in_width % div:
            raise ValueError(
                f"input {self.in_height}x{self.in_width} not divisible by {div} "
                f"({len(self.conv_widths)} pooling stages)")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")

    def to_dict(self):
        return {
            "in_height": self.in_height,
            "in_width": self.in_width,
            "conv_widths": list(self.conv_widths),
            "feature_dim": self.feature_dim,
        }

    @staticmethod
    def from_dict(d):
        return EncoderConfig(
            in_height=d["in_height"],
            in_width=d["in_width"],
            conv_widths=tuple(d["conv_widths"]),
            feature_dim=d["feature_dim"],
        )


@dataclass
class ConvEncoder:
    """Conv blocks + global average pooling + linear feature layer."""

    config: EncoderConfig
    params: dict = field(default_factory=dict)

    @staticmethod
    def init(config: EncoderConfig, rng: np.random.Generator) -> "ConvEncoder":
        """He-normal weights; biases at 0.01 so dead-input patches do not
        sit exactly on the ReLU kink (keeps finite differences clean)."""
        params = {}
        cin = 1
        for i, cout in enumerate(config.conv_widths):
            fan_in = cin * 9
            params[f"conv{i}.w"] = rng.normal(
                0.0, np.sqrt(2.0 / fan_in), size=(cout, cin, 3, 3))
            params[f"conv{i}.b"] = np.full(cout, 0.01)
            cin = cout
        params["feat.w"] = rng.normal(
            0.0, np.sqrt(2.0 / cin), size=(config.feature_dim, cin))
        params["feat.b"] = np.full(config.feature_dim, 0.01)
        return ConvEncoder(config, params)

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def _check_input(self, x):
        cfg = self.config
        if x.ndim != 4 or x.shape[1] != 1 or x.shape[2:] != (cfg.in_height, cfg.in_width):
            raise ValueError(
                f"expected images of shape (N, 1, {cfg.in_height}, {cfg.in_width}), "
                f"got {x.shape}")

    def forward(self, x):
        """x: (N, 1, H, W) float64 in [0, 1] -> (features (N, F), cache)."""
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        h = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
        blocks = []
        for i in range(len(self.config.conv_widths)):
            z, cols = conv3x3_forward(h, self.params[f"conv{i}.w"],
                                      self.params[f"conv{i}.b"])
            a, relu_mask = relu_forward(z)
            h, pool_cache = maxpool2_forward(a)
            blocks.append((cols, relu_mask, pool_cache))
        pooled = h.mean(axis=(1, 2))                      # global average pool
        pre = pooled @ self.params["feat.w"].T + self.params["feat.b"]
        feat, feat_mask = relu_forward(pre)
        return feat, (blocks, h.shape, pooled, feat_mask)

    def backward(self, dfeat, cache, grads):
        """Accumulate parameter gradients into `grads` (dict name -> array)."""
        blocks, hshape, pooled, feat_mask = cache
        dpre = relu_backward(dfeat, feat_mask)
        grads["feat.w"] += dpre.T @ pooled
        grads["feat.b"] += dpre.sum(axis=0)
        dpool = dpre @ self.params["feat.w"]
        n, ph, pw, c = hshape
        dh = np.broadcast_to(dpool[:, None, None, :] / (ph * pw), hshape)
        for i in range(len(blocks) - 1, -1, -1):
            cols, relu_mask, pool_cache = blocks[i]
            da = maxpool2_backward(dh, pool_cache)
            dz = relu_backward(da, relu_mask)
            dh, dw, db = conv3x3_backward(
                dz, cols, self.params[f"conv{i}.w"], need_dx=i > 0)
            grads[f"conv{i}.w"] += dw
            grads[f"conv{i}.b"] += db
        return None
