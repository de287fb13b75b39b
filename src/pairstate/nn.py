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
it. A one-channel input (block 0) would copy in 3-element runs that way,
so when its product is large enough for BLAS's blocked kernel its patch
matrix is built K-major instead: nine shifted copies of the image, read
by BLAS through a transpose flag with the same result. The bias is added
to whole output rows at once and its gradient summed in one einsum pass
that adds rows in the order sum(axis=0) does. 2x2 max pooling works on
the four stride-2 quadrant slices of its input: the forward is their
elementwise maximum, and the backward counts each window's ties as the
sum of four equality masks and writes each quadrant's share into one
output array.

A conv block pools before its ReLU: conv3x3 -> 2x2 maxpool -> ReLU. As
ReLU is monotone, relu(max(window)) == max(relu(window)) exactly, and the
gradients agree bit for bit, sign of zero included: a window with a
positive maximum sends its gradient to the same tied entries either way,
and one without sends every entry a zero signed like the incoming
gradient. The ReLU, its mask and its gradient then cover a quarter of the
elements.

Every layer function writes its results with `out=` into arrays from one
helper, `_buffer`. Given a `Workspace` (the trailing `ws=` keyword), the
helper returns that workspace's array for the layer and role, so a
training loop that keeps one workspace for an epoch's steps writes every
step into the same memory instead of faulting fresh pages in. Without a
workspace it returns a fresh array. The forward and padded roles keep one
array per conv block; the backward roles in SHARED_ROLES share one arena
across blocks, since backward differentiates one block at a time.

`ConvEncoder.forward` runs the conv blocks through one routine,
`_conv_blocks`, with and without a workspace. A training pass gives it
the whole batch and keeps the backward cache. An inference pass (no
workspace) keeps none: it runs the blocks one tile of images at a time in
one workspace that the encoder keeps for every tile of every such call,
and collects each tile's global-average-pooled rows. The feature layer
runs once over the whole batch either way. The backward pass tiles the
input gradient of each convolution the same way, and keeps the weight and
bias gradients whole: they sum rows of every image, and a sum split into
tiles rounds differently.

A tile keeps every bit because each image's rows of a conv output or
input gradient come from that image alone, and because the tile size
(`_tile_images`) keeps each tile's matrix products in the BLAS kernel
that computes the whole batch's, which rounds a row the same whatever the
row count; see BLAS_SMALL_PRODUCT. The same bound decides when block 0
may take K-major patches.
"""

from __future__ import annotations

import math
import sys
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
# buffers
# ---------------------------------------------------------------------------

# Backward roles that only the block being differentiated uses, so the blocks
# share one arena per role. A block's incoming gradient is the "dx" of the
# block above it, which the block has read in full before it writes its own.
# Padded roles ("xp", "dout_padded") stay per layer: a zero border holds only
# for the shape it was allocated with.
SHARED_ROLES = frozenset({"pool_masks", "pool_ties", "pool_share", "pool_grad",
                          "relu_grad", "dout_cols", "dx"})


# Fewest images per tile of an inference forward's conv blocks and of a
# training backward's input gradient. At 32x64 a 16-image tile's forward
# block arrays take 16.5 MiB, reused tile after tile, against about 110 MB
# of fresh arrays for one 256-image pass. Measured on 2 cores: 16 as fast
# as 8, and faster than 32, 64, 128 or the untiled batch.
INFERENCE_TILE = 16

# A tile's conv products must round each row as the whole batch's product
# does. OpenBLAS (0.3.31) runs a product of at most 100**3 multiply-adds
# through a small-matrix kernel, which rounds rows differently from the
# blocked kernel of larger products for some column counts (2, 3, 4 and
# 12 among them), and its threaded matrix-vector product (one column)
# rounds a row differently with its offset. Above the bound, a row of a
# product with two or more columns came out the same for every row count
# and offset tried, and with either operand stored transposed, which lets
# block 0 hand BLAS K-major patches (conv3x3_forward). Below it, K-major
# patches change the weight gradient's bits for 2, 3, 4 and 12 columns.
# test_nn checks these properties of the BLAS in use.
BLAS_SMALL_PRODUCT = 100 ** 3


def _tile_images(products):
    """Images per tile for conv products given as (rows per image, K, N):
    INFERENCE_TILE, or enough images that every product exceeds
    BLAS_SMALL_PRODUCT multiply-adds; no tiling for a one-column product."""
    tile = INFERENCE_TILE
    for rows, k, cols in products:
        if cols == 1:
            return sys.maxsize
        tile = max(tile, BLAS_SMALL_PRODUCT // (rows * k * cols) + 1)
    return tile


def _tiles(n, tile):
    """(start, stop) of each tile of a batch of n images. The last tile
    ends at n and overlaps the one before it rather than run short, so
    every tile's products have the same shape; n <= tile is one tile."""
    starts = [*range(0, n - tile, tile), max(n - tile, 0)]
    return [(start, min(start + tile, n)) for start in starts]


class Workspace:
    """Reusable arrays for training steps and inference tiles.

    `array` returns the stored array for a key and replaces it when the
    requested shape or dtype differs, so a run of same-sized batches
    writes into the same memory step after step. Padded buffers are
    allocated zeroed and only their interior is ever written, so their
    border stays zero.

    A 32-pair step at 32x64 holds 93 MiB: the input gradient's padded
    copy and patch matrix are one tile of images, not the whole batch.

    A conv block's buffers are keyed by (role, layer), except for the
    roles in SHARED_ROLES. Backward runs one block at a time, so each of
    those has one flat arena, stored under the role's name, and every
    block gets a view of the arena's first elements in its own shape
    (`shared`). The arena grows to the largest block's size and then
    serves smaller blocks and smaller batches without reallocating.

    `generation` counts the forward passes run on the workspace. A
    backward cache records the generation of the forward pass that made
    it, and `ConvEncoder.backward` refuses a cache whose buffers a later
    forward pass has overwritten.
    """

    def __init__(self):
        self._arrays = {}
        self.generation = 0

    def array(self, key, shape, dtype=np.float64, zeroed=False):
        arr = self._arrays.get(key)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = _buffer(None, key, shape, dtype, zeroed)
            self._arrays[key] = arr
        return arr

    def shared(self, role, shape, dtype=np.float64):
        """A `shape` view of the start of the role's arena."""
        size = math.prod(shape)
        arena = self._arrays.get(role)
        if arena is None or arena.size < size or arena.dtype != dtype:
            arena = self._arrays[role] = np.empty(size, dtype)
        return arena[:size].reshape(shape)

    def layer(self, index):
        """The buffers of one conv block, keyed by role."""
        return _LayerBuffers(self, index)


class _LayerBuffers:
    __slots__ = ("workspace", "index")

    def __init__(self, workspace, index):
        self.workspace = workspace
        self.index = index

    def array(self, role, shape, dtype=np.float64, zeroed=False):
        if role in SHARED_ROLES:
            return self.workspace.shared(role, shape, dtype)
        return self.workspace.array((role, self.index), shape, dtype, zeroed)


def _buffer(ws, role, shape, dtype=np.float64, zeroed=False):
    """Output array of one layer role: the workspace's, or a fresh one."""
    if ws is not None:
        return ws.array(role, shape, dtype, zeroed)
    return np.zeros(shape, dtype) if zeroed else np.empty(shape, dtype)


def _padded(x, ws, role):
    # x with a one-pixel zero border; only the interior is written
    n, h, w, c = x.shape
    xp = _buffer(ws, role, (n, h + 2, w + 2, c), zeroed=True)
    xp[:, 1:-1, 1:-1] = x
    return xp


# ---------------------------------------------------------------------------
# layers (channels-last)
# ---------------------------------------------------------------------------

def _im2col(xp, oh, ow, *, kmajor=False, ws=None, role="cols"):
    """Padded (N, H+2, W+2, C) -> patch matrix (N*OH*OW, 9C).

    Patch columns are offset-major: block k = (dy*3 + dx) holds the C
    channels of the pixel shifted by (dy, dx). The matrix is one copy of a
    strided (N, OH, OW, dy, dx, C) window view of the padded input.

    With kmajor (one channel only) the matrix is the transposed view of a
    K-major (9, N*OH*OW) array whose row k is the input shifted by
    (dy, dx): nine copies of whole image rows instead of one copy in
    3-element runs. It holds the same values in the same (rows, 9) shape;
    only the memory order differs, which BLAS reads through a transpose
    flag (see BLAS_SMALL_PRODUCT for when that keeps every bit).
    """
    n, _, _, c = xp.shape
    if kmajor:
        cols_t = _buffer(ws, role, (9, n * oh * ow))
        shifted = cols_t.reshape(3, 3, n, oh, ow)
        for dy in range(3):
            for dx in range(3):
                shifted[dy, dx] = xp[:, dy:dy + oh, dx:dx + ow, 0]
        return cols_t.T
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))[:, :oh, :ow]
    cols = _buffer(ws, role, (n * oh * ow, 9 * c))
    cols.reshape(n, oh, ow, 3, 3, c)[...] = win.transpose(0, 1, 2, 4, 5, 3)
    return cols


def _kernel_matrix(weight):
    # (Cout, Cin, 3, 3) -> (9*Cin, Cout) matching _im2col's column order
    cout, cin = weight.shape[:2]
    return weight.transpose(2, 3, 1, 0).reshape(9 * cin, cout)


def _kernel_matrix_transposed(weight):
    # flipped and in/out-swapped kernel as (9*Cout, Cin), for the input grad
    cout, cin = weight.shape[:2]
    return weight[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(9 * cout, cin)


def conv3x3_forward(x, weight, bias, *, ws=None):
    """Same-size 3x3 convolution (stride 1, zero padding 1).

    x: (N, H, W, Cin), weight: (Cout, Cin, 3, 3), bias: (Cout,).
    Returns (out, cache) with out of shape (N, H, W, Cout); the cache is
    the patch matrix. A one-channel input whose product runs in BLAS's
    blocked kernel (two or more output channels, above
    BLAS_SMALL_PRODUCT multiply-adds) gets K-major patches (_im2col).
    The bias is added as one W*Cout-long row to each of the N*H rows of
    the output, the same sums as a broadcast over Cout-long rows in far
    fewer inner loops.
    """
    n, h, w, cin = x.shape
    cout = weight.shape[0]
    kmajor = (cin == 1 and cout >= 2
              and n * h * w * 9 * cout > BLAS_SMALL_PRODUCT)
    cols = _im2col(_padded(x, ws, "xp"), h, w, kmajor=kmajor, ws=ws)
    out = np.matmul(cols, _kernel_matrix(weight),
                    out=_buffer(ws, "conv", (n * h * w, cout)))
    rows = out.reshape(n * h, w * cout)
    rows += np.tile(bias, w)
    return out.reshape(n, h, w, cout), cols


def conv3x3_backward(dout, cols, weight, need_dx=True, *, ws=None):
    """Gradients of conv3x3_forward. Returns (dx, dweight, dbias).

    dx is None when need_dx is False (saves the largest copy+matmul for
    the first layer, whose input gradient is never used). The weight and
    bias gradients sum over every row of the batch, so they stay one
    whole-batch product and one sum: split into tiles, the sums would
    round differently. The input gradient has no such sum across images
    and runs one tile of images at a time (_tile_images), so its padded
    copy and patch matrix are tile-sized.
    """
    cout, cin = weight.shape[:2]
    n, h, w, _ = dout.shape
    dflat = dout.reshape(-1, cout)
    dwm = cols.T @ dflat                               # (9*Cin, Cout)
    dweight = dwm.reshape(3, 3, cin, cout).transpose(3, 2, 0, 1)
    # einsum adds the rows in order, as sum(axis=0) does for two or more
    # columns, in one pass; one column sum(axis=0) adds pairwise instead
    dbias = np.einsum("ij->j", dflat) if cout >= 2 else dflat.sum(axis=0)
    if not need_dx:
        return None, dweight, dbias
    # input gradient == same-size conv of dout with the flipped,
    # in/out-swapped kernel, one tile of images at a time (_tile_images):
    # an image's rows of dx come from its own rows of dout alone
    ws = Workspace().layer(0) if ws is None else ws
    kernel = _kernel_matrix_transposed(weight)
    tile = min(n, _tile_images([(h * w, 9 * cout, cin)]))
    dp = ws.array("dout_padded", (tile, h + 2, w + 2, cout), zeroed=True)
    dx = ws.array("dx", (n * h * w, cin))
    for start, stop in _tiles(n, tile):
        dp[:, 1:-1, 1:-1] = dout[start:stop]
        dcols = _im2col(dp, h, w, ws=ws, role="dout_cols")
        np.matmul(dcols, kernel, out=dx[start * h * w:stop * h * w])
    return dx.reshape(n, h, w, cin), dweight, dbias


def relu_forward(x, *, ws=None):
    out = np.maximum(x, 0.0, out=_buffer(ws, "relu", x.shape))
    return out, np.greater(x, 0, out=_buffer(ws, "relu_mask", x.shape, bool))


def relu_backward(dout, mask, *, ws=None):
    return np.multiply(dout, mask, out=_buffer(ws, "relu_grad", mask.shape))


def _quadrants(x):
    # the four stride-2 offsets of every 2x2 window, each (N, H/2, W/2, C)
    return [x[:, dy::2, dx::2] for dy in (0, 1) for dx in (0, 1)]


def maxpool2_forward(x, *, ws=None):
    """2x2 max pooling, stride 2, channels-last. H and W must be even."""
    q = _quadrants(x)
    out = np.maximum(q[0], q[1], out=_buffer(ws, "pool", q[0].shape))
    np.maximum(out, np.maximum(q[2], q[3],
                               out=_buffer(ws, "pool_right", q[0].shape)),
               out=out)
    return out, (x, out)


def maxpool2_backward(dout, cache, *, ws=None):
    # The window gradient is split evenly across every entry equal to the
    # max. Ties are not measure-zero here: a dead-ReLU patch makes a whole
    # window equal the conv bias, and those tied entries shift identically
    # under any parameter change, so the even split is the exact gradient.
    x, out = cache
    masks = _buffer(ws, "pool_masks", (4,) + out.shape, bool)
    for q, mask in zip(_quadrants(x), masks):
        np.equal(q, out, out=mask)
    ties = _buffer(ws, "pool_ties", out.shape, np.int8)
    ties[...] = masks[0]
    for mask in masks[1:]:
        ties += mask
    g = np.divide(dout, ties, out=_buffer(ws, "pool_share", out.shape))
    dx = _buffer(ws, "pool_grad", x.shape)
    for mask, dq in zip(masks, _quadrants(dx)):
        np.multiply(mask, g, out=dq)
    return dx


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncoderConfig:
    """Shape of the compact convolutional encoder.

    Each conv block is conv3x3 -> 2x2 maxpool -> ReLU, the same function
    as conv3x3 -> ReLU -> 2x2 maxpool with the ReLU on a quarter of the
    elements; after the blocks a global average pool and one
    ReLU-activated linear layer produce the feature vector.
    """
    in_height: int = 32
    in_width: int = 64
    conv_widths: tuple[int, ...] = (8, 16, 32)
    feature_dim: int = 64

    def __post_init__(self):
        object.__setattr__(self, "conv_widths", tuple(self.conv_widths))
        if not self.conv_widths:
            raise ValueError("need at least one conv block")
        if min(self.conv_widths) < 1:
            raise ValueError(f"conv widths must be >= 1, got {self.conv_widths}")
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
    """Conv blocks + global average pooling + linear feature layer.

    The encoder keeps the workspace its cache-free forward passes run
    their tiles in, so one encoder's forward is not thread-safe: give each
    thread its own encoder.
    """

    config: EncoderConfig
    params: dict = field(default_factory=dict)
    tile_ws: Workspace = field(default_factory=Workspace, init=False,
                               repr=False, compare=False)

    @staticmethod
    def init(config: EncoderConfig, rng: np.random.Generator) -> "ConvEncoder":
        """He-normal weights; biases at 0.01 so dead-input patches do not
        sit exactly on the ReLU kink (keeps finite differences clean)."""
        params = {}
        for name, shape in ConvEncoder.param_shapes(config).items():
            if name.endswith(".b"):
                params[name] = np.full(shape, 0.01)
            else:
                fan_in = int(np.prod(shape[1:]))
                params[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        return ConvEncoder(config, params)

    @staticmethod
    def param_shapes(config: EncoderConfig) -> dict:
        """Name -> shape of every encoder parameter, in initialisation order."""
        shapes = {}
        cin = 1
        for i, cout in enumerate(config.conv_widths):
            shapes[f"conv{i}.w"] = (cout, cin, 3, 3)
            shapes[f"conv{i}.b"] = (cout,)
            cin = cout
        shapes["feat.w"] = (config.feature_dim, cin)
        shapes["feat.b"] = (config.feature_dim,)
        return shapes

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def _check_input(self, x):
        cfg = self.config
        if x.ndim != 4 or x.shape[1] != 1 or x.shape[2:] != (cfg.in_height, cfg.in_width):
            raise ValueError(
                f"expected images of shape (N, 1, {cfg.in_height}, {cfg.in_width}), "
                f"got {x.shape}")

    def forward(self, x, *, ws=None):
        """x: (N, 1, H, W) float64 in [0, 1] -> (features (N, F), cache).

        With a workspace, the conv blocks run over the whole batch in the
        workspace's arrays and the returned cache holds what backward
        needs; it stays valid until the next forward pass on the same
        workspace. Without one (inference) the cache is None: the conv
        blocks run over INFERENCE_TILE images at a time in the encoder's
        own `tile_ws`, kept from call to call, so the working set stays
        tile-sized whatever N is and a later call faults no fresh pages
        in; each tile's global-average-pooled rows go into one (N, C)
        array. Every tile has the same size (_tiles), so the workspace's
        arrays keep one shape across tiles and calls. Concurrent calls on
        one encoder would overwrite each other's tiles: forward is not
        thread-safe. The feature layer runs once over all N rows either
        way: a BLAS matrix product can round a row differently with a
        different row count, so only the per-image conv blocks are tiled.
        """
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        if ws is None:
            pooled = np.empty((x.shape[0], self.config.conv_widths[-1]))
            for start, stop in _tiles(x.shape[0], self._inference_tile()):
                h, _ = self._conv_blocks(x[start:stop], self.tile_ws)
                h.mean(axis=(1, 2), out=pooled[start:stop])
        else:
            ws.generation += 1
            h, blocks = self._conv_blocks(x, ws)
            pooled = h.mean(axis=(1, 2))                  # global average pool
        pre = pooled @ self.params["feat.w"].T + self.params["feat.b"]
        feat, feat_mask = relu_forward(pre)
        if ws is None:
            return feat, None
        return feat, (ws, ws.generation, blocks, h.shape, pooled, feat_mask)

    def _inference_tile(self) -> int:
        """Images per tile of a cache-free forward (see _tile_images)."""
        cfg = self.config
        products = []
        cin, h, w = 1, cfg.in_height, cfg.in_width
        for cout in cfg.conv_widths:
            products.append((h * w, 9 * cin, cout))
            cin, h, w = cout, h // 2, w // 2
        return _tile_images(products)

    def _conv_blocks(self, x, ws):
        """The conv blocks over x (N, 1, H, W), writing into ws's arrays.
        Returns the last block's (N, H', W', C) output and each block's
        backward cache (patches, pool cache, ReLU mask)."""
        h = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
        blocks = []
        for i in range(len(self.config.conv_widths)):
            lw = ws.layer(i)
            z, cols = conv3x3_forward(h, self.params[f"conv{i}.w"],
                                      self.params[f"conv{i}.b"], ws=lw)
            p, pool_cache = maxpool2_forward(z, ws=lw)
            h, relu_mask = relu_forward(p, ws=lw)
            blocks.append((cols, pool_cache, relu_mask))
        return h, blocks

    def backward(self, dfeat, cache, grads):
        """Accumulate parameter gradients into `grads` (dict name -> array).

        `cache` is what forward returned with a workspace; backward writes
        its own buffers into the same workspace.
        """
        if cache is None:
            raise ValueError("no backward cache: forward ran without a workspace")
        ws, generation, blocks, hshape, pooled, feat_mask = cache
        if ws.generation != generation:
            raise RuntimeError(
                f"stale backward cache: made by forward pass {generation}, but "
                f"forward pass {ws.generation} has reused its workspace")
        dpre = relu_backward(dfeat, feat_mask)
        grads["feat.w"] += dpre.T @ pooled
        grads["feat.b"] += dpre.sum(axis=0)
        dpool = dpre @ self.params["feat.w"]
        n, ph, pw, c = hshape
        dh = np.broadcast_to(dpool[:, None, None, :] / (ph * pw), hshape)
        for i in range(len(blocks) - 1, -1, -1):
            lw = ws.layer(i)
            cols, pool_cache, relu_mask = blocks[i]
            # dh may be block i+1's dx, in the shared "dx" arena: relu_backward
            # reads all of it before conv3x3_backward writes block i's dx there
            dp = relu_backward(dh, relu_mask, ws=lw)
            dz = maxpool2_backward(dp, pool_cache, ws=lw)
            dh, dw, db = conv3x3_backward(
                dz, cols, self.params[f"conv{i}.w"], need_dx=i > 0, ws=lw)
            grads[f"conv{i}.w"] += dw
            grads[f"conv{i}.b"] += db
        return None
