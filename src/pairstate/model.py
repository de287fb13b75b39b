"""Siamese pair model: per-image scalar logits, antisymmetric pair combination.

Each image is encoded independently into two scalars: a disease-state logit
(z_state) and an ungradability logit (z_other). A pair is scored by the
difference of state logits pushed through a sigmoid whose slope is a
learnable per-pair uncertainty parameter gamma = 2**alpha, and by an OR
merge of the two ungradability probabilities.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np

from . import objective
from .errors import DataError
from .nn import ConvEncoder, EncoderConfig, Workspace, sigmoid

LN2 = float(np.log(2.0))

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# pair arithmetic
# ---------------------------------------------------------------------------

def gamma_of(alpha):
    """Per-pair sigmoid slope, gamma = 2**alpha (alpha = 0 -> gamma = 1)."""
    return np.exp2(alpha)


def progression_prob(delta, gamma=1.0):
    """P(pair improved) = sigmoid(gamma * delta). Requires gamma > 0."""
    if np.any(np.asarray(gamma) <= 0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    return sigmoid(np.asarray(gamma, dtype=np.float64) * np.asarray(delta, dtype=np.float64))


def other_prob(z_other_1, z_other_2):
    """P(at least one image ungradable), an OR of per-image probabilities.

    Computed as s1 + s2 - s1*s2 == 1 - (1-s1)(1-s2), which is symmetric in
    the arguments and never below max(s1, s2).
    """
    s1 = sigmoid(z_other_1)
    s2 = sigmoid(z_other_2)
    return s1 + s2 - s1 * s2


class AlphaTable:
    """One learnable slope exponent per training pair, indexed by pair_id.

    Pairs outside the table (or at inference time) use alpha = 0, i.e.
    gamma = 1.
    """

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=np.float64)

    @staticmethod
    def zeros(n_pairs: int) -> "AlphaTable":
        return AlphaTable(np.zeros(n_pairs))

    def __len__(self):
        return len(self.values)

    def alpha(self, pair_id) -> float:
        if pair_id is None or not 0 <= pair_id < len(self.values):
            return 0.0
        return float(self.values[pair_id])

    def gamma(self, pair_id) -> float:
        return float(gamma_of(self.alpha(pair_id)))

    def gammas(self) -> np.ndarray:
        return gamma_of(self.values)


# ---------------------------------------------------------------------------
# the Siamese model
# ---------------------------------------------------------------------------

def _as_batch(image):
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        return image[None, None], True
    if image.ndim == 3:
        return image[None], True
    return image, False


def _init_heads(shapes, rng):
    # weights ~ N(0, 1/fan_in), drawn in the order of `shapes`; zero biases
    return {name: rng.normal(0.0, 1.0 / np.sqrt(shape[-1]), size=shape)
            if name.endswith(".w") else np.zeros(shape)
            for name, shape in shapes.items()}


def _encode_pairs(encoder, img1, img2, ws):
    """Training forward pass over the first images, then the second, of a
    batch of pairs. The stacked float64 batch is written once, into the
    workspace (a fresh one when ws is None). Returns (features, cache)."""
    ws = Workspace() if ws is None else ws
    shape = (2 * img1.shape[0],) + img1.shape[1:]
    stacked = np.concatenate([img1, img2], axis=0, out=ws.array("stacked", shape))
    return encoder.forward(stacked, ws=ws)


class _PairModel:
    """The plumbing both pair models share: a ConvEncoder plus heads, with
    every parameter in one flat dict."""

    def __init__(self, encoder: ConvEncoder, head_params: dict):
        self.encoder = encoder
        # one flat dict so the optimizer sees every parameter; encoder
        # arrays are shared, not copied
        self.params = dict(encoder.params)
        self.params.update(head_params)

    @property
    def config(self) -> EncoderConfig:
        return self.encoder.config

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def features(self, images):
        """Penultimate feature vectors, (N, F)."""
        batch, single = _as_batch(images)
        feat, _ = self.encoder.forward(batch)
        return feat[0] if single else feat


class SiameseModel(_PairModel):
    """Shared encoder plus two independent affine scalar heads."""

    kind = "siamese"
    # each model class holds its own `features`, which perfbench's tracer
    # wraps under the class's name
    features = _PairModel.features

    @staticmethod
    def init(config: EncoderConfig, rng: np.random.Generator) -> "SiameseModel":
        encoder = ConvEncoder.init(config, rng)
        return SiameseModel(encoder, _init_heads(SiameseModel.head_shapes(config), rng))

    @staticmethod
    def head_shapes(config: EncoderConfig) -> dict:
        f = config.feature_dim
        return {"head_state.w": (f,), "head_state.b": (1,),
                "head_other.w": (f,), "head_other.b": (1,)}

    # -- forward ------------------------------------------------------------

    def _heads(self, feat):
        z_state = feat @ self.params["head_state.w"] + self.params["head_state.b"][0]
        z_other = feat @ self.params["head_other.w"] + self.params["head_other.b"][0]
        return z_state, z_other

    def encode(self, images):
        """Per-image logits (z_state, z_other); scalars for a single image."""
        batch, single = _as_batch(images)
        z_state, z_other = self._heads(self.features(batch))
        if single:
            return float(z_state[0]), float(z_other[0])
        return z_state, z_other

    def embed(self, images):
        """Per-image rows [z_state, z_other], (N, 2), that pair_head reads."""
        return np.column_stack(self._heads(self.features(images)))

    def pair_head(self, rows1, rows2, gamma=None):
        """Pair predictions from the embed() rows of the first and second
        images.

        gamma: scalar or (N,) slope, default 1. Returns dict of arrays:
        z_state_1/2, z_other_1/2, delta, prob_progression, prob_other.
        """
        z1, o1 = rows1[:, 0], rows1[:, 1]
        z2, o2 = rows2[:, 0], rows2[:, 1]
        delta = z1 - z2
        g = 1.0 if gamma is None else gamma
        return {
            "z_state_1": z1, "z_state_2": z2,
            "z_other_1": o1, "z_other_2": o2,
            "delta": delta,
            "prob_progression": progression_prob(delta, g),
            "prob_other": other_prob(o1, o2),
        }

    def predict_pairs(self, img1, img2, gamma=None):
        """Batched pair predictions: pair_head over one encoding of the
        stacked images. img1, img2: (N, 1, H, W)."""
        n = img1.shape[0]
        rows = self.embed(np.concatenate([img1, img2], axis=0))
        return self.pair_head(rows[:n], rows[n:], gamma)

    # -- training-time loss and gradients ------------------------------------

    def loss_and_grads(self, img1, img2, y_state, state_mask, y_other,
                       alpha_batch, lam, alpha_size=0, pair_ids=None, *,
                       ws=None):
        """Mean pair loss over a batch and gradients for every parameter.

        y_state: (N,) soft progression targets (ignored where state_mask is
        False); y_other: (N,) binary; alpha_batch: (N,) slope exponents for
        these pairs. When pair_ids is given, returns a dense alpha gradient
        of length alpha_size under grads["alpha"]. ws: the nn.Workspace the
        encoder step writes into; a fresh one when None.

        The loss value is objective.loss_parts on the batch's progression
        and ungradability probabilities; gradients are the exact
        (unclamped) BCE gradients.
        """
        n = img1.shape[0]
        feat, cache = _encode_pairs(self.encoder, img1, img2, ws)
        z_state, z_other = self._heads(feat)
        z1, z2 = z_state[:n], z_state[n:]
        delta = z1 - z2
        gamma = gamma_of(alpha_batch)
        p_state = sigmoid(gamma * delta)
        s1 = sigmoid(z_other[:n])
        s2 = sigmoid(z_other[n:])
        p_other = s1 + s2 - s1 * s2

        parts = objective.loss_parts(p_state, y_state, state_mask, p_other,
                                     y_other, alpha_batch, lam)

        # state head: d/du BCE(y, sigmoid(u)) = sigmoid(u) - y, masked
        g_u = np.where(state_mask, p_state - y_state, 0.0) / n
        d_delta = gamma * g_u
        d_alpha = delta * g_u * gamma * LN2 + lam * np.sign(alpha_batch) / n

        # other head: d/dz1 BCE(t, p) = (p - t) * s1 / p  (exact for the OR merge)
        safe_p = np.maximum(p_other, np.finfo(np.float64).tiny)
        d_other = (p_other - y_other) / (n * safe_p)
        d_o1 = d_other * s1
        d_o2 = d_other * s2

        dz_state = np.concatenate([d_delta, -d_delta])
        dz_other = np.concatenate([d_o1, d_o2])

        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        grads["head_state.w"] += dz_state @ feat
        grads["head_state.b"] += dz_state.sum(keepdims=True)
        grads["head_other.w"] += dz_other @ feat
        grads["head_other.b"] += dz_other.sum(keepdims=True)
        dfeat = (np.outer(dz_state, self.params["head_state.w"])
                 + np.outer(dz_other, self.params["head_other.w"]))
        self.encoder.backward(dfeat, cache, grads)

        if pair_ids is not None:
            dense = np.zeros(alpha_size)
            np.add.at(dense, pair_ids, d_alpha)
            grads["alpha"] = dense
        else:
            grads["alpha_batch"] = d_alpha
        return parts, grads


class NaiveModel(_PairModel):
    """4-way softmax comparator: one linear head on concatenated features."""

    kind = "naive"
    features = _PairModel.features

    @staticmethod
    def init(config: EncoderConfig, rng: np.random.Generator) -> "NaiveModel":
        encoder = ConvEncoder.init(config, rng)
        return NaiveModel(encoder, _init_heads(NaiveModel.head_shapes(config), rng))

    @staticmethod
    def head_shapes(config: EncoderConfig) -> dict:
        return {"head_cls.w": (4, 2 * config.feature_dim), "head_cls.b": (4,)}

    def embed(self, images):
        """Per-image rows that pair_head reads: the feature vectors, (N, F)."""
        return self.features(images)

    def pair_head(self, rows1, rows2):
        """Class probabilities {"probs": (N, 4)} in labels.LABELS order from
        the embed() rows of the first and second images."""
        both = np.concatenate([rows1, rows2], axis=1)
        logits = both @ self.params["head_cls.w"].T + self.params["head_cls.b"]
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        return {"probs": e / e.sum(axis=1, keepdims=True)}

    def predict_pairs(self, img1, img2):
        """Class probabilities (N, 4): pair_head over one encoding of the
        stacked images."""
        n = img1.shape[0]
        rows = self.embed(np.concatenate([img1, img2], axis=0))
        return self.pair_head(rows[:n], rows[n:])

    def loss_and_grads(self, img1, img2, class_index, *, ws=None):
        """Mean categorical cross-entropy and parameter gradients; ws as for
        SiameseModel.loss_and_grads."""
        n = img1.shape[0]
        feat, cache = _encode_pairs(self.encoder, img1, img2, ws)
        both = np.concatenate([feat[:n], feat[n:]], axis=1)
        logits = both @ self.params["head_cls.w"].T + self.params["head_cls.b"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        logp = shifted - logz
        loss = -logp[np.arange(n), class_index].mean()

        dlogits = np.exp(logp)
        dlogits[np.arange(n), class_index] -= 1.0
        dlogits /= n
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        grads["head_cls.w"] += dlogits.T @ both
        grads["head_cls.b"] += dlogits.sum(axis=0)
        dboth = dlogits @ self.params["head_cls.w"]
        f = feat.shape[1]
        dfeat = np.concatenate([dboth[:, :f], dboth[:, f:]], axis=0)
        self.encoder.backward(dfeat, cache, grads)
        return {"loss": float(loss)}, grads


# model kind, as train_fold takes it and checkpoints store it -> class
MODELS = {cls.kind: cls for cls in (SiameseModel, NaiveModel)}


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, model, alpha_table: AlphaTable | None = None,
                    meta: dict | None = None) -> None:
    """Self-describing .npz checkpoint: parameters, alpha table, JSON meta."""
    header = {
        "format_version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "encoder": model.config.to_dict(),
        "param_count": model.param_count(),
    }
    if meta:
        header.update(meta)
    arrays = {f"param/{k}": v for k, v in model.params.items()}
    if alpha_table is not None:
        arrays["alpha"] = alpha_table.values
    arrays["meta"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Returns (model, alpha_table_or_None, meta dict).

    Raises DataError for a file that is not an npz archive holding JSON
    meta, an unsupported format version or model kind, and for parameters
    whose names or shapes disagree with the stored encoder config.
    """
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            params = {k[len("param/"):]: data[k] for k in data.files
                      if k.startswith("param/")}
            alpha = AlphaTable(data["alpha"]) if "alpha" in data.files else None
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as e:
        raise DataError(f"{path}: not a readable checkpoint: {e}") from e
    if not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint meta is not a JSON object")
    if meta.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint version {meta.get('format_version')!r}")
    cls = MODELS.get(meta.get("kind"))
    if cls is None:
        raise DataError(f"{path}: unknown model kind {meta.get('kind')!r}")
    try:
        config = EncoderConfig.from_dict(meta["encoder"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: invalid encoder config: {e}") from e
    enc_shapes = ConvEncoder.param_shapes(config)
    expected = {**enc_shapes, **cls.head_shapes(config)}
    missing = sorted(expected.keys() - params.keys())
    unexpected = sorted(params.keys() - expected.keys())
    if missing or unexpected:
        raise DataError(f"{path}: parameters do not match a {meta['kind']} model: "
                        f"missing {missing}, unexpected {unexpected}")
    wrong = [f"{k} {params[k].shape} (config wants {shape})"
             for k, shape in expected.items() if params[k].shape != shape]
    if wrong:
        raise DataError(f"{path}: parameter shapes disagree with the encoder "
                        f"config: {', '.join(wrong)}")
    encoder = ConvEncoder(config, {k: params[k] for k in enc_shapes})
    heads = {k: v for k, v in params.items() if k not in enc_shapes}
    return cls(encoder, heads), alpha, meta
