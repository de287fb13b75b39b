"""Dataset loading, patient-wise splits, paired augmentation, balanced sampling.

A dataset is a JSONL manifest of labeled image pairs plus PGM files on
disk. Images load lazily and are cached; everything after load_dataset is
read-only and safe to share across threads. Split shuffling and sampling
use numpy's PCG64 generator seeded explicitly, so every split and sample
stream is reproducible from its seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import labels
from .errors import ConfigError, DataError
from .pgm import read_pgm, read_pgm_size

MANIFEST_FIELDS = ("pair_id", "img1", "img2", "label", "clean_label",
                   "patient_id", "visit_from", "visit_to", "scan_index",
                   "corrupted_flags")


@dataclass(frozen=True)
class PairSample:
    pair_id: int
    img1: str
    img2: str
    label: str
    clean_label: str
    patient_id: int
    visit_from: int
    visit_to: int
    scan_index: int
    corrupted_flags: tuple


@dataclass
class Dataset:
    root: Path
    pairs: list
    image_size: tuple                     # (H, W), the maximum over the store
    patient_index: dict                   # patient_id -> list of pair indices
    label_counts: dict                    # label -> count
    latents: dict | None = None           # image path -> severity, if available
    _cache: dict = field(default_factory=dict, repr=False)

    def __len__(self):
        return len(self.pairs)

    @property
    def patients(self):
        return sorted(self.patient_index)

    def load_image(self, key: str) -> np.ndarray:
        """Image as uint8 (H, W); smaller rasters are zero-padded (top-left
        anchored) to the dataset's maximum dimensions."""
        img = self._cache.get(key)
        if img is None:
            img = read_pgm(self.root / key)
            h, w = self.image_size
            if img.shape != (h, w):
                padded = np.zeros((h, w), dtype=np.uint8)
                padded[:img.shape[0], :img.shape[1]] = img
                img = padded
            self._cache[key] = img
        return img

    def pair_batch(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Image pairs as float64 in [0, 1], shape (N, 1, H, W) each."""
        h, w = self.image_size
        n = len(indices)
        x1 = np.empty((n, 1, h, w))
        x2 = np.empty((n, 1, h, w))
        for row, i in enumerate(indices):
            p = self.pairs[i]
            x1[row, 0] = self.load_image(p.img1)
            x2[row, 0] = self.load_image(p.img2)
        return x1 / 255.0, x2 / 255.0

    def labels_of(self, indices) -> list:
        return [self.pairs[i].label for i in indices]

    def indices_for_patients(self, patient_ids) -> np.ndarray:
        out = []
        for pid in patient_ids:
            out.extend(self.patient_index.get(pid, ()))
        return np.array(sorted(out), dtype=np.int64)


def load_dataset(manifest_path) -> Dataset:
    """Parse a manifest, validate every referenced image, index by patient.

    Every pair_id must be unique and lie in [0, number of records).

    Raster sizes may differ between files; the dataset presents every image
    zero-padded to the maximum dimensions.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise DataError(f"manifest not found: {manifest_path}")
    root = manifest_path.parent

    pairs = []
    with open(manifest_path, encoding="utf-8") as f:
        for i, line in enumerate(f):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"record {i}: malformed JSON line: {e}") from e
            missing = [k for k in MANIFEST_FIELDS if k not in rec]
            if missing:
                raise DataError(f"record {i}: missing fields {missing}")
            if rec["label"] not in labels.LABELS:
                raise DataError(f"record {i}: unknown label {rec['label']!r}")
            pairs.append(PairSample(
                pair_id=int(rec["pair_id"]), img1=rec["img1"], img2=rec["img2"],
                label=rec["label"], clean_label=rec["clean_label"],
                patient_id=int(rec["patient_id"]),
                visit_from=int(rec["visit_from"]), visit_to=int(rec["visit_to"]),
                scan_index=int(rec["scan_index"]),
                corrupted_flags=tuple(bool(x) for x in rec["corrupted_flags"]),
            ))
    if not pairs:
        raise DataError(f"{manifest_path}: empty manifest")
    # pair_ids index the per-pair slope table, one slot per record
    seen = set()
    for i, p in enumerate(pairs):
        if not 0 <= p.pair_id < len(pairs):
            raise DataError(f"record {i}: pair_id {p.pair_id} outside "
                            f"[0, {len(pairs)}) for {len(pairs)} records")
        if p.pair_id in seen:
            raise DataError(f"record {i}: duplicate pair_id {p.pair_id}")
        seen.add(p.pair_id)

    # differing raster sizes are allowed: images are zero-padded to the
    # maximum dimensions on load
    size = (0, 0)
    checked = set()
    for i, p in enumerate(pairs):
        for key in (p.img1, p.img2):
            if key in checked:
                continue
            path = root / key
            if not path.is_file():
                raise DataError(f"record {i}: image file missing: {path}")
            try:
                this = read_pgm_size(path)
            except ValueError as e:
                raise DataError(f"record {i}: unreadable image {path}: {e}") from e
            size = (max(size[0], this[0]), max(size[1], this[1]))
            checked.add(key)

    patient_index: dict = {}
    label_counts = {name: 0 for name in labels.LABELS}
    for i, p in enumerate(pairs):
        patient_index.setdefault(p.patient_id, []).append(i)
        label_counts[p.label] += 1

    latents = None
    latents_path = root / "latents.jsonl"
    if latents_path.is_file():
        latents = {}
        with open(latents_path, encoding="utf-8") as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    latents[rec["image"]] = float(rec["severity"])

    return Dataset(root=root, pairs=pairs, image_size=size,
                   patient_index=patient_index, label_counts=label_counts,
                   latents=latents)


# ---------------------------------------------------------------------------
# patient-wise split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldSpec:
    fold: int
    train_patients: tuple
    val_patients: tuple


@dataclass(frozen=True)
class SplitPlan:
    seed: int
    n_folds: int
    holdout_frac: float
    test_patients: tuple
    folds: tuple                      # tuple of tuples of patient ids

    def fold_spec(self, i: int) -> FoldSpec:
        val = self.folds[i]
        train = tuple(p for j, f in enumerate(self.folds) if j != i for p in f)
        return FoldSpec(fold=i, train_patients=tuple(sorted(train)),
                        val_patients=val)

    def to_dict(self):
        return {"seed": self.seed, "n_folds": self.n_folds,
                "holdout_frac": self.holdout_frac,
                "test_patients": list(self.test_patients),
                "folds": [list(f) for f in self.folds]}

    @staticmethod
    def from_dict(d):
        return SplitPlan(seed=d["seed"], n_folds=d["n_folds"],
                         holdout_frac=d["holdout_frac"],
                         test_patients=tuple(d["test_patients"]),
                         folds=tuple(tuple(f) for f in d["folds"]))


def split_patientwise(dataset: Dataset, n_folds: int = 5,
                      holdout_frac: float = 0.15, seed: int = 0) -> SplitPlan:
    """Shuffle patients (PCG64), set aside a test fraction, deal the rest
    round-robin into n_folds near-equal folds. No patient crosses groups."""
    if n_folds < 2:
        raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
    if not 0.0 <= holdout_frac < 1.0:
        raise ConfigError(f"holdout_frac must lie in [0, 1), got {holdout_frac}")
    patients = dataset.patients
    n = len(patients)
    n_test = max(1, round(holdout_frac * n)) if holdout_frac > 0 else 0
    if n - n_test < n_folds:
        raise ConfigError(
            f"too few patients: {n} total, {n_test} held out, {n_folds} folds")
    rng = np.random.default_rng(seed)
    perm = [patients[i] for i in rng.permutation(n)]
    test = tuple(sorted(perm[:n_test]))
    rest = perm[n_test:]
    folds = tuple(tuple(sorted(rest[i::n_folds])) for i in range(n_folds))
    return SplitPlan(seed=seed, n_folds=n_folds, holdout_frac=holdout_frac,
                     test_patients=test, folds=folds)


# ---------------------------------------------------------------------------
# paired augmentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentParams:
    out_height: int
    out_width: int
    crop_scale_min: float = 0.20
    crop_scale_max: float = 1.00
    hflip_prob: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.crop_scale_min <= self.crop_scale_max <= 1.0:
            raise ConfigError("need 0 < crop_scale_min <= crop_scale_max <= 1")
        if not 0.0 <= self.hflip_prob <= 1.0:
            raise ConfigError("hflip_prob must lie in [0, 1]")


def _crop_axis(start, size, out_size):
    """Per-row sample grid of one axis: half-pixel-centred bilinear sampling
    of `out_size` points over [start, start + size) with edge clamping.

    start, size: (N,) ints. Returns the absolute low and high source indices
    (N, out_size) and the weight of the high one.
    """
    size = size[:, None]
    pos = (np.arange(out_size) + 0.5) * (size / out_size) - 0.5
    lo = np.clip(np.floor(pos).astype(np.int64), 0, size - 1)
    hi = np.minimum(lo + 1, size - 1)
    frac = np.clip(pos - lo, 0.0, 1.0)
    return lo + start[:, None], hi + start[:, None], frac


def augment_pair(img1, img2, params: AugmentParams, rng: np.random.Generator):
    """One shared random crop + flip per pair, applied to both images.

    img1, img2: a batch of pairs, (N, 1, H, W) each; a 2-D (H, W) pair is a
    batch of one. Per row, in row order, the crop area fraction is drawn
    uniform in [crop_scale_min, crop_scale_max], then the crop's top and
    left corner, then the flip. Crop dimensions are rounded up, which keeps
    the realized area within the sampled bounds, and follow the output
    aspect ratio. Each crop is resized to the output size by
    half-pixel-centred bilinear sampling with edge clamping, which is the
    identity when crop and output sizes agree. Outputs are float64 and keep
    the leading dimensions of the inputs.
    """
    img1 = np.asarray(img1, dtype=np.float64)
    img2 = np.asarray(img2, dtype=np.float64)
    if img1.shape != img2.shape:
        raise ConfigError(f"pair images differ in shape: {img1.shape} vs {img2.shape}")
    h, w = img1.shape[-2:]
    n = img1.size // (h * w)
    out_h, out_w = params.out_height, params.out_width
    aspect = out_w / out_h
    draws = np.empty((4, n), dtype=np.int64)       # crop_h, crop_w, top, left
    flip = np.empty(n, dtype=bool)
    for row in range(n):
        area = rng.uniform(params.crop_scale_min, params.crop_scale_max) * h * w
        crop_h = min(h, math.ceil(math.sqrt(area / aspect)))
        crop_w = min(w, math.ceil(math.sqrt(area * aspect)))
        top = int(rng.integers(0, h - crop_h + 1))
        left = int(rng.integers(0, w - crop_w + 1))
        draws[:, row] = crop_h, crop_w, top, left
        flip[row] = rng.random() < params.hflip_prob
    crop_h, crop_w, top, left = draws

    y0, y1, wy = _crop_axis(top, crop_h, out_h)
    # a flipped row samples its columns right to left
    x0, x1, wx = (np.where(flip[:, None], v[:, ::-1], v)
                  for v in _crop_axis(left, crop_w, out_w))
    # flat source index of every output pixel, one array per bilinear corner
    rows = (np.arange(n) * h)[:, None, None]
    corners = [(rows + ys[:, :, None]) * w + xs[:, None, :]
               for ys in (y0, y1) for xs in (x0, x1)]
    wy = wy[:, :, None]
    wx = wx[:, None, :]
    shape = img1.shape[:-2] + (out_h, out_w)

    def resample(img):
        a, b, c, d = (img.take(idx) for idx in corners)
        out = (a * (1 - wy) * (1 - wx) + b * (1 - wy) * wx
               + c * wy * (1 - wx) + d * wy * wx)
        return out.reshape(shape)

    return resample(img1), resample(img2)


# ---------------------------------------------------------------------------
# balanced sampling
# ---------------------------------------------------------------------------

def class_weights(label_list) -> np.ndarray:
    """Per-item sampling weights proportional to 1 / class frequency,
    normalized to sum to one. Classes absent from the list get no mass."""
    if len(label_list) == 0:
        raise ConfigError("empty label list")
    counts: dict = {}
    for lbl in label_list:
        counts[lbl] = counts.get(lbl, 0) + 1
    w = np.array([1.0 / counts[lbl] for lbl in label_list])
    return w / w.sum()


def balanced_sampler(label_list, rng: np.random.Generator, chunk: int = 1024):
    """Infinite index stream, sampling with replacement so that every
    present class is drawn with equal expected frequency."""
    p = class_weights(label_list)
    n = len(label_list)
    while True:
        for i in rng.choice(n, size=chunk, p=p):
            yield int(i)
