"""Synthetic OCT-like cohort with a latent scalar severity per scan.

Imaging model
-------------
Every scan is a fixed horizontally striped background plus up to BLOB_SLOTS
bright elliptical lesions. Lesion slot i holds a blob whose area fills up
linearly while severity crosses (i, i+1] and then stays, so both the active
blob count and the total lesion area grow monotonically with severity and
blob masks are nested for a fixed random stream. The expected total lesion
area is blob_area_per_severity * severity, which makes the severity -> area
map invertible in expectation (severity = area / blob_area_per_severity).
Gaussian pixel noise is added last, from the same stream position
regardless of severity.

Cohort model
------------
Each patient has a per-visit severity following a clipped Gaussian random
walk; each scan in a volume adds small Gaussian jitter to the visit
severity. Pairs are consecutive-visit scans at the same scan index
(registered by construction). Pair labels compare the latent severities
with a stable half-width tau; with probability other_rate one image of the
pair is corrupted (heavy salt-and-pepper plus contrast collapse) and the
pair is labeled OTHER, else with probability flip_rate the label is
replaced by one of the other two progression labels.

All randomness derives from one 64-bit seed through numpy SeedSequence
spawning (PCG64), with one independent branch per patient, so generation
is deterministic and safe to parallelize patient-wise.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import labels
from .errors import ConfigError, DataError
from .pgm import write_pgm

BLOB_SLOTS = 10
BLOB_ADD = 80.0                 # gray levels added inside a lesion
SALT_PEPPER_FRACTION = 0.25
CONTRAST_COLLAPSE = 0.25


@dataclass(frozen=True)
class CohortConfig:
    n_patients: int = 40
    visits_per_patient: int = 8
    scans_per_volume: int = 8
    image_height: int = 32
    image_width: int = 64
    tau: float = 1.0                  # stable half-width in severity units
    flip_rate: float = 0.0            # P(progression label replaced)
    other_rate: float = 0.05          # P(one image corrupted, label OTHER)
    scan_jitter: float = 0.1          # std of per-scan severity jitter
    severity_step: float = 1.5        # std of the per-visit random walk
    severity_max: float = 10.0
    blob_area_per_severity: float = 14.0  # px^2 of lesion per severity unit
    noise_std: float = 6.0            # additive pixel noise, gray levels
    seed: int = 0

    def __post_init__(self):
        for name in ("n_patients", "visits_per_patient", "scans_per_volume"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.image_height < 16 or self.image_width < 16:
            raise ConfigError("image dimensions must be >= 16")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        for name in ("flip_rate", "other_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.scan_jitter < 0 or self.severity_step < 0:
            raise ConfigError("jitter and step must be nonnegative")
        if self.severity_max <= 0:
            raise ConfigError("severity_max must be positive")

    def to_dict(self):
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d):
        return CohortConfig(**d)


@dataclass(frozen=True)
class LatentState:
    patient_id: int
    visit_index: int
    scan_index: int
    severity: float


@dataclass(frozen=True)
class PairRecord:
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
    severity_1: float
    severity_2: float


@dataclass
class SyntheticCohort:
    config: CohortConfig
    images: dict                 # relative path -> uint8 (H, W)
    image_meta: dict             # relative path -> LatentState
    pairs: list                  # list[PairRecord]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def background(height: int, width: int) -> np.ndarray:
    """Fixed horizontal layer stripes, float64 gray levels."""
    rows = (np.arange(height) + 0.5) / height
    profile = np.full(height, 28.0)
    profile[(rows >= 0.20) & (rows < 0.30)] = 95.0
    profile[(rows >= 0.38) & (rows < 0.44)] = 150.0
    profile[(rows >= 0.55) & (rows < 0.70)] = 70.0
    return np.repeat(profile[:, None], width, axis=1)


def blob_fill(severity: float) -> np.ndarray:
    """Per-slot fill fraction in [0, 1]; slot i fills over (i, i+1]."""
    s = min(max(severity, 0.0), float(BLOB_SLOTS))
    return np.clip(s - np.arange(BLOB_SLOTS), 0.0, 1.0)


def render_bscan(state: LatentState, rng: np.random.Generator,
                 config: CohortConfig) -> np.ndarray:
    """Render one scan as uint8 (H, W).

    Blob geometry and the noise field are drawn in a severity-independent
    order, so two renders from identically seeded generators differ only in
    blob radii: higher severity strictly extends the painted lesion area.
    """
    h, w = config.image_height, config.image_width
    canvas = background(h, w)

    weights = rng.uniform(0.85, 1.15, size=BLOB_SLOTS)
    cy = rng.uniform(0.15 * h, 0.85 * h, size=BLOB_SLOTS)
    cx = rng.uniform(0.10 * w, 0.90 * w, size=BLOB_SLOTS)
    aspect = rng.uniform(0.35, 0.75, size=BLOB_SLOTS)    # ry / rx
    noise = rng.normal(0.0, config.noise_std, size=(h, w)) if config.noise_std > 0 \
        else np.zeros((h, w))

    fill = blob_fill(state.severity)
    yy = np.arange(h)[:, None] + 0.5
    xx = np.arange(w)[None, :] + 0.5
    for i in range(BLOB_SLOTS):
        if fill[i] <= 0:
            continue
        area = config.blob_area_per_severity * weights[i] * fill[i]
        rx = math.sqrt(area / (math.pi * aspect[i]))
        ry = rx * aspect[i]
        inside = ((yy - cy[i]) / ry) ** 2 + ((xx - cx[i]) / rx) ** 2 <= 1.0
        canvas[inside] += BLOB_ADD

    out = np.clip(canvas + noise, 0.0, 255.0)
    return np.rint(out).astype(np.uint8)


def corrupt_bscan(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Heavy degradation marking an image ungradable.

    Contrast collapses toward the mean, then a quarter of the pixels are
    replaced by salt or pepper; the result is detectable from the single
    image alone.
    """
    img = image.astype(np.float64)
    mean = img.mean()
    img = mean + CONTRAST_COLLAPSE * (img - mean)
    n_pix = img.size
    n_sp = int(round(SALT_PEPPER_FRACTION * n_pix))
    flat_idx = rng.choice(n_pix, size=n_sp, replace=False)
    values = np.where(rng.random(n_sp) < 0.5, 0.0, 255.0)
    flat = img.reshape(-1)
    flat[flat_idx] = values
    return np.rint(np.clip(flat.reshape(img.shape), 0.0, 255.0)).astype(np.uint8)


# ---------------------------------------------------------------------------
# labels and cohort assembly
# ---------------------------------------------------------------------------

def clean_label(s1: float, s2: float, tau: float) -> str:
    """Pure threshold label: BETTER if severity dropped by >= tau at the
    second visit, WORSE if it rose by >= tau, else STABLE."""
    diff = s2 - s1
    if diff <= -tau:
        return labels.BETTER
    if diff >= tau:
        return labels.WORSE
    return labels.STABLE


def label_pair(s1: float, s2: float, config: CohortConfig,
               rng: np.random.Generator):
    """Noisy pair label. Returns (label, clean_label, corrupt_side).

    corrupt_side is None, 0 or 1; when not None the label is OTHER and the
    indicated image of the pair should be corrupted.
    """
    if not (math.isfinite(s1) and math.isfinite(s2)):
        raise ConfigError(f"severities must be finite, got {s1}, {s2}")
    clean = clean_label(s1, s2, config.tau)
    if rng.random() < config.other_rate:
        return labels.OTHER, clean, int(rng.integers(2))
    label = clean
    if rng.random() < config.flip_rate:
        others = [c for c in labels.PROGRESSION_LABELS if c != clean]
        label = others[int(rng.integers(len(others)))]
    return label, clean, None


def _image_key(patient_id, visit, scan, variant=None):
    name = f"p{patient_id:03d}_v{visit:02d}_s{scan:02d}"
    if variant is not None:
        name += f"_c{variant}"
    return f"images/{name}.pgm"


def gen_cohort(config: CohortConfig) -> SyntheticCohort:
    """Generate the full cohort: latent walks, rendered scans, labeled pairs."""
    root = np.random.SeedSequence(config.seed)
    patient_seeds = root.spawn(config.n_patients)

    images: dict = {}
    image_meta: dict = {}
    pairs: list = []
    pair_id = 0
    smax = config.severity_max

    for pid in range(config.n_patients):
        walk_ss, label_ss, render_ss = patient_seeds[pid].spawn(3)
        walk_rng = np.random.default_rng(walk_ss)
        label_rng = np.random.default_rng(label_ss)
        render_seeds = render_ss.spawn(config.visits_per_patient)

        severity = walk_rng.uniform(0.2 * smax, 0.8 * smax)
        scan_sev = np.empty((config.visits_per_patient, config.scans_per_volume))
        for v in range(config.visits_per_patient):
            if v > 0:
                severity = float(np.clip(
                    severity + walk_rng.normal(0.0, config.severity_step), 0.0, smax))
            jitter = (walk_rng.normal(0.0, config.scan_jitter,
                                      size=config.scans_per_volume)
                      if config.scan_jitter > 0 else np.zeros(config.scans_per_volume))
            scan_sev[v] = np.clip(severity + jitter, 0.0, smax)
            scan_rngs = [np.random.default_rng(s)
                         for s in render_seeds[v].spawn(config.scans_per_volume)]
            for s in range(config.scans_per_volume):
                state = LatentState(pid, v, s, float(scan_sev[v, s]))
                key = _image_key(pid, v, s)
                images[key] = render_bscan(state, scan_rngs[s], config)
                image_meta[key] = state

        for v in range(config.visits_per_patient - 1):
            for s in range(config.scans_per_volume):
                s1 = float(scan_sev[v, s])
                s2 = float(scan_sev[v + 1, s])
                label, clean, corrupt_side = label_pair(s1, s2, config, label_rng)
                key1 = _image_key(pid, v, s)
                key2 = _image_key(pid, v + 1, s)
                flags = [False, False]
                if corrupt_side is not None:
                    flags[corrupt_side] = True
                    base = key1 if corrupt_side == 0 else key2
                    variant_key = _image_key(pid, v + corrupt_side, s, variant=pair_id)
                    images[variant_key] = corrupt_bscan(images[base], label_rng)
                    image_meta[variant_key] = image_meta[base]
                    if corrupt_side == 0:
                        key1 = variant_key
                    else:
                        key2 = variant_key
                pairs.append(PairRecord(
                    pair_id=pair_id, img1=key1, img2=key2,
                    label=label, clean_label=clean,
                    patient_id=pid, visit_from=v, visit_to=v + 1,
                    scan_index=s, corrupted_flags=tuple(flags),
                    severity_1=s1, severity_2=s2,
                ))
                pair_id += 1

    return SyntheticCohort(config=config, images=images,
                           image_meta=image_meta, pairs=pairs)


@dataclass
class ActivitySet:
    """Single images with a binary activity label (severity >= cutoff)."""
    images: np.ndarray           # (N, H, W) uint8
    severities: np.ndarray       # (N,)
    active: np.ndarray           # (N,) bool
    cutoff: float


def gen_activity_set(n_images: int, config: CohortConfig, seed: int,
                     cutoff: float | None = None) -> ActivitySet:
    """Out-of-distribution single-image set for few-shot calibration."""
    if n_images < 2:
        raise ConfigError("need at least 2 images")
    if cutoff is None:
        cutoff = config.severity_max / 2.0
    root = np.random.SeedSequence(seed)
    sev_rng = np.random.default_rng(root.spawn(1)[0])
    severities = sev_rng.uniform(0.0, config.severity_max, size=n_images)
    render_seeds = root.spawn(n_images + 1)[1:]
    imgs = np.empty((n_images, config.image_height, config.image_width), dtype=np.uint8)
    for i in range(n_images):
        state = LatentState(-1, 0, i, float(severities[i]))
        imgs[i] = render_bscan(state, np.random.default_rng(render_seeds[i]), config)
    return ActivitySet(images=imgs, severities=severities,
                       active=severities >= cutoff, cutoff=float(cutoff))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_dataset(cohort: SyntheticCohort, directory) -> Path:
    """Write images (PGM), manifest.jsonl, config.json and latents.jsonl.

    Returns the manifest path. Manifest records follow pair_id order; the
    latents sidecar carries the ground-truth severities for evaluation.
    """
    directory = Path(directory)
    try:
        (directory / "images").mkdir(parents=True, exist_ok=True)
        for key in sorted(cohort.images):
            write_pgm(directory / key, cohort.images[key])

        manifest_path = directory / "manifest.jsonl"
        with open(manifest_path, "w", encoding="utf-8") as f:
            for p in cohort.pairs:
                f.write(json.dumps({
                    "pair_id": p.pair_id, "img1": p.img1, "img2": p.img2,
                    "label": p.label, "clean_label": p.clean_label,
                    "patient_id": p.patient_id,
                    "visit_from": p.visit_from, "visit_to": p.visit_to,
                    "scan_index": p.scan_index,
                    "corrupted_flags": list(p.corrupted_flags),
                }, sort_keys=True) + "\n")

        with open(directory / "config.json", "w", encoding="utf-8") as f:
            json.dump(cohort.config.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

        with open(directory / "latents.jsonl", "w", encoding="utf-8") as f:
            for key in sorted(cohort.image_meta):
                st = cohort.image_meta[key]
                f.write(json.dumps({
                    "image": key, "patient_id": st.patient_id,
                    "visit_index": st.visit_index, "scan_index": st.scan_index,
                    "severity": st.severity,
                }, sort_keys=True) + "\n")
    except OSError as e:
        raise DataError(f"failed writing dataset under {directory}: {e}") from e
    return manifest_path
