"""Analyses on trained models: continuous-score exports, slope/noise reports,
severity recovery, and few-shot threshold calibration on single images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.stats

from . import labels
from .errors import ConfigError
from .model import AlphaTable
from .nn import sigmoid
from .pipeline import Dataset


# ---------------------------------------------------------------------------
# batched scoring
# ---------------------------------------------------------------------------

# Images per encoder forward pass. The conv blocks inside it run in tiles
# (nn._tile_images), but the feature layer is one matrix product
# over all of the pass's rows, and BLAS can round a row differently with a
# different row count: a new value changes the bits of every eval output.
ENCODE_BATCH = 256
PERMUTATION_BLOCK = 256     # permutations scored per matrix product


def embed_batched(model, images):
    """model.embed over an (N, 1, H, W) image stack, ENCODE_BATCH images per
    forward pass, so peak memory does not grow with N."""
    return np.concatenate([model.embed(images[start:start + ENCODE_BATCH])
                           for start in range(0, len(images), ENCODE_BATCH)])


def encode_images(model, dataset: Dataset, keys, cache: dict | None = None) -> dict:
    """Per-image rows (model.embed) for the given image keys.

    `cache` maps image key -> row for one checkpoint; only keys it lacks are
    encoded, in sorted order and ENCODE_BATCH images per forward pass, so
    batch membership depends on the inputs alone. Returns the cache, a new
    dict when none is given.
    """
    cache = {} if cache is None else cache
    todo = sorted(set(keys).difference(cache))
    for start in range(0, len(todo), ENCODE_BATCH):
        chunk = todo[start:start + ENCODE_BATCH]
        imgs = np.stack([dataset.load_image(k) for k in chunk])[:, None] / 255.0
        cache.update(zip(chunk, model.embed(imgs)))
    return cache


def _gather(cache: dict, keys):
    return np.array([cache[k] for k in keys])


def pair_scores(model, dataset: Dataset, indices, cache: dict | None = None) -> dict:
    """Model outputs over dataset pairs, inference slope fixed at 1.

    Each image is encoded once into `cache` (see encode_images); pair
    scores are the model's pair_head over the gathered per-image rows, so
    swapping the images of a pair negates its delta exactly. Returns arrays
    in the order of `indices`: for a SiameseModel z_state_1/2, z_other_1/2,
    delta, prob_progression and prob_other; for the naive 4-way model
    {"probs"} of shape (N, 4).
    """
    first = [dataset.pairs[i].img1 for i in indices]
    second = [dataset.pairs[i].img2 for i in indices]
    cache = encode_images(model, dataset, first + second, cache)
    return model.pair_head(_gather(cache, first), _gather(cache, second))


class SeverityOracle:
    """Ground-truth stand-in model built from the latent severities.

    State logits are proportional to severity, scaled so the progression
    probability crosses 0.975 exactly at the stable half-width; a corrupted
    image forces the ungradability probability to ~1. Used to validate the
    evaluation path end to end.
    """

    kind = "oracle"

    def __init__(self, dataset: Dataset, tau: float):
        if dataset.latents is None:
            raise ConfigError("oracle needs the latents.jsonl sidecar")
        self.dataset = dataset
        self.scale = float(np.log(0.975 / 0.025)) / tau

    def scores_for(self, indices) -> dict:
        n = len(indices)
        z1 = np.empty(n)
        z2 = np.empty(n)
        p_other = np.empty(n)
        for row, i in enumerate(indices):
            p = self.dataset.pairs[i]
            z1[row] = self.scale * self.dataset.latents[p.img1]
            z2[row] = self.scale * self.dataset.latents[p.img2]
            p_other[row] = 0.999 if any(p.corrupted_flags) else 0.001
        delta = z1 - z2
        return {"z_state_1": z1, "z_state_2": z2, "delta": delta,
                "prob_progression": sigmoid(delta), "prob_other": p_other}


def export_delta_scatter(model, dataset: Dataset, indices=None,
                         cache: dict | None = None) -> list:
    """Per-pair rows (pair_id, delta, prob_other, label, clean_label) for
    external plotting of the continuous progression scale.

    `model` is a SiameseModel, scored through pair_scores with `cache`, or
    a SeverityOracle.
    """
    if indices is None:
        indices = np.arange(len(dataset))
    if isinstance(model, SeverityOracle):
        scores = model.scores_for(indices)
    else:
        scores = pair_scores(model, dataset, indices, cache=cache)
    rows = []
    for row, i in enumerate(indices):
        p = dataset.pairs[i]
        rows.append({"pair_id": p.pair_id,
                     "delta": float(scores["delta"][row]),
                     "prob_other": float(scores["prob_other"][row]),
                     "label": p.label, "clean_label": p.clean_label})
    return rows


# ---------------------------------------------------------------------------
# slope vs. adjacent-scan label disagreement
# ---------------------------------------------------------------------------

GAMMA_GROUPS = ("better_worse", "better_stable", "worse_stable", "same_label")

_GROUP_OF = {
    frozenset((labels.BETTER, labels.WORSE)): "better_worse",
    frozenset((labels.BETTER, labels.STABLE)): "better_stable",
    frozenset((labels.WORSE, labels.STABLE)): "worse_stable",
}


@dataclass
class GammaReport:
    threshold: float
    groups: dict          # name -> {"n", "below", "fraction"}
    gamma_mean: float
    gamma_min: float
    gamma_max: float

    def to_dict(self):
        return {"threshold": self.threshold, "groups": self.groups,
                "gamma_mean": self.gamma_mean, "gamma_min": self.gamma_min,
                "gamma_max": self.gamma_max}


def gamma_adjacency_report(alpha_table: AlphaTable, dataset: Dataset,
                           threshold: float = 0.85, indices=None) -> GammaReport:
    """Group pairs by how their label compares to scan-adjacent pairs and
    report the fraction of low learned slopes per group.

    Two pairs are adjacent when they share patient and visit pair and their
    scan indices differ by one. A progression-labeled pair joins one group
    per distinct disagreeing neighbor label, or the same_label group when
    every neighbor agrees. Pairs labeled OTHER or without neighbors are
    skipped.
    """
    if indices is None:
        indices = range(len(dataset))
    by_slot = {}
    chosen = []
    for i in indices:
        p = dataset.pairs[i]
        if p.label in labels.PROGRESSION_LABELS:
            by_slot[(p.patient_id, p.visit_from, p.visit_to, p.scan_index)] = p
            chosen.append(p)
    if not by_slot:
        raise ConfigError("no progression-labeled pairs with adjacency info")

    membership = {name: [] for name in GAMMA_GROUPS}
    found_any = False
    for p in chosen:
        neighbor_labels = set()
        for ds in (-1, 1):
            n = by_slot.get((p.patient_id, p.visit_from, p.visit_to,
                             p.scan_index + ds))
            if n is not None:
                neighbor_labels.add(n.label)
        if not neighbor_labels:
            continue
        found_any = True
        gamma = alpha_table.gamma(p.pair_id)
        disagreeing = neighbor_labels - {p.label}
        if not disagreeing:
            membership["same_label"].append(gamma)
        for other in disagreeing:
            membership[_GROUP_OF[frozenset((p.label, other))]].append(gamma)
    if not found_any:
        raise ConfigError("dataset has no scan adjacency")

    groups = {}
    for name in GAMMA_GROUPS:
        gammas = np.array(membership[name])
        below = int((gammas < threshold).sum()) if gammas.size else 0
        groups[name] = {"n": int(gammas.size), "below": below,
                        "fraction": float(below / gammas.size) if gammas.size else 0.0}
    all_gamma = alpha_table.gammas()
    return GammaReport(threshold=threshold, groups=groups,
                       gamma_mean=float(all_gamma.mean()),
                       gamma_min=float(all_gamma.min()),
                       gamma_max=float(all_gamma.max()))


# ---------------------------------------------------------------------------
# severity recovery
# ---------------------------------------------------------------------------

def severity_recovery(model, dataset: Dataset, patient_ids, rng=None,
                      n_permutations: int = 2000, cache: dict | None = None) -> dict:
    """Spearman correlation between per-image state logits of a SiameseModel
    and the latent severities for the given patients, with a permutation
    p-value when `rng` is given. Images are encoded into `cache` as in
    pair_scores."""
    if n_permutations < 1:
        raise ConfigError(f"n_permutations must be >= 1, got {n_permutations}")
    if dataset.latents is None:
        raise ConfigError("severity recovery needs the latents.jsonl sidecar")
    keys = sorted({k for pid in patient_ids
                   for i in dataset.patient_index.get(pid, ())
                   for k in (dataset.pairs[i].img1, dataset.pairs[i].img2)})
    cache = encode_images(model, dataset, keys, cache)
    z_state = _gather(cache, keys)[:, 0]
    severity = np.array([dataset.latents[k] for k in keys])

    rho = float(scipy.stats.spearmanr(z_state, severity).statistic)
    result = {"n_images": len(keys), "spearman": rho, "spearman_abs": abs(rho)}
    if rng is not None:
        result["permutation_p"] = _permutation_p(z_state, severity, rng,
                                                 n_permutations)
    return result


def _permutation_p(x, y, rng: np.random.Generator, n_permutations: int) -> float:
    """Two-sided permutation p-value of the Spearman correlation of x and y.

    Permutation t is y after t cumulative rng.shuffle calls. Spearman's rho
    is Pearson's r of the ranks, whose norms do not change under
    permutation, so every permutation is scored by the dot product of the
    centred ranks. Ranks are multiples of 1/2: doubled, every product and
    partial sum is an integer that float64 holds exactly while
    n * (n - 1)**2 < 2**53 (n up to ~2e5), so a permutation as extreme as
    the observed order, the identity included, counts exactly.
    """
    n = len(x)
    a = 2.0 * scipy.stats.rankdata(x) - (n + 1)
    b = 2.0 * scipy.stats.rankdata(y) - (n + 1)
    observed = abs(a @ b)
    order = np.arange(n)
    count = 0
    for start in range(0, n_permutations, PERMUTATION_BLOCK):
        block = np.empty((min(PERMUTATION_BLOCK, n_permutations - start), n),
                         dtype=order.dtype)
        for row in block:
            rng.shuffle(order)
            row[:] = order
        count += int(np.count_nonzero(np.abs(b[block] @ a) >= observed))
    return (count + 1) / (n_permutations + 1)


# ---------------------------------------------------------------------------
# few-shot calibration on single-image state logits
# ---------------------------------------------------------------------------

def balanced_accuracy(pred_active, is_active) -> float:
    pred_active = np.asarray(pred_active, dtype=bool)
    is_active = np.asarray(is_active, dtype=bool)
    pos = is_active.sum()
    neg = (~is_active).sum()
    if pos == 0 or neg == 0:
        raise ConfigError("balanced accuracy needs both classes")
    tpr = (pred_active & is_active).sum() / pos
    tnr = (~pred_active & ~is_active).sum() / neg
    return float(0.5 * (tpr + tnr))


def _apply_threshold(z, threshold, orientation):
    return z > threshold if orientation > 0 else z < threshold


def _best_threshold(cand, eval_z, eval_active, tie_center):
    best = None
    for thr in cand:
        for orientation in (1, -1):
            acc = balanced_accuracy(_apply_threshold(eval_z, thr, orientation),
                                    eval_active)
            dist = abs(thr - tie_center) if np.isfinite(thr) else np.inf
            key = (-acc, dist, thr, -orientation)
            if best is None or key < best[0]:
                best = (key, thr, orientation, acc)
    return best[1], best[2], best[3]


def _candidate_thresholds(z):
    """Both infinities plus the midpoints of consecutive distinct values."""
    uniq = np.unique(z)
    return [-np.inf, np.inf] + [float(0.5 * (a + b))
                                for a, b in zip(uniq[:-1], uniq[1:])]


def _draw_shots(is_active, k: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of k inactive then k active examples, drawn without
    replacement by one rng.choice per class in that order."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    shot_idx = []
    for name, mask in (("inactive", ~is_active), ("active", is_active)):
        avail = np.flatnonzero(mask)
        if len(avail) < k:
            raise ConfigError(
                f"class {name!r} has only {len(avail)} examples, need k={k}")
        shot_idx.append(rng.choice(avail, size=k, replace=False))
    return np.concatenate(shot_idx)


def fewshot_threshold(z, is_active, k: int, rng: np.random.Generator):
    """Pick a 1-D threshold and orientation from k examples per class.

    Candidates are the midpoints of consecutive sorted shot values plus the
    two infinities; the pair (threshold, orientation) maximizing balanced
    accuracy on the shots wins, ties resolved toward the midpoint closest
    to the shot median. Returns (threshold, orientation, shot_indices);
    orientation +1 means active above the threshold.
    """
    z = np.asarray(z, dtype=np.float64)
    is_active = np.asarray(is_active, dtype=bool)
    shot_idx = _draw_shots(is_active, k, rng)
    shot_z = z[shot_idx]
    thr, orient, _ = _best_threshold(_candidate_thresholds(shot_z), shot_z,
                                     is_active[shot_idx], float(np.median(shot_z)))
    return thr, orient, shot_idx


def _curve(k_list, repetitions: int, accuracy) -> list:
    """One row {k, mean, std, accs} per k over `repetitions` calls of
    accuracy(k), in k then repetition order."""
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    if len(k_list) == 0:
        raise ConfigError("k_list must name at least one k")
    rows = []
    for k in k_list:
        accs = np.array([accuracy(k) for _ in range(repetitions)])
        rows.append({"k": int(k), "mean": float(accs.mean()),
                     "std": float(accs.std()), "accs": accs})
    return rows


def fewshot_curve(z, is_active, k_list, repetitions: int, rng: np.random.Generator):
    """Balanced accuracy of few-shot threshold calibration, evaluated on the
    non-shot remainder; one row {k, mean, std, accs} per k."""
    def accuracy(k):
        thr, orient, shot_idx = fewshot_threshold(z, is_active, k, rng)
        rest = np.setdiff1d(np.arange(len(z)), shot_idx)
        return balanced_accuracy(_apply_threshold(z[rest], thr, orient),
                                 is_active[rest])
    return _curve(k_list, repetitions, accuracy)


# ---------------------------------------------------------------------------
# logistic-regression baseline on feature vectors
# ---------------------------------------------------------------------------

def fit_logistic(features, is_active, l2: float = 1e-2):
    """Ridge-regularized logistic regression via L-BFGS; deterministic."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(is_active, dtype=np.float64)
    n, d = x.shape

    def loss_grad(wb):
        w, b = wb[:d], wb[d]
        u = x @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(u, -700, 700)))
        nll = float(np.mean(np.logaddexp(0.0, u) - y * u))
        reg = 0.5 * l2 * float(w @ w)
        g = (p - y) / n
        return nll + reg, np.concatenate([x.T @ g + l2 * w, [g.sum()]])

    res = scipy.optimize.minimize(loss_grad, np.zeros(d + 1), jac=True,
                                  method="L-BFGS-B",
                                  options={"maxiter": 200, "ftol": 1e-12})
    return res.x[:d], float(res.x[d])


def fewshot_curve_logistic(features, is_active, k_list, repetitions: int,
                           rng: np.random.Generator):
    """Few-shot curve for the logistic-on-features comparison baseline."""
    features = np.asarray(features, dtype=np.float64)
    is_active = np.asarray(is_active, dtype=bool)

    def accuracy(k):
        shot_idx = _draw_shots(is_active, k, rng)
        w, b = fit_logistic(features[shot_idx], is_active[shot_idx])
        rest = np.setdiff1d(np.arange(len(is_active)), shot_idx)
        return balanced_accuracy(features[rest] @ w + b > 0, is_active[rest])
    return _curve(k_list, repetitions, accuracy)
