"""Shared independent oracles and a kink-robust finite-difference check."""

import math

import numpy as np
import scipy.stats

from pairstate import evaluate, labels, nn, synthgen


def binary_mcc(cm):
    """Textbook two-class Matthews correlation from a 2x2 confusion matrix,
    rows true, columns predicted, class 0 treated as positive."""
    tp, fn = cm[0, 0], cm[0, 1]
    fp, tn = cm[1, 0], cm[1, 1]
    den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    if den == 0:
        return 0.0
    return (tp * tn - fp * fn) / den


def brute_force_suite(cm):
    """One-vs-rest macro metrics by explicit counting loops."""
    k = cm.shape[0]
    per = {"precision": [], "recall": [], "specificity": [], "f1": []}
    for c in range(k):
        tp = fp = fn = tn = 0
        for i in range(k):
            for j in range(k):
                n = cm[i, j]
                if i == c and j == c:
                    tp += n
                elif i == c:
                    fn += n
                elif j == c:
                    fp += n
                else:
                    tn += n
        per["precision"].append(tp / (tp + fp) if tp + fp else 0.0)
        per["recall"].append(tp / (tp + fn) if tp + fn else 0.0)
        per["specificity"].append(tn / (tn + fp) if tn + fp else 0.0)
        per["f1"].append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
    return {name: sum(vals) / k for name, vals in per.items()}


def classify_pair(prob_progression, prob_other, th):
    """Scalar reference for metrics.classify_many: OTHER wins over the
    progression classes; then the symmetric band. Returns the label."""
    if prob_other > th.t_other:
        return labels.OTHER
    if prob_progression < 0.5 - th.t:
        return labels.WORSE
    if prob_progression > 0.5 + th.t:
        return labels.BETTER
    return labels.STABLE


def optimal_threshold(z, is_active):
    """Best achievable threshold on the full data, the few-shot reference.

    Returns (threshold, orientation, balanced_accuracy)."""
    z = np.asarray(z, dtype=np.float64)
    return evaluate._best_threshold(
        evaluate._candidate_thresholds(z), z,
        np.asarray(is_active, dtype=bool), float(np.median(z)))


def active_blob_count(severity):
    """Number of lesion slots with nonzero area at this severity."""
    s = min(max(severity, 0.0), float(synthgen.BLOB_SLOTS))
    return int(math.ceil(s)) if s > 0 else 0


def central_diff_error(closure, array, index, analytic, steps=(1e-5, 1e-7)):
    """Relative error of an analytic gradient entry against central finite
    differences.

    The check is repeated at a smaller step when the first disagrees:
    crossing a ReLU/maxpool kink inflates the difference at one specific
    step size, while a genuinely wrong gradient fails at every step.
    Returns the smallest relative error observed.
    """
    flat = array.reshape(-1)
    best = np.inf
    for h in steps:
        orig = flat[index]
        flat[index] = orig + h
        up = closure()
        flat[index] = orig - h
        down = closure()
        flat[index] = orig
        fd = (up - down) / (2 * h)
        err = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-10)
        best = min(best, err)
        if best < 1e-6:
            break
    return best


def scalar_permutation_p(z_state, severity, rng, n_permutations):
    """Permutation p-value of the Spearman correlation, one scipy call per
    cumulative rng.shuffle of the severities: the reference for the
    vectorised test in evaluate.severity_recovery."""
    rho = float(scipy.stats.spearmanr(z_state, severity).statistic)
    count = 0
    shuffled = np.array(severity, dtype=np.float64)
    for _ in range(n_permutations):
        rng.shuffle(shuffled)
        r = abs(float(scipy.stats.spearmanr(z_state, shuffled).statistic))
        if r >= abs(rho):
            count += 1
    return rho, (count + 1) / (n_permutations + 1)


# ---------------------------------------------------------------------------
# loop references for the encoder and augmentation kernels
# ---------------------------------------------------------------------------

def loop_im2col(xp, oh, ow):
    """Patch matrix assembled one (dy, dx) offset block at a time."""
    n, _, _, c = xp.shape
    cols = np.empty((n, oh, ow, 9 * c))
    k = 0
    for dy in range(3):
        for dx in range(3):
            cols[..., k * c:(k + 1) * c] = xp[:, dy:dy + oh, dx:dx + ow, :]
            k += 1
    return cols.reshape(n * oh * ow, 9 * c)


def whole_batch_conv_input_grad(dout, weight):
    """Input gradient of a same-size 3x3 convolution over the whole batch:
    one patch matrix of the zero-padded dout, then one product with the
    flipped, in/out-swapped kernel."""
    n, h, w, _ = dout.shape
    dp = np.pad(dout, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = nn._im2col(dp, h, w)
    return np.matmul(cols, nn._kernel_matrix_transposed(weight)).reshape(
        n, h, w, weight.shape[1])


def window_maxpool2_forward(x):
    """2x2 max pooling as a reduction over a (N, H/2, 2, W/2, 2, C) view."""
    n, h, w, c = x.shape
    xr = x.reshape(n, h // 2, 2, w // 2, 2, c)
    return xr.max(axis=(2, 4))


def window_maxpool2_backward(dout, x):
    """Gradient of window_maxpool2_forward, split evenly across ties."""
    n, h, w, c = x.shape
    xr = x.reshape(n, h // 2, 2, w // 2, 2, c)
    mask = xr == xr.max(axis=(2, 4))[:, :, None, :, None, :]
    ties = mask.sum(axis=(2, 4), keepdims=True)
    return (mask * (dout[:, :, None, :, None, :] / ties)).reshape(n, h, w, c)


def ix_bilinear_resize(img, out_h, out_w):
    """Half-pixel-centred bilinear resize of one image through np.ix_."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    a = img[np.ix_(y0, x0)]
    b = img[np.ix_(y0, x1)]
    c = img[np.ix_(y1, x0)]
    d = img[np.ix_(y1, x1)]
    return (a * (1 - wy) * (1 - wx) + b * (1 - wy) * wx
            + c * wy * (1 - wx) + d * wy * wx)


def per_image_augment_pair(img1, img2, params, rng):
    """One pair at a time: draw the crop and flip, then resize each image."""
    h, w = img1.shape
    scale = rng.uniform(params.crop_scale_min, params.crop_scale_max)
    area = scale * h * w
    aspect = params.out_width / params.out_height
    crop_h = min(h, math.ceil(math.sqrt(area / aspect)))
    crop_w = min(w, math.ceil(math.sqrt(area * aspect)))
    top = int(rng.integers(0, h - crop_h + 1))
    left = int(rng.integers(0, w - crop_w + 1))
    flip = rng.random() < params.hflip_prob

    def apply(img):
        crop = np.asarray(img, dtype=np.float64)[top:top + crop_h, left:left + crop_w]
        out = ix_bilinear_resize(crop, params.out_height, params.out_width)
        return out[:, ::-1].copy() if flip else out

    return apply(img1), apply(img2)
