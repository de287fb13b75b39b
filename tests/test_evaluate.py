"""Evaluation analyses: the shared per-image scoring path, scatter export,
slope/adjacency report, severity recovery, and few-shot threshold
calibration."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from pairstate import evaluate, labels, synthgen
from pairstate.errors import ConfigError
from pairstate.evaluate import (balanced_accuracy, fewshot_curve,
                                fewshot_curve_logistic, fewshot_threshold,
                                fit_logistic, gamma_adjacency_report,
                                optimal_threshold)
from pairstate.model import AlphaTable, NaiveModel, SiameseModel
from pairstate.nn import ConvEncoder, EncoderConfig
from pairstate.pipeline import Dataset, PairSample, load_dataset

from helpers import scalar_permutation_p

TINY = EncoderConfig(in_height=16, in_width=32, conv_widths=(2, 3), feature_dim=6)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    config = synthgen.CohortConfig(n_patients=6, visits_per_patient=3,
                                   scans_per_volume=4, image_height=16,
                                   image_width=32, other_rate=0.1,
                                   flip_rate=0.2, seed=31)
    root = tmp_path_factory.mktemp("evds")
    manifest = synthgen.write_dataset(synthgen.gen_cohort(config), root)
    return load_dataset(manifest)


@pytest.fixture(scope="module")
def model():
    return SiameseModel.init(TINY, np.random.default_rng(5))


def unique_images(dataset, indices):
    return {k for i in indices for k in (dataset.pairs[i].img1, dataset.pairs[i].img2)}


# ---------------------------------------------------------------------------
# shared per-image scoring path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", [SiameseModel, NaiveModel])
def test_pair_scores_match_per_pair_predictions(dataset, cls):
    net = cls.init(TINY, np.random.default_rng(8))
    idx = np.arange(len(dataset))
    cache = {}
    evaluate.pair_scores(net, dataset, idx[::3], cache=cache)
    scores = evaluate.pair_scores(net, dataset, idx, cache=cache)
    x1, x2 = dataset.pair_batch(idx)
    for i in idx:
        ref = net.predict_pairs(x1[i:i + 1], x2[i:i + 1])
        assert set(scores) == set(ref)
        for key, val in ref.items():
            np.testing.assert_allclose(scores[key][i], val[0], rtol=0, atol=1e-12)


def test_each_image_encoded_once_per_cache(dataset, model, monkeypatch):
    encoded = []
    forward = ConvEncoder.forward

    def counting_forward(self, x):
        encoded.append(len(x))
        return forward(self, x)

    monkeypatch.setattr(ConvEncoder, "forward", counting_forward)
    cache = {}
    patients = dataset.patients
    evaluate.pair_scores(model, dataset,
                         dataset.indices_for_patients(patients[:2]), cache=cache)
    evaluate.severity_recovery(model, dataset, patients[1:4], cache=cache)
    evaluate.export_delta_scatter(model, dataset, cache=cache)
    n_unique = len(unique_images(dataset, range(len(dataset))))
    assert sum(encoded) == len(cache) == n_unique
    assert max(encoded) <= evaluate.ENCODE_BATCH


# ---------------------------------------------------------------------------
# delta scatter
# ---------------------------------------------------------------------------

def test_scatter_row_count_and_fields(dataset, model):
    rows = evaluate.export_delta_scatter(model, dataset)
    assert len(rows) == len(dataset)
    for row in rows[:5]:
        assert set(row) == {"pair_id", "delta", "prob_other", "label",
                            "clean_label"}
        assert np.isfinite(row["delta"])
        assert np.isfinite(row["prob_other"])


def test_scatter_delta_negates_when_order_flipped(dataset, model):
    cache = {}
    fwd = evaluate.export_delta_scatter(model, dataset, cache=cache)
    rows1 = np.array([cache[p.img1] for p in dataset.pairs])
    rows2 = np.array([cache[p.img2] for p in dataset.pairs])
    rev = model.pair_head(rows2, rows1)
    for a, delta, prob_other in zip(fwd, rev["delta"], rev["prob_other"]):
        assert a["delta"] == -delta
        assert a["prob_other"] == pytest.approx(prob_other, abs=1e-12)


# ---------------------------------------------------------------------------
# gamma adjacency report
# ---------------------------------------------------------------------------

def test_gamma_report_all_default_slopes(dataset):
    table = AlphaTable.zeros(len(dataset))
    report = gamma_adjacency_report(table, dataset, threshold=0.85)
    for group in report.groups.values():
        assert group["fraction"] == 0.0
    assert report.gamma_mean == 1.0


def test_gamma_report_flipped_pairs_flagged(dataset):
    # push the slope down on exactly the flipped pairs: the disagreeing
    # groups fill up, the same-label group stays clean
    table = AlphaTable.zeros(len(dataset))
    for i, p in enumerate(dataset.pairs):
        if p.label != p.clean_label and p.label != labels.OTHER:
            table.values[p.pair_id] = -1.0
    report = gamma_adjacency_report(table, dataset, threshold=0.85)
    # disagreeing groups hold both the flipped pair (low slope) and its
    # clean neighbors (slope 1), so their fraction lands well above the
    # same-label group but below 1
    assert report.groups["same_label"]["fraction"] <= 0.1
    disagree_n = sum(report.groups[g]["n"] for g in
                     ("better_worse", "better_stable", "worse_stable"))
    disagree_below = sum(report.groups[g]["below"] for g in
                         ("better_worse", "better_stable", "worse_stable"))
    assert disagree_n > 0
    frac = disagree_below / disagree_n
    assert frac > 0.3
    assert frac > report.groups["same_label"]["fraction"] + 0.2


def test_gamma_report_requires_adjacency():
    config = synthgen.CohortConfig(n_patients=3, visits_per_patient=2,
                                   scans_per_volume=1, image_height=16,
                                   image_width=16, seed=1)
    cohort = synthgen.gen_cohort(config)
    import pairstate.pipeline as pl
    pairs = [pl.PairSample(p.pair_id, p.img1, p.img2, p.label, p.clean_label,
                           p.patient_id, p.visit_from, p.visit_to,
                           p.scan_index, p.corrupted_flags)
             for p in cohort.pairs]
    ds = pl.Dataset(root=None, pairs=pairs, image_size=(16, 16),
                    patient_index={}, label_counts={})
    with pytest.raises(ConfigError, match="adjacency"):
        gamma_adjacency_report(AlphaTable.zeros(10), ds)


# ---------------------------------------------------------------------------
# severity recovery: vectorised permutation test against the scalar loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_severity_recovery_matches_scalar_loop(dataset, model, seed):
    patients = dataset.patients[:4]
    cache = {}
    rec = evaluate.severity_recovery(model, dataset, patients,
                                     rng=np.random.default_rng(seed),
                                     n_permutations=300, cache=cache)
    keys = sorted(unique_images(dataset, dataset.indices_for_patients(patients)))
    z_state = np.array([cache[k][0] for k in keys])
    severity = np.array([dataset.latents[k] for k in keys])
    rho, p = scalar_permutation_p(z_state, severity,
                                  np.random.default_rng(seed), 300)
    assert rec["n_images"] == len(keys)
    assert rec["spearman"] == rho
    assert rec["permutation_p"] == p


class PixelModel:
    """Stands in for a SiameseModel: an image's state logit is its mean
    pixel value."""

    def embed(self, images):
        z = images.mean(axis=(1, 2, 3))
        return np.column_stack([z, np.zeros_like(z)])


def chain_dataset(pixels, severities):
    """One patient whose pairs chain images 0-1, 1-2, ...; image i is filled
    with pixels[i] and has latent severity severities[i]."""
    keys = [f"img{i:03d}.pgm" for i in range(len(pixels))]
    pairs = [PairSample(i, keys[i], keys[i + 1], labels.STABLE, labels.STABLE,
                        0, i, i + 1, 0, (False, False))
             for i in range(len(keys) - 1)]
    ds = Dataset(root=None, pairs=pairs, image_size=(4, 4),
                 patient_index={0: list(range(len(pairs)))}, label_counts={},
                 latents=dict(zip(keys, map(float, severities))))
    for key, v in zip(keys, pixels):
        ds._cache[key] = np.full((4, 4), v, dtype=np.uint8)
    return ds


@pytest.mark.parametrize("pixels, severities", [
    # tied severities and tied state logits
    ([30, 10, 50, 20, 20, 90, 70, 60, 10, 40, 80, 0],
     [2, 1, 2, 1, 3, 3, 2, 0, 0, 1, 3, 2]),
    # n = 3: identity and reversed orders recur and must count as r >= |rho|
    ([10, 20, 30], [1.0, 2.0, 3.0]),
    ([10, 30, 20], [1.0, 2.0, 3.0]),
])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_permutation_p_exact_on_ties_and_tiny_n(pixels, severities, seed):
    ds = chain_dataset(pixels, severities)
    rec = evaluate.severity_recovery(PixelModel(), ds, [0],
                                     rng=np.random.default_rng(seed),
                                     n_permutations=700)
    rho, p = scalar_permutation_p(np.array(pixels) / 255.0, severities,
                                  np.random.default_rng(seed), 700)
    assert rec["spearman"] == rho
    assert rec["permutation_p"] == p


def test_permutation_p_is_one_for_constant_state_logits():
    ds = chain_dataset([50] * 6, [0, 1, 2, 3, 4, 5])
    with pytest.warns(scipy.stats.ConstantInputWarning):
        rec = evaluate.severity_recovery(PixelModel(), ds, [0],
                                         rng=np.random.default_rng(0),
                                         n_permutations=50)
    assert np.isnan(rec["spearman"])
    assert rec["permutation_p"] == 1.0


# ---------------------------------------------------------------------------
# few-shot thresholding
# ---------------------------------------------------------------------------

def np_rng(seed=0):
    return np.random.default_rng(seed)


def test_fewshot_separable_single_shot():
    thr, orient, _ = fewshot_threshold(np.array([-2.0, 2.0]),
                                       np.array([False, True]), 1, np_rng())
    assert thr == pytest.approx(0.0)
    assert orient == 1


def test_fewshot_swapped_labels_flip_orientation():
    z = np.array([-2.0, -1.5, 1.5, 2.0])
    active = np.array([False, False, True, True])
    t1, o1, _ = fewshot_threshold(z, active, 2, np_rng(1))
    t2, o2, _ = fewshot_threshold(z, ~active, 2, np_rng(1))
    assert t1 == pytest.approx(t2)
    assert o1 == -o2


def test_fewshot_errors():
    z = np.array([-1.0, 1.0, 2.0])
    active = np.array([False, True, True])
    with pytest.raises(ConfigError):
        fewshot_threshold(z, active, 0, np_rng())
    with pytest.raises(ConfigError, match="inactive"):
        fewshot_threshold(z, active, 2, np_rng())


def test_fewshot_scale_equivariance():
    rng = np.random.default_rng(3)
    z = rng.normal(0, 2, 60)
    active = z + rng.normal(0, 0.5, 60) > 0
    if active.all() or not active.any():
        active[0] = ~active[0]
    for a, b in ((2.5, 1.0), (0.3, -4.0)):
        t0, o0, idx0 = fewshot_threshold(z, active, 5, np_rng(7))
        t1, o1, idx1 = fewshot_threshold(a * z + b, active, 5, np_rng(7))
        assert np.array_equal(idx0, idx1)
        assert t1 == pytest.approx(a * t0 + b, rel=1e-9)
        assert o1 == o0
        acc0 = balanced_accuracy(z > t0 if o0 > 0 else z < t0, active)
        acc1 = balanced_accuracy(a * z + b > t1 if o1 > 0 else a * z + b < t1,
                                 active)
        assert acc0 == pytest.approx(acc1)


def test_optimal_threshold_on_separable_data():
    z = np.concatenate([np.linspace(-3, -1, 30), np.linspace(1, 3, 30)])
    active = np.array([False] * 30 + [True] * 30)
    thr, orient, acc = optimal_threshold(z, active)
    assert acc == 1.0
    assert -1 < thr < 1
    assert orient == 1


def test_fewshot_curve_reproducible():
    rng = np.random.default_rng(4)
    z = np.concatenate([rng.normal(-1, 1, 80), rng.normal(1, 1, 80)])
    active = np.array([False] * 80 + [True] * 80)
    c1 = fewshot_curve(z, active, [1, 2, 4], 5, np_rng(9))
    c2 = fewshot_curve(z, active, [1, 2, 4], 5, np_rng(9))
    for a, b in zip(c1, c2):
        assert a["mean"] == b["mean"] and a["std"] == b["std"]
    assert [row["k"] for row in c1] == [1, 2, 4]


def test_fewshot_curve_k_too_large():
    z = np.array([-1.0, -0.5, 1.0, 2.0])
    active = np.array([False, False, True, True])
    with pytest.raises(ConfigError, match="active"):
        fewshot_curve(z, active, [3], 2, np_rng())


def test_balanced_accuracy_values():
    active = np.array([True, True, False, False])
    assert balanced_accuracy(np.array([True, False, False, False]), active) \
        == pytest.approx(0.75)
    with pytest.raises(ConfigError):
        balanced_accuracy(np.array([True]), np.array([True]))


# ---------------------------------------------------------------------------
# logistic baseline
# ---------------------------------------------------------------------------

def test_logistic_fits_separable():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(-2, 0.5, (40, 3)), rng.normal(2, 0.5, (40, 3))])
    y = np.array([False] * 40 + [True] * 40)
    w, b = fit_logistic(x, y)
    pred = x @ w + b > 0
    assert balanced_accuracy(pred, y) > 0.95


def test_logistic_deterministic():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 4))
    y = rng.random(30) > 0.5
    if y.all() or not y.any():
        y[0] = ~y[0]
    w1, b1 = fit_logistic(x, y)
    w2, b2 = fit_logistic(x, y)
    assert np.array_equal(w1, w2) and b1 == b2


def test_fewshot_curve_logistic_runs(monkeypatch):
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.normal(-1, 1, (60, 4)), rng.normal(1, 1, (60, 4))])
    y = np.array([False] * 60 + [True] * 60)
    rows = fewshot_curve_logistic(x, y, [1, 4], 4, np_rng(11))
    assert len(rows) == 2
    assert all(0.0 <= r["mean"] <= 1.0 for r in rows)
    with pytest.raises(ConfigError, match="k must be"):
        fewshot_curve_logistic(x, y, [0], 1, np_rng())

    # from one rng state, both curves draw the same shots in the same order
    fitted = []

    def record_fit(features, is_active):
        fitted.append(features[:, 0].astype(int))
        return np.zeros(features.shape[1]), 0.0

    monkeypatch.setattr(evaluate, "fit_logistic", record_fit)
    fewshot_curve_logistic(np.arange(len(y), dtype=float)[:, None], y,
                           [1, 4], 4, np_rng(11))
    ref_rng = np_rng(11)
    expected = [fewshot_threshold(x[:, 0], y, k, ref_rng)[2]
                for k in (1, 4) for _ in range(4)]
    assert len(fitted) == len(expected)
    for got, want in zip(fitted, expected):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_severity_oracle_scores(dataset):
    oracle = evaluate.SeverityOracle(dataset, tau=1.0)
    idx = np.arange(len(dataset))
    scores = oracle.scores_for(idx)
    for i in idx:
        p = dataset.pairs[i]
        if any(p.corrupted_flags):
            assert scores["prob_other"][i] > 0.9
        else:
            assert scores["prob_other"][i] < 0.1
    # antisymmetric in construction: delta = scale * (s1 - s2)
    assert np.all(np.isfinite(scores["delta"]))
