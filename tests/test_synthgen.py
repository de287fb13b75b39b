"""Synthetic cohort generator: determinism, label geometry, rendering,
noise accounting, and on-disk format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import active_blob_count
from pairstate import labels, synthgen
from pairstate.errors import ConfigError
from pairstate.pgm import read_pgm, write_pgm
from pairstate.synthgen import CohortConfig, LatentState


def small_config(**kw):
    base = dict(n_patients=6, visits_per_patient=3, scans_per_volume=2,
                image_height=16, image_width=32, seed=123)
    base.update(kw)
    return CohortConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {"n_patients": 0}, {"visits_per_patient": 0}, {"scans_per_volume": 0},
    {"image_height": 8}, {"image_width": 15}, {"tau": 0.0}, {"tau": -1.0},
    {"flip_rate": 1.5}, {"other_rate": -0.1},
])
def test_config_rejects_invalid(kw):
    with pytest.raises(ConfigError):
        small_config(**kw)


# ---------------------------------------------------------------------------
# determinism and structure
# ---------------------------------------------------------------------------

def test_same_seed_identical_cohorts():
    a = synthgen.gen_cohort(small_config(seed=7, flip_rate=0.2, other_rate=0.1))
    b = synthgen.gen_cohort(small_config(seed=7, flip_rate=0.2, other_rate=0.1))
    assert [p for p in a.pairs] == [p for p in b.pairs]
    assert a.images.keys() == b.images.keys()
    for key in a.images:
        assert np.array_equal(a.images[key], b.images[key])


def test_different_seed_differs():
    a = synthgen.gen_cohort(small_config(seed=7))
    b = synthgen.gen_cohort(small_config(seed=8))
    assert any(not np.array_equal(a.images[k], b.images[k]) for k in a.images)


def test_zero_jitter_shares_visit_severity():
    cohort = synthgen.gen_cohort(small_config(scan_jitter=0.0))
    by_visit = {}
    for key, st_ in cohort.image_meta.items():
        if "_c" in key:
            continue
        by_visit.setdefault((st_.patient_id, st_.visit_index), set()).add(st_.severity)
    assert all(len(sevs) == 1 for sevs in by_visit.values())


def test_pair_count_by_enumeration():
    # pairs = patients * (visits - 1) * scans, checked against a direct count
    config = small_config(n_patients=68, visits_per_patient=10,
                          scans_per_volume=2, image_height=16, image_width=16)
    cohort = synthgen.gen_cohort(config)
    expected = sum(1 for _ in range(config.n_patients)
                   for _ in range(config.visits_per_patient - 1)
                   for _ in range(config.scans_per_volume))
    assert expected == 68 * 9 * 2
    assert len(cohort.pairs) == expected
    assert [p.pair_id for p in cohort.pairs] == list(range(expected))


def test_adjacent_scan_severities_close():
    config = small_config(n_patients=10, scans_per_volume=6, scan_jitter=0.05)
    cohort = synthgen.gen_cohort(config)
    by_volume = {}
    for key, st_ in cohort.image_meta.items():
        if "_c" in key:
            continue
        by_volume.setdefault((st_.patient_id, st_.visit_index), {})[st_.scan_index] = st_.severity
    for vol in by_volume.values():
        for s in range(len(vol) - 1):
            assert abs(vol[s] - vol[s + 1]) <= 6 * config.scan_jitter


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_zero_severity_is_background_only():
    config = small_config(noise_std=0.0)
    img = synthgen.render_bscan(LatentState(0, 0, 0, 0.0),
                                np.random.default_rng(0), config)
    expected = np.rint(synthgen.background(16, 32)).astype(np.uint8)
    assert np.array_equal(img, expected)
    assert active_blob_count(0.0) == 0


def test_blob_count_and_area_monotone():
    assert active_blob_count(0.2) == 1
    assert active_blob_count(3.0) == 3
    assert active_blob_count(9.5) == 10
    fills = [synthgen.blob_fill(s).sum() for s in np.linspace(0, 10, 21)]
    assert all(a < b for a, b in zip(fills[:-1], fills[1:]))


def test_render_painted_area_monotone_same_rng():
    # same generator seed -> same geometry and noise; higher severity only
    # extends the lesions
    config = small_config(noise_std=0.0)
    bg = np.rint(synthgen.background(16, 32))
    counts = []
    for s in np.linspace(0.5, 9.5, 10):
        img = synthgen.render_bscan(LatentState(0, 0, 0, float(s)),
                                    np.random.default_rng(42), config)
        counts.append(int((img.astype(float) > bg).sum()))
    assert all(a <= b for a, b in zip(counts[:-1], counts[1:]))
    assert counts[0] > 0


def test_render_mean_intensity_strictly_increases():
    config = small_config()
    means = []
    for s in np.linspace(1.0, 10.0, 10):
        img = synthgen.render_bscan(LatentState(0, 0, 0, float(s)),
                                    np.random.default_rng(9), config)
        means.append(img.mean())
    assert all(a < b for a, b in zip(means[:-1], means[1:]))


def test_corrupt_bscan_is_detectable():
    config = small_config()
    img = synthgen.render_bscan(LatentState(0, 0, 0, 5.0),
                                np.random.default_rng(1), config)
    bad = synthgen.corrupt_bscan(img, np.random.default_rng(2))
    extreme = ((bad == 0) | (bad == 255)).mean()
    assert extreme > 0.15
    assert ((img == 0) | (img == 255)).mean() < 0.02


# ---------------------------------------------------------------------------
# pair labeling
# ---------------------------------------------------------------------------

def test_label_pair_zero_difference_stable():
    config = small_config(flip_rate=0.0, other_rate=0.0)
    label, clean, side = synthgen.label_pair(4.0, 4.0, config,
                                             np.random.default_rng(0))
    assert label == clean == labels.STABLE
    assert side is None


def test_label_pair_threshold_cases():
    config = small_config(tau=0.5, flip_rate=0.0, other_rate=0.0)
    rng = np.random.default_rng(0)
    assert synthgen.label_pair(4.0, 3.0, config, rng)[0] == labels.BETTER
    assert synthgen.label_pair(3.0, 4.0, config, rng)[0] == labels.WORSE
    assert synthgen.label_pair(4.0, 4.4, config, rng)[0] == labels.STABLE
    # exactly tau counts as changed
    assert synthgen.label_pair(4.0, 4.5, config, rng)[0] == labels.WORSE


def test_label_pair_forced_flip_keeps_clean():
    config = small_config(flip_rate=1.0, other_rate=0.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        label, clean, side = synthgen.label_pair(4.0, 4.0, config, rng)
        assert clean == labels.STABLE
        assert label in (labels.BETTER, labels.WORSE)
        assert side is None


@settings(max_examples=60, deadline=None)
@given(s1=st.floats(-5, 5), s2=st.floats(-5, 5),
       tau=st.floats(0.01, 3.0))
def test_clean_label_antisymmetric(s1, s2, tau):
    swap = {labels.BETTER: labels.WORSE, labels.WORSE: labels.BETTER,
            labels.STABLE: labels.STABLE}
    assert synthgen.clean_label(s2, s1, tau) == swap[synthgen.clean_label(s1, s2, tau)]


def test_noise_rates_within_three_standard_errors():
    n = 10_000
    eta, rho = 0.15, 0.08
    config = small_config(flip_rate=eta, other_rate=rho)
    rng = np.random.default_rng(99)
    outcomes = [synthgen.label_pair(4.0, 4.2, config, rng) for _ in range(n)]
    n_other = sum(1 for lbl, _, _ in outcomes if lbl == labels.OTHER)
    se_rho = np.sqrt(rho * (1 - rho) / n)
    assert abs(n_other / n - rho) <= 3 * se_rho
    non_other = [(lbl, clean) for lbl, clean, _ in outcomes if lbl != labels.OTHER]
    n_flipped = sum(1 for lbl, clean in non_other if lbl != clean)
    se_eta = np.sqrt(eta * (1 - eta) / len(non_other))
    assert abs(n_flipped / len(non_other) - eta) <= 3 * se_eta


def test_other_iff_corrupted():
    cohort = synthgen.gen_cohort(small_config(n_patients=12, other_rate=0.3,
                                              flip_rate=0.2))
    for p in cohort.pairs:
        assert (p.label == labels.OTHER) == any(p.corrupted_flags)
        if p.label != labels.OTHER:
            assert p.clean_label != labels.OTHER


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def test_pgm_round_trip(tmp_path):
    img = np.random.default_rng(0).integers(0, 256, size=(16, 32), dtype=np.uint8)
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n32 16\n255\n")
    assert np.array_equal(read_pgm(path), img)


def test_write_dataset_round_trip(tmp_path):
    from pairstate.pipeline import load_dataset
    cohort = synthgen.gen_cohort(small_config(other_rate=0.2, flip_rate=0.1))
    manifest = synthgen.write_dataset(cohort, tmp_path / "ds")
    ds = load_dataset(manifest)
    assert len(ds.pairs) == len(cohort.pairs)
    for got, src in zip(ds.pairs, cohort.pairs):
        assert got.pair_id == src.pair_id
        assert got.img1 == src.img1 and got.img2 == src.img2
        assert got.label == src.label and got.clean_label == src.clean_label
        assert got.patient_id == src.patient_id
        assert (got.visit_from, got.visit_to) == (src.visit_from, src.visit_to)
        assert got.scan_index == src.scan_index
        assert got.corrupted_flags == src.corrupted_flags
        assert np.array_equal(ds.load_image(got.img1), cohort.images[src.img1])
    ids = [p.pair_id for p in ds.pairs]
    assert ids == list(range(len(ids)))


def test_write_dataset_deterministic_bytes(tmp_path):
    config = small_config(seed=21, other_rate=0.1)
    m1 = synthgen.write_dataset(synthgen.gen_cohort(config), tmp_path / "a")
    m2 = synthgen.write_dataset(synthgen.gen_cohort(config), tmp_path / "b")
    assert m1.read_bytes() == m2.read_bytes()
    assert (tmp_path / "a" / "latents.jsonl").read_bytes() == \
        (tmp_path / "b" / "latents.jsonl").read_bytes()


def test_activity_set_deterministic_and_balancedish():
    config = small_config()
    a = synthgen.gen_activity_set(200, config, seed=5)
    b = synthgen.gen_activity_set(200, config, seed=5)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.active, b.active)
    assert a.cutoff == config.severity_max / 2
    assert 0.3 < a.active.mean() < 0.7
