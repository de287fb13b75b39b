"""Dataset loading, patient-wise splitting, paired augmentation, sampling."""

import json
import tracemalloc

import numpy as np
import pytest

from pairstate import synthgen
from pairstate.errors import ConfigError, DataError
from pairstate.pipeline import (AugmentParams, augment_pair, balanced_sampler,
                                class_weights, load_dataset, split_patientwise,
                                SplitPlan)

from helpers import per_image_augment_pair


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    config = synthgen.CohortConfig(n_patients=20, visits_per_patient=3,
                                   scans_per_volume=2, image_height=16,
                                   image_width=32, other_rate=0.1,
                                   flip_rate=0.1, seed=42)
    root = tmp_path_factory.mktemp("ds")
    manifest = synthgen.write_dataset(synthgen.gen_cohort(config), root)
    return load_dataset(manifest)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_histogram_sums_to_pair_count(dataset):
    assert sum(dataset.label_counts.values()) == len(dataset.pairs)


def test_patient_index_partitions_pairs(dataset):
    seen = sorted(i for idxs in dataset.patient_index.values() for i in idxs)
    assert seen == list(range(len(dataset.pairs)))


def test_missing_manifest():
    with pytest.raises(DataError, match="not found"):
        load_dataset("/nonexistent/manifest.jsonl")


def test_dangling_image_path(tmp_path):
    config = synthgen.CohortConfig(n_patients=2, visits_per_patient=2,
                                   scans_per_volume=1, image_height=16,
                                   image_width=16, seed=0)
    manifest = synthgen.write_dataset(synthgen.gen_cohort(config), tmp_path)
    (tmp_path / "images" / "p001_v00_s00.pgm").unlink()
    with pytest.raises(DataError, match="p001_v00_s00.pgm"):
        load_dataset(manifest)


def test_mixed_sizes_padded_to_max(tmp_path):
    # smaller rasters are zero-padded (top-left anchored) to the largest
    # resolution in the store
    import json as json_mod
    from pairstate.pgm import write_pgm
    (tmp_path / "images").mkdir()
    small = np.full((16, 16), 7, dtype=np.uint8)
    big = np.full((16, 32), 9, dtype=np.uint8)
    write_pgm(tmp_path / "images" / "a.pgm", small)
    write_pgm(tmp_path / "images" / "b.pgm", big)
    rec = {"pair_id": 0, "img1": "images/a.pgm", "img2": "images/b.pgm",
           "label": "STABLE", "clean_label": "STABLE", "patient_id": 0,
           "visit_from": 0, "visit_to": 1, "scan_index": 0,
           "corrupted_flags": [False, False]}
    (tmp_path / "manifest.jsonl").write_text(json_mod.dumps(rec) + "\n")
    ds = load_dataset(tmp_path / "manifest.jsonl")
    assert ds.image_size == (16, 32)
    padded = ds.load_image("images/a.pgm")
    assert padded.shape == (16, 32)
    assert np.all(padded[:, :16] == 7)
    assert np.all(padded[:, 16:] == 0)
    assert np.array_equal(ds.load_image("images/b.pgm"), big)


def test_malformed_jsonl_line(tmp_path):
    config = synthgen.CohortConfig(n_patients=2, visits_per_patient=2,
                                   scans_per_volume=1, image_height=16,
                                   image_width=16, seed=0)
    manifest = synthgen.write_dataset(synthgen.gen_cohort(config), tmp_path)
    lines = manifest.read_text().splitlines()
    lines[1] = "{broken"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="record 1"):
        load_dataset(manifest)


def _rewrite_pair_ids(manifest, ids):
    lines = manifest.read_text().splitlines()
    recs = [json.loads(line) for line in lines]
    for rec, pid in zip(recs, ids):
        rec["pair_id"] = pid
    manifest.write_text("".join(json.dumps(rec) + "\n" for rec in recs))


@pytest.mark.parametrize("row, pair_id, match", [
    (0, -1, "pair_id -1 outside"),
    (3, 1, "duplicate pair_id 1"),
    (2, 10 ** 12, "pair_id 1000000000000 outside"),
    (-1, None, "outside"),           # None: the record count, one too large
])
def test_bad_pair_ids_rejected(tmp_path, row, pair_id, match):
    # a negative id would index the slope table from its end, a duplicate
    # would share one slope, a huge one would allocate a huge table
    config = synthgen.CohortConfig(n_patients=2, visits_per_patient=3,
                                   scans_per_volume=2, image_height=16,
                                   image_width=16, seed=0)
    manifest = synthgen.write_dataset(synthgen.gen_cohort(config), tmp_path)
    ids = list(range(len(manifest.read_text().splitlines())))
    ids[row] = len(ids) if pair_id is None else pair_id
    _rewrite_pair_ids(manifest, ids)
    with pytest.raises(DataError, match=match):
        load_dataset(manifest)


def _rewrite_record(manifest, row, **fields):
    lines = manifest.read_text().splitlines()
    rec = json.loads(lines[row])
    rec.update(fields)
    lines[row] = json.dumps(rec)
    manifest.write_text("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("fields, match", [
    ({"clean_label": "IMPROVED"}, "unknown clean_label 'IMPROVED'"),
    ({"clean_label": None}, "unknown clean_label None"),
    ({"corrupted_flags": [True]}, "corrupted_flags must be a list of 2"),
    ({"corrupted_flags": [False, False, True]}, "corrupted_flags must be a list of 2"),
    ({"corrupted_flags": 1}, "corrupted_flags must be a list of 2"),
])
def test_bad_clean_label_or_flags_rejected(tmp_path, fields, match):
    # a clean label outside LABELS would break the noise report; a flag
    # list of the wrong length does not describe the pair's two images
    config = synthgen.CohortConfig(n_patients=2, visits_per_patient=3,
                                   scans_per_volume=2, image_height=16,
                                   image_width=16, seed=0)
    manifest = synthgen.write_dataset(synthgen.gen_cohort(config), tmp_path)
    _rewrite_record(manifest, 2, **fields)
    with pytest.raises(DataError, match=f"record 2: {match}"):
        load_dataset(manifest)


def test_permuted_pair_ids_accepted(tmp_path):
    config = synthgen.CohortConfig(n_patients=2, visits_per_patient=3,
                                   scans_per_volume=2, image_height=16,
                                   image_width=16, seed=0)
    manifest = synthgen.write_dataset(synthgen.gen_cohort(config), tmp_path)
    n = len(manifest.read_text().splitlines())
    _rewrite_pair_ids(manifest, list(reversed(range(n))))
    assert [p.pair_id for p in load_dataset(manifest).pairs] == \
        list(reversed(range(n)))


def test_pair_batch_normalized(dataset):
    x1, x2 = dataset.pair_batch([0, 1, 2])
    assert x1.shape == (3, 1, 16, 32)
    assert x1.dtype == np.float64
    assert 0.0 <= x1.min() and x1.max() <= 1.0


def test_pair_batch_scales_in_place(dataset):
    # 256 pairs (indices repeat) equal float64(u8) / 255.0 bit for bit, and
    # with the images cached the batch peaks at its two output arrays
    # plus 1 MB, not at four batch-sized arrays
    idx = np.arange(256) % len(dataset)
    refs = [np.stack([dataset.load_image(getattr(dataset.pairs[i], key))
                      for i in idx])[:, None].astype(np.float64) / 255.0
            for key in ("img1", "img2")]
    tracemalloc.start()
    try:
        x1, x2 = dataset.pair_batch(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for x, ref in zip((x1, x2), refs):
        assert x.shape == ref.shape
        assert np.array_equal(x, ref)
    assert peak < x1.nbytes + x2.nbytes + 1e6, f"peaked at {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_example_sizes(dataset):
    # 20 patients, 15% holdout, 5 folds -> 3 test patients and folds 4,4,3,3,3
    plan = split_patientwise(dataset, n_folds=5, holdout_frac=0.15, seed=1)
    assert len(plan.test_patients) == 3
    assert sorted(len(f) for f in plan.folds) == [3, 3, 3, 4, 4]


def test_split_deterministic(dataset):
    a = split_patientwise(dataset, seed=9)
    b = split_patientwise(dataset, seed=9)
    assert a == b
    c = split_patientwise(dataset, seed=10)
    assert a != c


def test_split_partitions_patients(dataset):
    plan = split_patientwise(dataset, n_folds=5, holdout_frac=0.15, seed=2)
    groups = [plan.test_patients, *plan.folds]
    all_ids = [p for g in groups for p in g]
    assert sorted(all_ids) == dataset.patients
    assert len(set(all_ids)) == len(all_ids)


def test_split_too_few_patients(dataset):
    with pytest.raises(ConfigError, match="too few"):
        split_patientwise(dataset, n_folds=18, holdout_frac=0.15, seed=0)


def test_fold_spec_disjoint(dataset):
    plan = split_patientwise(dataset, seed=3)
    spec = plan.fold_spec(2)
    assert not set(spec.train_patients) & set(spec.val_patients)
    assert not set(spec.train_patients) & set(plan.test_patients)
    assert set(spec.train_patients) | set(spec.val_patients) == \
        {p for f in plan.folds for p in f}


def test_split_plan_json_round_trip(dataset):
    plan = split_patientwise(dataset, seed=4)
    assert SplitPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def test_identity_augmentation_is_pure_resize():
    rng = np.random.default_rng(0)
    img = rng.random((16, 32))
    params = AugmentParams(out_height=16, out_width=32, crop_scale_min=1.0,
                           crop_scale_max=1.0, hflip_prob=0.0)
    a, b = augment_pair(img, img.copy(), params, rng)
    assert np.array_equal(a, img)
    assert np.array_equal(b, img)


def test_same_transform_for_both_images():
    rng = np.random.default_rng(1)
    img = np.random.default_rng(2).random((16, 32))
    params = AugmentParams(out_height=8, out_width=16)
    for _ in range(25):
        a, b = augment_pair(img, img.copy(), params, rng)
        assert np.array_equal(a, b)


def test_crop_areas_within_sampled_bounds():
    rng = np.random.default_rng(3)
    h, w = 16, 32
    img = np.zeros((h, w))
    params = AugmentParams(out_height=h, out_width=w, crop_scale_min=0.2,
                           crop_scale_max=1.0)
    recorder = []

    class SpyRng:
        def uniform(self, lo, hi):
            val = rng.uniform(lo, hi)
            recorder.append(val)
            return val

        def __getattr__(self, name):
            return getattr(rng, name)

    import math
    for _ in range(100):
        recorder.clear()
        spy = SpyRng()
        # infer the realized crop from where the sampled corner can lie
        scale = None
        a, _ = augment_pair(img, img, params, spy)
        scale = recorder[0]
        area = scale * h * w
        aspect = w / h
        crop_h = min(h, math.ceil(math.sqrt(area / aspect)))
        crop_w = min(w, math.ceil(math.sqrt(area * aspect)))
        realized = crop_h * crop_w
        assert 0.2 * h * w <= realized <= 1.0 * h * w


def test_bilinear_identity_and_range():
    img = np.random.default_rng(4).random((16, 32))

    def full_crop(out_h, out_w):
        params = AugmentParams(out_height=out_h, out_width=out_w,
                               crop_scale_min=1.0, hflip_prob=0.0)
        return augment_pair(img, img, params, np.random.default_rng(0))[0]

    assert np.array_equal(full_crop(16, 32), img)
    small = full_crop(8, 16)
    assert small.shape == (8, 16)
    assert img.min() - 1e-12 <= small.min() and small.max() <= img.max() + 1e-12


def _assert_matches_per_image(x1, x2, params, seed):
    """The batched call equals the per-image loop bit for bit, and leaves the
    generator in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    a1, a2 = augment_pair(x1, x2, params, rng)
    assert a1.shape == a2.shape == (len(x1), 1, params.out_height, params.out_width)
    for row in range(len(x1)):
        r1, r2 = per_image_augment_pair(x1[row, 0], x2[row, 0], params, ref_rng)
        assert np.array_equal(a1[row, 0], r1)
        assert np.array_equal(a2[row, 0], r2)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("crop_min, crop_max, hflip", [
    (0.2, 1.0, 0.5),      # the training defaults
    (0.2, 1.0, 0.0),
    (0.2, 1.0, 1.0),
    (1.0, 1.0, 0.0),      # full crop: the resize is the identity
    (1.0, 1.0, 1.0),
    (0.05, 0.3, 0.5),     # small crops, upsampled
])
def test_batched_augment_matches_per_image(crop_min, crop_max, hflip):
    gen = np.random.default_rng(5)
    x1, x2 = gen.random((2, 24, 1, 16, 32))
    params = AugmentParams(out_height=16, out_width=32, crop_scale_min=crop_min,
                           crop_scale_max=crop_max, hflip_prob=hflip)
    for seed in range(3):
        _assert_matches_per_image(x1, x2, params, seed)


def test_batched_augment_matches_per_image_on_resize_and_images(dataset):
    # quantized pixel values from real images, and output sizes that differ
    # from the input size and aspect ratio
    x1, x2 = dataset.pair_batch(list(range(12)))
    for out_h, out_w in ((16, 32), (8, 16), (12, 20), (20, 40)):
        _assert_matches_per_image(x1, x2, AugmentParams(out_height=out_h,
                                                        out_width=out_w), out_h)


def test_single_pair_is_batch_of_one():
    img1, img2 = np.random.default_rng(6).random((2, 16, 32))
    params = AugmentParams(out_height=8, out_width=16)
    a1, a2 = augment_pair(img1, img2, params, np.random.default_rng(7))
    b1, b2 = augment_pair(img1[None, None], img2[None, None], params,
                          np.random.default_rng(7))
    assert a1.shape == (8, 16)
    assert np.array_equal(a1, b1[0, 0]) and np.array_equal(a2, b2[0, 0])


def test_augment_shape_mismatch():
    params = AugmentParams(out_height=8, out_width=8)
    with pytest.raises(ConfigError):
        augment_pair(np.zeros((8, 8)), np.zeros((8, 9)), params,
                     np.random.default_rng(0))


def test_augment_params_validation():
    with pytest.raises(ConfigError):
        AugmentParams(out_height=8, out_width=8, crop_scale_min=0.0)
    with pytest.raises(ConfigError):
        AugmentParams(out_height=8, out_width=8, crop_scale_min=0.9,
                      crop_scale_max=0.5)


# ---------------------------------------------------------------------------
# balanced sampling
# ---------------------------------------------------------------------------

def test_class_weights_equalize():
    lab = ["A"] * 90 + ["B"] * 5 + ["C"] * 4 + ["D"] * 1
    w = class_weights(lab)
    assert np.isclose(w.sum(), 1.0)
    assert np.isclose(w[:90].sum(), 0.25)
    assert np.isclose(w[90:95].sum(), 0.25)
    assert np.isclose(w[-1], 0.25)


def test_single_class_uniform():
    w = class_weights(["X"] * 10)
    assert np.allclose(w, 0.1)


def test_empty_labels_rejected():
    with pytest.raises(ConfigError):
        class_weights([])


def test_sampler_empirical_frequencies():
    lab = ["A"] * 500 + ["B"] * 30 + ["C"] * 20 + ["D"] * 10
    gen = balanced_sampler(lab, np.random.default_rng(7))
    draws = [lab[next(gen)] for _ in range(40_000)]
    for cls in "ABCD":
        freq = draws.count(cls) / len(draws)
        assert abs(freq - 0.25) < 0.02


def test_sampler_deterministic():
    lab = ["A", "B", "A", "C"]
    g1 = balanced_sampler(lab, np.random.default_rng(5))
    g2 = balanced_sampler(lab, np.random.default_rng(5))
    assert [next(g1) for _ in range(200)] == [next(g2) for _ in range(200)]
