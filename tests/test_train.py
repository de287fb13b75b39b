"""Optimizer semantics and the training protocol on tiny cohorts."""

import dataclasses

import numpy as np
import pytest

from pairstate import synthgen, train
from pairstate.errors import ConfigError
from pairstate.model import SiameseModel
from pairstate.nn import EncoderConfig
from pairstate.optim import AdamW
from pairstate.pipeline import load_dataset, split_patientwise

TINY_ENC = EncoderConfig(in_height=16, in_width=32, conv_widths=(2, 3),
                         feature_dim=6)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    config = synthgen.CohortConfig(n_patients=8, visits_per_patient=3,
                                   scans_per_volume=2, image_height=16,
                                   image_width=32, other_rate=0.15,
                                   flip_rate=0.1, seed=77)
    root = tmp_path_factory.mktemp("tinyds")
    manifest = synthgen.write_dataset(synthgen.gen_cohort(config), root)
    return load_dataset(manifest)


def tiny_train_config(**kw):
    base = dict(lr=1e-3, epochs=3, batch_size=8, seed=4, augment=False)
    base.update(kw)
    return train.TrainConfig(**base)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adamw_decoupled_decay_shrinks_weights_geometrically():
    # zero data gradient: decayed params shrink by (1 - lr*wd) per step,
    # exempt params stay put
    params = {"w": np.full(3, 2.0), "alpha": np.full(4, 0.5)}
    opt = AdamW(params, lr=0.1, weight_decay=0.5, no_decay={"alpha"})
    zeros = {"w": np.zeros(3), "alpha": np.zeros(4)}
    for step in range(1, 6):
        opt.step(zeros)
        assert np.allclose(params["w"], 2.0 * (1 - 0.1 * 0.5) ** step)
        assert np.array_equal(params["alpha"], np.full(4, 0.5))


def test_adamw_moves_against_gradient():
    params = {"w": np.zeros(2)}
    opt = AdamW(params, lr=0.01, weight_decay=0.0)
    opt.step({"w": np.array([1.0, -1.0])})
    assert params["w"][0] < 0 < params["w"][1]


def test_adamw_lr_override():
    params = {"w": np.zeros(1), "alpha": np.zeros(1)}
    opt = AdamW(params, lr=0.01, weight_decay=0.0, no_decay={"alpha"},
                lr_overrides={"alpha": 0.1})
    opt.step({"w": np.ones(1), "alpha": np.ones(1)})
    assert abs(params["alpha"][0]) > abs(params["w"][0])


def test_adamw_validation():
    with pytest.raises(ValueError):
        AdamW({"w": np.zeros(1)}, lr=0.0)


def test_adamw_matches_reference_formula():
    # two steps against an explicit recomputation of the update rule
    rng = np.random.default_rng(0)
    w0 = rng.normal(size=5)
    params = {"w": w0.copy()}
    lr, wd, b1, b2, eps = 1e-2, 0.1, 0.9, 0.999, 1e-8
    opt = AdamW(params, lr=lr, weight_decay=wd, betas=(b1, b2), eps=eps)
    g1 = rng.normal(size=5)
    g2 = rng.normal(size=5)

    ref = w0.copy()
    m = np.zeros(5)
    v = np.zeros(5)
    for t, g in ((1, g1), (2, g2)):
        ref *= 1 - lr * wd
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    opt.step({"w": g1})
    opt.step({"w": g2})
    assert np.allclose(params["w"], ref, atol=1e-15)


# ---------------------------------------------------------------------------
# train_fold
# ---------------------------------------------------------------------------

def test_alpha_frozen_without_noise_estimation(tiny_dataset):
    plan = split_patientwise(tiny_dataset, n_folds=2, holdout_frac=0.15, seed=0)
    res = train.train_fold(tiny_dataset, plan.fold_spec(0),
                           tiny_train_config(noise_estimation=False),
                           encoder_config=TINY_ENC)
    assert np.all(res.alpha_table.values == 0.0)


def test_alpha_learns_with_noise_estimation(tiny_dataset):
    plan = split_patientwise(tiny_dataset, n_folds=2, holdout_frac=0.15, seed=0)
    res = train.train_fold(tiny_dataset, plan.fold_spec(0),
                           tiny_train_config(noise_estimation=True,
                                             alpha_lr=0.05),
                           encoder_config=TINY_ENC)
    trained_ids = [tiny_dataset.pairs[i].pair_id for i in
                   tiny_dataset.indices_for_patients(
                       plan.fold_spec(0).train_patients)]
    assert np.any(res.alpha_table.values[trained_ids] != 0.0)


def test_same_seed_identical_histories(tiny_dataset):
    plan = split_patientwise(tiny_dataset, n_folds=2, holdout_frac=0.15, seed=0)
    cfg = tiny_train_config(noise_estimation=True, augment=True)
    r1 = train.train_fold(tiny_dataset, plan.fold_spec(0), cfg,
                          encoder_config=TINY_ENC)
    r2 = train.train_fold(tiny_dataset, plan.fold_spec(0), cfg,
                          encoder_config=TINY_ENC)
    assert r1.history == r2.history
    for name in r1.model.params:
        assert np.array_equal(r1.model.params[name], r2.model.params[name])


def test_checkpoint_selection_is_min_val_loss(tiny_dataset):
    plan = split_patientwise(tiny_dataset, n_folds=2, holdout_frac=0.15, seed=0)
    res = train.train_fold(tiny_dataset, plan.fold_spec(0),
                           tiny_train_config(epochs=5),
                           encoder_config=TINY_ENC)
    vals = [row["val_loss"] for row in res.history]
    assert res.best_val_loss == min(vals)
    assert res.best_epoch == int(np.argmin(vals))
    assert all(res.best_val_loss <= v for v in vals)


def test_balanced_sampling_histogram(tiny_dataset):
    plan = split_patientwise(tiny_dataset, n_folds=2, holdout_frac=0.15, seed=0)
    spec = plan.fold_spec(0)
    res = train.train_fold(tiny_dataset, spec, tiny_train_config(epochs=10),
                           encoder_config=TINY_ENC)
    counts = np.zeros(4)
    for row in res.history:
        counts += [row["sampled_better"], row["sampled_stable"],
                   row["sampled_worse"], row["sampled_other"]]
    # balance holds over the classes present in this fold's training pairs
    from pairstate import labels as L
    present = sorted({L.LABEL_TO_INDEX[l] for l in tiny_dataset.labels_of(
        tiny_dataset.indices_for_patients(spec.train_patients))})
    order = [L.LABEL_TO_INDEX[l] for l in
             (L.BETTER, L.STABLE, L.WORSE, L.OTHER)]
    freqs = counts / counts.sum()
    target = 1.0 / len(present)
    for pos, cls in enumerate(order):
        if cls in present:
            assert abs(freqs[pos] - target) < 0.12
        else:
            assert counts[pos] == 0


def test_history_csv_round_trip(tiny_dataset, tmp_path):
    plan = split_patientwise(tiny_dataset, n_folds=2, holdout_frac=0.15, seed=0)
    res = train.train_fold(tiny_dataset, plan.fold_spec(0), tiny_train_config(),
                           encoder_config=TINY_ENC)
    path = tmp_path / "history.csv"
    train.write_history_csv(path, res.history)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(train.HISTORY_COLUMNS)
    assert len(lines) == 1 + len(res.history)
    first = dict(zip(train.HISTORY_COLUMNS, lines[1].split(",")))
    assert float(first["train_loss"]) == res.history[0]["train_loss"]

    # floats via repr, ints via str, "\n" line endings
    row = dict.fromkeys(train.HISTORY_COLUMNS, 0)
    row.update(train_loss=1 / 3, val_loss=0.1, val_bce_state=float("nan"),
               sampled_better=7)
    train.write_history_csv(path, [row])
    assert path.read_bytes() == (
        b"epoch,train_loss,train_bce_state,train_bce_other,train_reg,val_loss,"
        b"val_bce_state,val_bce_other,sampled_better,sampled_stable,"
        b"sampled_worse,sampled_other\n"
        b"0,0.3333333333333333,0,0,0,0.1,nan,0,7,0,0,0\n")


def test_divergence_aborts_with_context(tiny_dataset):
    import warnings
    from pairstate.errors import TrainingDiverged
    plan = split_patientwise(tiny_dataset, n_folds=2, holdout_frac=0.15, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingDiverged, match="epoch"):
            train.train_fold(tiny_dataset, plan.fold_spec(0),
                             tiny_train_config(lr=1e200, epochs=2),
                             encoder_config=TINY_ENC)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        train.TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        train.TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        train.TrainConfig(lam=-0.1)


# ---------------------------------------------------------------------------
# cross_validate
# ---------------------------------------------------------------------------

def test_cross_validate_disjoint_and_aggregated(tiny_dataset, tmp_path):
    from pairstate.model import load_checkpoint, save_checkpoint
    plan, results, summary = train.cross_validate(
        tiny_dataset, tiny_train_config(epochs=2), n_folds=3,
        holdout_frac=0.15, encoder_config=TINY_ENC)
    assert len(results) == 3
    val_sets = [set(plan.fold_spec(r.fold).val_patients) for r in results]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not val_sets[i] & val_sets[j]
    losses = [r.best_val_loss for r in results]
    assert summary["val_loss_mean"] == pytest.approx(np.mean(losses))
    assert summary["val_loss_std"] == pytest.approx(np.std(losses))
    # checkpoints reload bit-exactly
    for r in results:
        path = tmp_path / f"f{r.fold}.npz"
        save_checkpoint(path, r.model, alpha_table=r.alpha_table)
        loaded, alpha, _ = load_checkpoint(path)
        for name, p in r.model.params.items():
            assert np.array_equal(loaded.params[name], p)
        assert np.array_equal(alpha.values, r.alpha_table.values)
    # `pairstate train` gives fold i the seed cross_validate gives it
    from pairstate.cli import main
    run = tmp_path / "run"
    assert main(["train", "--data", str(tiny_dataset.root / "manifest.jsonl"),
                 "--out", str(run), "--folds", "3", "--epochs", "1",
                 "--batch-size", "8", "--conv-widths", "2,3",
                 "--feature-dim", "6", "--seed", "4", "--no-augment"]) == 0
    for r in results:
        _, _, meta = load_checkpoint(run / f"fold{r.fold}" / "checkpoint.npz")
        assert meta["train_config"]["seed"] == r.config.seed
    assert len({r.config.seed for r in results}) == 3


def test_naive_kind_trains(tiny_dataset):
    plan = split_patientwise(tiny_dataset, n_folds=2, holdout_frac=0.15, seed=0)
    res = train.train_fold(tiny_dataset, plan.fold_spec(0),
                           tiny_train_config(epochs=2),
                           encoder_config=TINY_ENC, kind="naive")
    assert res.alpha_table is None
    assert res.model.kind == "naive"
    assert np.isfinite(res.best_val_loss)
