"""Training protocol: balanced sampling, AdamW, best-validation checkpointing.

One epoch draws as many pairs from the balanced sampler as the training
set holds, so epochs stay comparable under sampling with replacement.
Validation loss is computed with slope 1 and without the slope penalty,
which keeps model selection comparable between plain and noise-estimation
runs. The checkpoint returned is the parameter state at the epoch with the
lowest validation loss.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluate, labels, objective
from .atomic import atomic_write
from .errors import ConfigError, TrainingDiverged
from .model import MODELS, AlphaTable, NaiveModel, SiameseModel, save_checkpoint
from .nn import EncoderConfig, Workspace
from .optim import AdamW
from .pipeline import AugmentParams, Dataset, FoldSpec, SplitPlan, augment_pair, \
    balanced_sampler

HISTORY_COLUMNS = ("epoch", "train_loss", "train_bce_state", "train_bce_other",
                   "train_reg", "val_loss", "val_bce_state", "val_bce_other",
                   "sampled_better", "sampled_stable", "sampled_worse",
                   "sampled_other")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 60
    batch_size: int = 32
    lam: float = 0.15
    weight_decay: float = 1e-2
    seed: int = 0
    noise_estimation: bool = False
    alpha_lr: float | None = None     # slope-exponent learning rate; None -> lr
    augment: bool = True

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lam < 0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if self.weight_decay < 0:
            raise ConfigError(
                f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.alpha_lr is not None and self.alpha_lr <= 0:
            raise ConfigError(f"alpha_lr must be positive, got {self.alpha_lr}")

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclass
class FoldResult:
    model: object                 # SiameseModel or NaiveModel, best-epoch state
    alpha_table: AlphaTable | None
    history: list                 # one dict per epoch, HISTORY_COLUMNS keys
    best_epoch: int
    best_val_loss: float


def _siamese_val_loss(model: SiameseModel, dataset: Dataset, val_idx):
    """Validation objective with slope fixed at 1 and no slope penalty."""
    pred = evaluate.pair_scores(model, dataset, val_idx)
    y_state, mask, y_other = objective.encode_targets(dataset.labels_of(val_idx))
    parts = objective.loss_parts(pred["prob_progression"], y_state, mask,
                                 pred["prob_other"], y_other,
                                 np.zeros(len(val_idx)), 0.0)
    return {key: parts[key] for key in ("loss", "bce_state", "bce_other")}


def _naive_val_loss(model: NaiveModel, dataset: Dataset, val_idx):
    probs = evaluate.pair_scores(model, dataset, val_idx)["probs"]
    idx = [labels.LABEL_TO_INDEX[l] for l in dataset.labels_of(val_idx)]
    p = np.clip(probs[np.arange(len(val_idx)), idx], 1e-12, None)
    return {"loss": float(-np.log(p).sum()) / len(val_idx),
            "bce_state": float("nan"), "bce_other": float("nan")}


def train_fold(dataset: Dataset, fold: FoldSpec, config: TrainConfig,
               encoder_config: EncoderConfig | None = None,
               kind: str = "siamese") -> FoldResult:
    """Train one cross-validation fold and return its best-epoch state."""
    if kind not in MODELS:
        raise ConfigError(f"unknown model kind {kind!r}")
    h, w = dataset.image_size
    if encoder_config is None:
        encoder_config = EncoderConfig(in_height=h, in_width=w)

    train_idx = dataset.indices_for_patients(fold.train_patients)
    val_idx = dataset.indices_for_patients(fold.val_patients)
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise ConfigError(f"fold {fold.fold}: empty train or validation set")
    train_labels = dataset.labels_of(train_idx)

    root = np.random.SeedSequence(config.seed)
    init_ss, sampler_ss, augment_ss = root.spawn(3)
    init_rng = np.random.default_rng(init_ss)
    sampler = balanced_sampler(train_labels, np.random.default_rng(sampler_ss))
    augment_rng = np.random.default_rng(augment_ss)

    model = MODELS[kind].init(encoder_config, init_rng)
    table_size = max(p.pair_id for p in dataset.pairs) + 1
    alpha = AlphaTable.zeros(table_size) if kind == "siamese" else None

    opt_params = dict(model.params)
    lr_overrides = {}
    learn_alpha = kind == "siamese" and config.noise_estimation
    if learn_alpha:
        opt_params["alpha"] = alpha.values
        if config.alpha_lr is not None:
            lr_overrides["alpha"] = config.alpha_lr
    opt = AdamW(opt_params, lr=config.lr, weight_decay=config.weight_decay,
                no_decay={"alpha"}, lr_overrides=lr_overrides)

    aug = AugmentParams(out_height=h, out_width=w) if config.augment else None
    n_train = len(train_idx)
    steps = (n_train + config.batch_size - 1) // config.batch_size

    history = []
    best_val = float("inf")
    best_epoch = -1
    best_params = None
    best_alpha = None

    for epoch in range(config.epochs):
        drawn = [next(sampler) for _ in range(n_train)]
        epoch_pairs = train_idx[drawn]
        sampled_counts = {name: 0 for name in labels.LABELS}
        for lbl in dataset.labels_of(epoch_pairs):
            sampled_counts[lbl] += 1

        sums = {"loss": 0.0, "bce_state": 0.0, "bce_other": 0.0, "reg": 0.0}
        # the steps' buffers live for this epoch's steps, not through
        # validation, whose forward passes keep no backward cache
        ws = Workspace()
        for step, start in enumerate(range(0, n_train, config.batch_size)):
            batch_idx = epoch_pairs[start:start + config.batch_size]
            x1, x2 = dataset.pair_batch(batch_idx)
            if aug is not None:
                x1, x2 = augment_pair(x1, x2, aug, augment_rng)
            batch_labels = dataset.labels_of(batch_idx)
            if kind == "siamese":
                pair_ids = np.array([dataset.pairs[i].pair_id for i in batch_idx])
                y_state, mask, y_other = objective.encode_targets(batch_labels)
                alpha_batch = alpha.values[pair_ids] if learn_alpha \
                    else np.zeros(len(batch_idx))
                parts, grads = model.loss_and_grads(
                    x1, x2, y_state, mask, y_other, alpha_batch,
                    config.lam if learn_alpha else 0.0,
                    alpha_size=table_size, pair_ids=pair_ids, ws=ws)
            else:
                class_idx = np.array([labels.LABEL_TO_INDEX[l] for l in batch_labels])
                parts, grads = model.loss_and_grads(x1, x2, class_idx, ws=ws)
            if not np.isfinite(parts["loss"]):
                raise TrainingDiverged(epoch, step, parts["loss"])
            opt.step(grads)
            for key in sums:
                sums[key] += parts.get(key, 0.0) * len(batch_idx)
        del ws

        if kind == "siamese":
            val = _siamese_val_loss(model, dataset, val_idx)
        else:
            val = _naive_val_loss(model, dataset, val_idx)
        if not np.isfinite(val["loss"]):
            raise TrainingDiverged(epoch, steps, val["loss"])

        history.append({
            "epoch": epoch,
            "train_loss": sums["loss"] / n_train,
            "train_bce_state": sums["bce_state"] / n_train,
            "train_bce_other": sums["bce_other"] / n_train,
            "train_reg": sums["reg"] / n_train,
            "val_loss": val["loss"],
            "val_bce_state": val["bce_state"],
            "val_bce_other": val["bce_other"],
            "sampled_better": sampled_counts[labels.BETTER],
            "sampled_stable": sampled_counts[labels.STABLE],
            "sampled_worse": sampled_counts[labels.WORSE],
            "sampled_other": sampled_counts[labels.OTHER],
        })

        if val["loss"] < best_val:
            best_val = val["loss"]
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in model.params.items()}
            best_alpha = alpha.values.copy() if alpha is not None else None

    # encoder.params shares these arrays, so one in-place write updates both
    for key, value in best_params.items():
        model.params[key][...] = value
    if alpha is not None:
        alpha.values[...] = best_alpha

    return FoldResult(model=model, alpha_table=alpha, history=history,
                      best_epoch=best_epoch, best_val_loss=best_val)


def run_folds(dataset: Dataset, plan: SplitPlan, config: TrainConfig, out,
              encoder_config: EncoderConfig | None = None,
              kind: str = "siamese", jobs: int = 1) -> list:
    """Train fold i of `plan` under fold_configs(config)[i] into out/fold<i>/
    (checkpoint.npz, history.csv); returns the best validation losses in
    fold order. jobs > 1 trains the folds in min(jobs, folds) spawned
    processes that split the usable CPUs' BLAS threads between them; the
    outputs are byte-identical to jobs=1, which trains on `dataset` here.
    jobs must be >= 1; `pairstate train` checks it before writing anything."""
    tasks = [(plan.fold_spec(i), fold_config, encoder_config, kind,
              Path(out) / f"fold{i}")
             for i, fold_config in enumerate(fold_configs(config, plan.n_folds))]
    workers = min(jobs, len(tasks))
    if workers == 1:
        return [_train_into(dataset, *task) for task in tasks]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    with _thread_limit(max(1, cpus // workers)), ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(functools.partial(_train_into, dataset), *zip(*tasks)))


@contextlib.contextmanager
def _thread_limit(threads: int):
    """Each THREAD_VARS entry is `threads` inside the block, unless it holds
    a lower positive count already. numpy reads them when it loads, so they
    act on the processes started inside the block."""
    saved = {name: os.environ.get(name) for name in THREAD_VARS}
    for name, value in saved.items():
        if not (value or "").isdigit() or not 0 < int(value) < threads:
            os.environ[name] = str(threads)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _train_into(dataset, fold, config, encoder_config, kind, fold_dir) -> float:
    """train_fold, then the fold's checkpoint.npz and history.csv."""
    result = train_fold(dataset, fold, config, encoder_config=encoder_config,
                        kind=kind)
    fold_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(fold_dir / "checkpoint.npz", result.model,
                    alpha_table=result.alpha_table,
                    meta={"fold": fold.fold, "best_epoch": result.best_epoch,
                          "best_val_loss": result.best_val_loss,
                          "train_config": config.to_dict()})
    write_history_csv(fold_dir / "history.csv", result.history)
    return result.best_val_loss


def fold_configs(config: TrainConfig, n_folds: int) -> list:
    """One TrainConfig per fold, fold i seeded by the i-th word of
    SeedSequence(config.seed), so every fold is reproducible independently
    of execution order."""
    seeds = np.random.SeedSequence(config.seed).generate_state(
        n_folds, dtype=np.uint64)
    return [dataclasses.replace(config, seed=int(s)) for s in seeds]


def write_csv(path, columns, rows) -> None:
    """CSV of the given columns of each row dict, floats via repr and "\n"
    line endings, so identical runs write identical bytes."""
    def fmt(v):
        return repr(v) if isinstance(v, float) else str(v)

    with atomic_write(path, encoding="utf-8", newline="\n") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(fmt(row[c]) for c in columns) + "\n")


def write_history_csv(path, history_rows) -> None:
    """One row per epoch, HISTORY_COLUMNS in order."""
    write_csv(path, HISTORY_COLUMNS, history_rows)
