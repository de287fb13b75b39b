"""Command-line entry point: gen | train | eval | fewshot | inspect.

Settings come from an optional JSON config file (--config) merged with
command-line flags; flags win. Unknown config keys are rejected. Every run
directory receives the resolved config echo and SHA-256 hashes of its
declared file inputs, and is never overwritten without --force.

Each command's *_SCHEMA is the one list of its settings, in --help order:
key -> default, or -> type for a setting with no default. build_parser
makes one flag per setting from it, and a default that a config dataclass
holds is read from that dataclass. Every check runs before the run
directory is written.

Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from . import evaluate, labels, metrics, synthgen, train as train_mod
from .atomic import atomic_write
from .errors import ConfigError, DataError, TrainingDiverged
from .model import load_checkpoint
from .nn import EncoderConfig
from .pipeline import SplitPlan, load_dataset, split_patientwise

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _write_json(path, obj) -> None:
    with atomic_write(path, encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _read_json_object(path) -> dict:
    """A data file that must hold one JSON object; DataError naming the
    file if it does not."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object, "
                        f"got {type(obj).__name__}")
    return obj


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _prepare_run_dir(out, force: bool, config: dict, input_files,
                     owned=()) -> Path:
    """Make the output directory and write its config and input digests.
    A non-empty directory needs force, which first removes whatever the
    `owned` glob patterns match: outputs of an earlier run that this run
    might not overwrite, such as a fold it does not train."""
    out = Path(out)
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigError(f"output directory {out} exists and is not empty "
                          f"(use --force to overwrite)")
    for pattern in owned:
        for path in sorted(out.glob(pattern)):
            if path.is_dir() and not path.is_symlink():
                shutil.rmtree(path)
            else:
                path.unlink()
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", config)
    lines = [f"{_sha256(p)}  {Path(p).name}" for p in input_files]
    with atomic_write(out / "inputs.sha256", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))
    return out


def _resolve(args, schema: dict) -> dict:
    """Merge JSON config file and flags; flags win; unknown keys rejected.
    A setting with no default resolves to None when neither sets it."""
    file_cfg = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise DataError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path}: invalid JSON: {e}") from e
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path}: expected a JSON object, "
                              f"got {type(file_cfg).__name__}")
        unknown = sorted(set(file_cfg) - set(schema))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        wrong = {k: v for k, v in file_cfg.items() if not _fits(v, schema[k])}
        if wrong:
            raise ConfigError(f"config file {path}: wrong value types: {wrong}")
    resolved = {}
    for key, spec in schema.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = None if isinstance(spec, type) else spec
    # every command that takes a seed feeds it to np.random.SeedSequence
    if resolved.get("seed") is not None and resolved["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {resolved['seed']}")
    return resolved


def _fits(value, spec) -> bool:
    """Whether a config file value has its setting's type: the declared
    type, or the default's. null fits a setting with no default, which it
    leaves unset; an int fits a float; a list or string fits conv_widths
    (the one tuple); checkpoint (the one list) takes a list of strings; a
    bool fits only a bool."""
    if isinstance(spec, type) and value is None:
        return True
    kind = spec if isinstance(spec, type) else type(spec)
    if kind is list:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    kind = {tuple: (list, str), float: (int, float)}.get(kind, kind)
    return isinstance(value, kind) and isinstance(value, bool) == (kind is bool)


def _require(cfg: dict, *keys) -> None:
    missing = [k for k in keys if cfg.get(k) in (None, [])]
    if missing:
        raise ConfigError(f"missing required settings: {missing} "
                          f"(pass as flags or in --config)")


# gen's keys that name a CohortConfig field differently
RENAMED = {"visits": "visits_per_patient", "scans": "scans_per_volume",
           "height": "image_height", "width": "image_width",
           "blob_area": "blob_area_per_severity"}


def _defaults(config, keys: str) -> dict:
    """Schema entries for the space-separated `keys`, each defaulting to
    the field of the dataclass instance `config` that it names."""
    return {k: getattr(config, RENAMED.get(k, k)) for k in keys.split()}


def _build(cls, cfg: dict, **fields):
    """Dataclass `cls` from the settings that name its fields, plus `fields`."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{RENAMED.get(k, k): v for k, v in cfg.items()
                  if RENAMED.get(k, k) in names}, **fields)


def _ints(cfg: dict, key) -> tuple:
    """A comma-separated setting, or a config file's list, as ints."""
    value = cfg[key]
    text = value if isinstance(value, str) else ",".join(map(str, value))
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError as e:
        raise ConfigError(f"{key} must be comma-separated integers, "
                          f"got {value!r}") from e


def _encoder_config(cfg, image_size) -> EncoderConfig:
    widths = _ints(cfg, "conv_widths")
    try:
        return _build(EncoderConfig, {**cfg, "conv_widths": widths},
                      in_height=image_size[0], in_width=image_size[1])
    except ValueError as e:
        raise ConfigError(str(e)) from e


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

GEN_SCHEMA = {
    "out": str,
    **_defaults(synthgen.CohortConfig(),
                "seed n_patients visits scans height width tau flip_rate other_rate "
                "scan_jitter severity_step severity_max blob_area noise_std"),
    "force": False,
}


def cmd_gen(args) -> int:
    cfg = _resolve(args, GEN_SCHEMA)
    _require(cfg, "out")
    cohort_config = _build(synthgen.CohortConfig, cfg)
    out = _prepare_run_dir(cfg["out"], cfg["force"], cfg, [])
    cohort = synthgen.gen_cohort(cohort_config)
    manifest = synthgen.write_dataset(cohort, out)
    print(f"wrote {len(cohort.pairs)} pairs, {len(cohort.images)} images "
          f"-> {manifest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

TRAIN_SCHEMA = {
    "data": str, "out": str, "folds": 5, "holdout": 0.15,
    **_defaults(train_mod.TrainConfig(),
                "epochs lr batch_size lam weight_decay seed noise_estimation"),
    "alpha_lr": float,
    **_defaults(train_mod.TrainConfig(), "augment"),
    "naive_baseline": False,
    **_defaults(EncoderConfig(), "conv_widths feature_dim"),
    "jobs": 1, "force": False,
}


# what a train run writes, and `train --force` removes first: a fold that
# a new run does not retrain, or an eval of old folds, must not outlive it
TRAIN_OUTPUTS = ("fold*/", "summary.json", "split.json", "eval/")


def cmd_train(args) -> int:
    cfg = _resolve(args, TRAIN_SCHEMA)
    _require(cfg, "data", "out")
    base = _build(train_mod.TrainConfig, cfg)
    if cfg["jobs"] < 1:
        raise ConfigError(f"jobs must be >= 1, got {cfg['jobs']}")
    manifest = Path(cfg["data"])
    dataset = load_dataset(manifest)
    kind = "naive" if cfg["naive_baseline"] else "siamese"
    enc = _encoder_config(cfg, dataset.image_size)
    plan = split_patientwise(dataset, n_folds=cfg["folds"],
                             holdout_frac=cfg["holdout"], seed=cfg["seed"])
    out = _prepare_run_dir(cfg["out"], cfg["force"],
                           {**cfg, "model_kind": kind,
                            "conv_widths": list(enc.conv_widths)},
                           [manifest], owned=TRAIN_OUTPUTS)
    _write_json(out / "split.json", plan.to_dict())
    losses = train_mod.run_folds(dataset, plan, base, out, encoder_config=enc,
                                 kind=kind, jobs=cfg["jobs"])
    mean, std = float(np.mean(losses)), float(np.std(losses))
    _write_json(out / "summary.json", {
        "model_kind": kind, "val_loss_per_fold": losses,
        "val_loss_mean": mean, "val_loss_std": std,
        "n_folds": plan.n_folds, "param_count_note": "see fold checkpoints"})
    print(f"trained {plan.n_folds} folds -> {out} "
          f"(val loss {mean:.4f} +/- {std:.4f})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

EVAL_SCHEMA = {
    "run": str, "data": str, "out": str, "oracle": False, "tau": float,
    "seed": 0, "permutations": 2000, "force": False,
}


def _dataset_tau(dataset_root, fallback) -> float:
    cfg_path = Path(dataset_root) / "config.json"
    if cfg_path.is_file():
        echo = _read_json_object(cfg_path)
        if "tau" in echo:
            return float(echo["tau"])
    if fallback is None:
        raise ConfigError("--tau required (dataset config.json not found)")
    return float(fallback)


def cmd_eval(args) -> int:
    cfg = _resolve(args, EVAL_SCHEMA)
    _require(cfg, "run")
    run = Path(cfg["run"])
    run_cfg_path = run / "config.json"
    if not run_cfg_path.is_file():
        raise ConfigError(f"not a train run directory (no config.json): {run}")
    data = cfg["data"] or _read_json_object(run_cfg_path).get("data")
    if not isinstance(data, str):
        raise DataError(f"{run_cfg_path}: no manifest path under \"data\" "
                        f"(pass --data)")
    manifest = Path(data)
    dataset = load_dataset(manifest)
    split_path = run / "split.json"
    try:
        plan = SplitPlan.from_dict(_read_json_object(split_path))
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{split_path}: not a split plan: {e!r}") from e

    checkpoints = [run / f"fold{i}" / "checkpoint.npz"
                   for i in range(plan.n_folds)]
    for path in checkpoints:
        if not path.is_file():
            raise ConfigError(f"missing checkpoint: {path}")

    oracle = None
    if cfg["oracle"]:
        tau = _dataset_tau(dataset.root, cfg["tau"])
        oracle = evaluate.SeverityOracle(dataset, tau)

    test_idx = dataset.indices_for_patients(plan.test_patients)
    test_true = np.array([labels.LABEL_TO_INDEX[l]
                          for l in dataset.labels_of(test_idx)])
    metric_rows = []
    fold_summaries = []
    gamma_reports = {}
    recovery = {}
    scatter = None

    for i in range(plan.n_folds):
        model, alpha, meta = load_checkpoint(checkpoints[i])
        cache = {}       # image key -> encoding under this fold's checkpoint
        fold = plan.fold_spec(i)
        val_idx = dataset.indices_for_patients(fold.val_patients)
        scorer = oracle or model
        score = oracle.scores_for if oracle is not None else \
            functools.partial(evaluate.pair_scores, model, dataset, cache=cache)
        if scorer.kind == "naive":
            pred = score(test_idx)["probs"].argmax(axis=1)
            th = None
        else:
            val_scores = score(val_idx)
            test_scores = score(test_idx)
            th = metrics.calibrate_boundary(val_scores["prob_progression"],
                                            val_scores["prob_other"],
                                            dataset.labels_of(val_idx))
            pred = metrics.classify_many(test_scores["prob_progression"],
                                         test_scores["prob_other"], th)
        cm = metrics.confusion_matrix(test_true, pred)
        suite = metrics.metric_suite(cm)
        metric_rows.append({"fold": str(i),
                            **{k: suite[k] for k in metrics.METRIC_KEYS}})
        fold_summaries.append({
            "fold": i, "threshold": None if th is None else th.t,
            "confusion": cm.tolist(),
            "zero_denominator_flags": suite["zero_denominator_flags"],
            "best_epoch": meta.get("best_epoch"),
            "best_val_loss": meta.get("best_val_loss")})

        if scorer.kind == "siamese":
            if alpha is not None:
                train_idx = dataset.indices_for_patients(fold.train_patients)
                try:
                    gamma_reports[f"fold{i}"] = evaluate.gamma_adjacency_report(
                        alpha, dataset, indices=train_idx).to_dict()
                except ConfigError:
                    pass
            if dataset.latents is not None:
                rng = np.random.default_rng(
                    np.random.SeedSequence(cfg["seed"]).spawn(plan.n_folds)[i])
                recovery[f"fold{i}"] = evaluate.severity_recovery(
                    model, dataset, plan.test_patients, rng=rng,
                    n_permutations=cfg["permutations"], cache=cache)
        if i == 0 and scorer.kind != "naive":
            scatter = evaluate.export_delta_scatter(scorer, dataset, cache=cache)

    for name, agg in (("mean", np.mean), ("std", np.std)):
        metric_rows.append({"fold": name, **{
            k: float(agg([float(r[k]) for r in metric_rows[:plan.n_folds]]))
            for k in metrics.METRIC_KEYS}})

    out = _prepare_run_dir(cfg["out"] or run / "eval", cfg["force"], cfg,
                           [manifest, run / "split.json", *checkpoints])
    train_mod.write_csv(out / "metrics.csv", ("fold", *metrics.METRIC_KEYS),
                        metric_rows)
    if scatter is not None:
        train_mod.write_csv(out / "delta_scatter.csv",
                            ("pair_id", "delta", "prob_other", "label", "clean_label"),
                            scatter)
    if gamma_reports:
        _write_json(out / "gamma_report.json", gamma_reports)
    _write_json(out / "summary.json", {
        "model_kind": scorer.kind,
        "folds": fold_summaries, "severity_recovery": recovery})
    print(f"evaluated {plan.n_folds} folds on {len(test_idx)} test pairs -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fewshot
# ---------------------------------------------------------------------------

FEWSHOT_SCHEMA = {
    "checkpoint": list, "out": str, "k_list": "1,2,4,8,16", "reps": 20,
    **_defaults(synthgen.CohortConfig(), "seed"), "n_images": 400, "cutoff": float,
    **_defaults(synthgen.CohortConfig(), "severity_max blob_area noise_std"),
    "force": False,
}


def cmd_fewshot(args) -> int:
    cfg = _resolve(args, FEWSHOT_SCHEMA)
    _require(cfg, "checkpoint", "out")
    entries = []
    for spec in cfg["checkpoint"]:
        name, _, path = spec.rpartition("=")
        entries.append((name or Path(path).stem, Path(path)))
    names = [name for name, _ in entries]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"checkpoint names must differ, got {repeated} "
                          f"more than once (name them as NAME=path)")
    for _, path in entries:
        if not path.is_file():
            raise ConfigError(f"missing checkpoint: {path}")
    ks = _ints(cfg, "k_list")

    models = [load_checkpoint(path)[0] for _, path in entries]
    enc = models[0].config
    for (_, path), model in zip(entries, models):
        if model.config.to_dict() != enc.to_dict():
            raise ConfigError(f"checkpoint {path} has a different input size")
    cohort_cfg = _build(synthgen.CohortConfig, cfg, image_height=enc.in_height,
                        image_width=enc.in_width)
    activity = synthgen.gen_activity_set(cfg["n_images"], cohort_cfg,
                                         seed=cfg["seed"], cutoff=cfg["cutoff"])
    imgs = activity.images[:, None].astype(np.float64) / 255.0

    rows = []
    # checkpoint idx draws its shots from child idx, whatever follows it
    seeds = np.random.SeedSequence(cfg["seed"]).spawn(len(entries))
    for (name, _), model, seed in zip(entries, models, seeds):
        rng = np.random.default_rng(seed)
        embedded = evaluate.embed_batched(model, imgs)
        if model.kind == "naive":
            curve = evaluate.fewshot_curve_logistic(embedded, activity.active,
                                                    ks, cfg["reps"], rng)
        else:
            curve = evaluate.fewshot_curve(embedded[:, 0], activity.active,
                                           ks, cfg["reps"], rng)
        for row in curve:
            rows.append({"model": name, "k": row["k"], "mean": row["mean"],
                         "std": row["std"], "n_reps": cfg["reps"]})
    out = _prepare_run_dir(cfg["out"], cfg["force"],
                           {**cfg, "checkpoint": [f"{n}={p}" for n, p in entries]},
                           [p for _, p in entries])
    train_mod.write_csv(out / "fewshot_curve.csv",
                        ("model", "k", "mean", "std", "n_reps"), rows)
    print(f"few-shot curves for {len(entries)} model(s) -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def cmd_inspect(args) -> int:
    path = Path(args.checkpoint)
    if not path.is_file():
        raise ConfigError(f"missing checkpoint: {path}")
    model, alpha, meta = load_checkpoint(path)
    info = dict(meta)
    info["param_count"] = model.param_count()
    if alpha is not None:
        gammas = alpha.gammas()
        info["alpha_table_size"] = len(alpha)
        info["gamma_min"] = float(gammas.min())
        info["gamma_mean"] = float(gammas.mean())
        info["gamma_max"] = float(gammas.max())
    print(json.dumps(info, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--config", help="JSON settings file; flags override it")
    sp.add_argument("--force", action="store_true", default=None,
                    help="allow writing into a non-empty output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairstate",
        description="Pairwise disease-state learning: synthetic data, "
                    "training, evaluation, few-shot calibration.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, func, schema, helps in (
            ("gen", "generate a synthetic pair dataset", cmd_gen, GEN_SCHEMA, {}),
            ("train", "cross-validated training", cmd_train, TRAIN_SCHEMA,
             {"data": "path to manifest.jsonl"}),
            ("eval", "calibrate and score a train run", cmd_eval, EVAL_SCHEMA,
             {"run": "train run directory", "data": "manifest override",
              "oracle": "score with the ground-truth severity oracle"}),
            ("fewshot", "few-shot activity calibration curves", cmd_fewshot,
             FEWSHOT_SCHEMA,
             {"checkpoint": "NAME=path/to/checkpoint.npz (repeatable)"})):
        sp = sub.add_parser(name, help=text)
        _add_common(sp)
        # one --key-with-dashes flag per setting but force (_add_common's),
        # typed by its default or declared type: a bool is --x/--no-x, a
        # list repeats, an int or float is parsed, the rest stay strings
        for key, spec in schema.items():
            if key == "force":
                continue
            kind = spec if isinstance(spec, type) else type(spec)
            if kind is bool:
                kw = {"action": argparse.BooleanOptionalAction}
            elif kind is list:
                kw = {"action": "append"}
            else:
                kw = {"type": kind} if kind in (int, float) else {}
            sp.add_argument("--" + key.replace("_", "-"), dest=key,
                            help=helps.get(key), **kw)
        sp.set_defaults(func=func)

    i = sub.add_parser("inspect", help="print checkpoint metadata")
    i.add_argument("checkpoint")
    i.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (TrainingDiverged, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
