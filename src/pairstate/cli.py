"""Command-line entry point: gen | train | eval | fewshot | inspect.

Settings come from an optional JSON config file (--config) merged with
command-line flags; flags win. Unknown config keys are rejected. Every run
directory receives the resolved config echo and SHA-256 hashes of its
declared file inputs, and is never overwritten without --force.

Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluate, labels, metrics, synthgen, train as train_mod
from .errors import ConfigError, DataError, TrainingDiverged
from .model import load_checkpoint
from .nn import EncoderConfig
from .pipeline import SplitPlan, load_dataset, split_patientwise

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _prepare_run_dir(out, force: bool, config: dict, input_files) -> Path:
    out = Path(out)
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigError(f"output directory {out} exists and is not empty "
                          f"(use --force to overwrite)")
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", config)
    lines = [f"{_sha256(p)}  {Path(p).name}" for p in input_files]
    (out / "inputs.sha256").write_text("".join(line + "\n" for line in lines),
                                       encoding="utf-8")
    return out


def _resolve(args, schema: dict) -> dict:
    """Merge JSON config file and flags; flags win; unknown keys rejected."""
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
    for key, default in schema.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    return resolved


def _fits(value, default) -> bool:
    """Whether a config file value has its schema default's type. An int
    fits a float, a list or string fits conv_widths (the one tuple), and
    anything fits None."""
    if default is None:
        return True
    kind = {tuple: (list, str), float: (int, float)}.get(type(default),
                                                         type(default))
    return isinstance(value, kind) and isinstance(value, bool) == isinstance(default, bool)


def _require(cfg: dict, *keys) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing required settings: {missing} "
                          f"(pass as flags or in --config)")


def _encoder_config(cfg, image_size) -> EncoderConfig:
    widths = cfg["conv_widths"]
    if isinstance(widths, str):
        widths = tuple(int(x) for x in widths.split(",") if x)
    return EncoderConfig(in_height=image_size[0], in_width=image_size[1],
                         conv_widths=tuple(widths),
                         feature_dim=cfg["feature_dim"])


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

GEN_SCHEMA = {
    "out": None, "seed": 0, "n_patients": 40, "visits": 8, "scans": 8,
    "height": 32, "width": 64, "tau": 1.0, "flip_rate": 0.0,
    "other_rate": 0.05, "scan_jitter": 0.1, "severity_step": 1.5,
    "severity_max": 10.0, "blob_area": 14.0, "noise_std": 6.0, "force": False,
}


def cmd_gen(args) -> int:
    cfg = _resolve(args, GEN_SCHEMA)
    _require(cfg, "out")
    cohort_config = synthgen.CohortConfig(
        n_patients=cfg["n_patients"], visits_per_patient=cfg["visits"],
        scans_per_volume=cfg["scans"], image_height=cfg["height"],
        image_width=cfg["width"], tau=cfg["tau"], flip_rate=cfg["flip_rate"],
        other_rate=cfg["other_rate"], scan_jitter=cfg["scan_jitter"],
        severity_step=cfg["severity_step"], severity_max=cfg["severity_max"],
        blob_area_per_severity=cfg["blob_area"], noise_std=cfg["noise_std"],
        seed=cfg["seed"])
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
    "data": None, "out": None, "folds": 5, "holdout": 0.15, "epochs": 60,
    "lr": 1e-4, "batch_size": 32, "lam": 0.15, "weight_decay": 1e-2,
    "seed": 0, "noise_estimation": False, "alpha_lr": None, "augment": True,
    "naive_baseline": False, "conv_widths": (8, 16, 32), "feature_dim": 64,
    "jobs": 1, "force": False,
}


def cmd_train(args) -> int:
    cfg = _resolve(args, TRAIN_SCHEMA)
    _require(cfg, "data", "out")
    manifest = Path(cfg["data"])
    dataset = load_dataset(manifest)
    kind = "naive" if cfg["naive_baseline"] else "siamese"
    enc = _encoder_config(cfg, dataset.image_size)
    plan = split_patientwise(dataset, n_folds=cfg["folds"],
                             holdout_frac=cfg["holdout"], seed=cfg["seed"])
    out = _prepare_run_dir(cfg["out"], cfg["force"],
                           {**cfg, "model_kind": kind,
                            "conv_widths": list(enc.conv_widths)},
                           [manifest])
    _write_json(out / "split.json", plan.to_dict())

    base = train_mod.TrainConfig(
        lr=cfg["lr"], epochs=cfg["epochs"], batch_size=cfg["batch_size"],
        lam=cfg["lam"], weight_decay=cfg["weight_decay"], seed=cfg["seed"],
        noise_estimation=cfg["noise_estimation"], alpha_lr=cfg["alpha_lr"],
        augment=cfg["augment"])
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
    "run": None, "data": None, "out": None, "oracle": False, "tau": None,
    "seed": 0, "permutations": 2000, "force": False,
}


def _dataset_tau(dataset_root, fallback) -> float:
    cfg_path = Path(dataset_root) / "config.json"
    if cfg_path.is_file():
        echo = json.loads(cfg_path.read_text(encoding="utf-8"))
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
    run_cfg = json.loads(run_cfg_path.read_text(encoding="utf-8"))
    manifest = Path(cfg["data"] or run_cfg["data"])
    dataset = load_dataset(manifest)
    plan = SplitPlan.from_dict(
        json.loads((run / "split.json").read_text(encoding="utf-8")))

    checkpoints = [run / f"fold{i}" / "checkpoint.npz"
                   for i in range(plan.n_folds)]
    for path in checkpoints:
        if not path.is_file():
            raise ConfigError(f"missing checkpoint: {path}")

    out = _prepare_run_dir(cfg["out"] or run / "eval", cfg["force"], cfg,
                           [manifest, run / "split.json", *checkpoints])

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
    scatter_scorer = scatter_cache = None

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
            scatter_scorer, scatter_cache = scorer, cache

    for name, agg in (("mean", np.mean), ("std", np.std)):
        metric_rows.append({"fold": name, **{
            k: float(agg([float(r[k]) for r in metric_rows[:plan.n_folds]]))
            for k in metrics.METRIC_KEYS}})
    train_mod.write_csv(out / "metrics.csv", ("fold", *metrics.METRIC_KEYS),
                        metric_rows)

    if scatter_scorer is not None:
        train_mod.write_csv(out / "delta_scatter.csv",
                            ("pair_id", "delta", "prob_other", "label", "clean_label"),
                            evaluate.export_delta_scatter(scatter_scorer, dataset,
                                                          cache=scatter_cache))
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
    "checkpoint": None, "out": None, "k_list": "1,2,4,8,16", "reps": 20,
    "seed": 0, "n_images": 400, "cutoff": None, "severity_max": 10.0,
    "blob_area": 14.0, "noise_std": 6.0, "force": False,
}


def cmd_fewshot(args) -> int:
    cfg = _resolve(args, FEWSHOT_SCHEMA)
    _require(cfg, "checkpoint", "out")
    specs = cfg["checkpoint"]
    if isinstance(specs, str):
        specs = [specs]
    entries = []
    for spec in specs:
        name, _, path = spec.rpartition("=")
        if not name:
            name = Path(path).stem
        entries.append((name, Path(path)))
    for _, path in entries:
        if not path.is_file():
            raise ConfigError(f"missing checkpoint: {path}")

    ks = [int(x) for x in str(cfg["k_list"]).split(",") if x]
    out = _prepare_run_dir(cfg["out"], cfg["force"],
                           {**cfg, "checkpoint": [f"{n}={p}" for n, p in entries]},
                           [p for _, p in entries])

    models = [load_checkpoint(path)[0] for _, path in entries]
    enc = models[0].config
    for (_, path), model in zip(entries, models):
        if model.config.to_dict() != enc.to_dict():
            raise ConfigError(f"checkpoint {path} has a different input size")
    cohort_cfg = synthgen.CohortConfig(
        image_height=enc.in_height, image_width=enc.in_width,
        severity_max=cfg["severity_max"], blob_area_per_severity=cfg["blob_area"],
        noise_std=cfg["noise_std"], seed=cfg["seed"])
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

    g = sub.add_parser("gen", help="generate a synthetic pair dataset")
    _add_common(g)
    g.add_argument("--out")
    g.add_argument("--seed", type=int)
    g.add_argument("--n-patients", dest="n_patients", type=int)
    g.add_argument("--visits", type=int)
    g.add_argument("--scans", type=int)
    g.add_argument("--height", type=int)
    g.add_argument("--width", type=int)
    g.add_argument("--tau", type=float)
    g.add_argument("--flip-rate", dest="flip_rate", type=float)
    g.add_argument("--other-rate", dest="other_rate", type=float)
    g.add_argument("--scan-jitter", dest="scan_jitter", type=float)
    g.add_argument("--severity-step", dest="severity_step", type=float)
    g.add_argument("--severity-max", dest="severity_max", type=float)
    g.add_argument("--blob-area", dest="blob_area", type=float)
    g.add_argument("--noise-std", dest="noise_std", type=float)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="cross-validated training")
    _add_common(t)
    t.add_argument("--data", help="path to manifest.jsonl")
    t.add_argument("--out")
    t.add_argument("--folds", type=int)
    t.add_argument("--holdout", type=float)
    t.add_argument("--epochs", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--batch-size", dest="batch_size", type=int)
    t.add_argument("--lam", type=float)
    t.add_argument("--weight-decay", dest="weight_decay", type=float)
    t.add_argument("--seed", type=int)
    t.add_argument("--noise-estimation", dest="noise_estimation",
                   action=argparse.BooleanOptionalAction)
    t.add_argument("--alpha-lr", dest="alpha_lr", type=float)
    t.add_argument("--augment", action=argparse.BooleanOptionalAction)
    t.add_argument("--naive-baseline", dest="naive_baseline",
                   action=argparse.BooleanOptionalAction)
    t.add_argument("--conv-widths", dest="conv_widths")
    t.add_argument("--feature-dim", dest="feature_dim", type=int)
    t.add_argument("--jobs", type=int)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="calibrate and score a train run")
    _add_common(e)
    e.add_argument("--run", help="train run directory")
    e.add_argument("--data", help="manifest override")
    e.add_argument("--out")
    e.add_argument("--oracle", action=argparse.BooleanOptionalAction,
                   help="score with the ground-truth severity oracle")
    e.add_argument("--tau", type=float)
    e.add_argument("--seed", type=int)
    e.add_argument("--permutations", type=int)
    e.set_defaults(func=cmd_eval)

    f = sub.add_parser("fewshot", help="few-shot activity calibration curves")
    _add_common(f)
    f.add_argument("--checkpoint", action="append",
                   help="NAME=path/to/checkpoint.npz (repeatable)")
    f.add_argument("--out")
    f.add_argument("--k-list", dest="k_list")
    f.add_argument("--reps", type=int)
    f.add_argument("--seed", type=int)
    f.add_argument("--n-images", dest="n_images", type=int)
    f.add_argument("--cutoff", type=float)
    f.add_argument("--severity-max", dest="severity_max", type=float)
    f.add_argument("--blob-area", dest="blob_area", type=float)
    f.add_argument("--noise-std", dest="noise_std", type=float)
    f.set_defaults(func=cmd_fewshot)

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
