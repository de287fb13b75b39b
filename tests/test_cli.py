"""End-to-end command-line behavior: subcommands, config merging, exit
codes, run-directory contracts."""

import json
import shutil

import numpy as np
import pytest

from pairstate.cli import main
from pairstate.model import load_checkpoint, save_checkpoint
from pairstate.pipeline import load_dataset


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    # seed chosen so the held-out test patients cover all four classes and
    # the oracle separates every fold's calibration perfectly
    out = tmp_path_factory.mktemp("cli") / "ds"
    code = run("gen", "--out", out, "--seed", 1, "--n-patients", 10,
               "--visits", 4, "--scans", 2, "--height", 16, "--width", 32,
               "--other-rate", 0.2)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def train_dir(gen_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = run("train", "--data", gen_dir / "manifest.jsonl", "--out", out,
               "--folds", 2, "--epochs", 2, "--batch-size", 8,
               "--conv-widths", "2,3", "--feature-dim", 6, "--seed", 3,
               "--no-augment", "--lr", 1e-3)
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_deterministic(tmp_path):
    a = tmp_path / "d1"
    b = tmp_path / "d2"
    for out in (a, b):
        assert run("gen", "--out", out, "--seed", 7, "--n-patients", 4,
                   "--visits", 2, "--scans", 2, "--height", 16,
                   "--width", 16) == 0
    assert (a / "manifest.jsonl").read_bytes() == (b / "manifest.jsonl").read_bytes()
    img = next((a / "images").iterdir()).name
    assert (a / "images" / img).read_bytes() == (b / "images" / img).read_bytes()


def test_gen_missing_out_is_usage_error():
    assert run("gen", "--seed", 1) == 2


def test_gen_refuses_overwrite(tmp_path):
    out = tmp_path / "d"
    args = ("gen", "--out", out, "--seed", 1, "--n-patients", 2, "--visits", 2,
            "--scans", 1, "--height", 16, "--width", 16)
    assert run(*args) == 0
    assert run(*args) == 2
    assert run(*args, "--force") == 0


def test_gen_output_loads(gen_dir):
    ds = load_dataset(gen_dir / "manifest.jsonl")
    assert len(ds.pairs) == 10 * 3 * 2
    assert (gen_dir / "config.json").is_file()
    assert (gen_dir / "inputs.sha256").is_file()


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "n_patients": 2, "visits": 2,
                               "scans": 1, "height": 16, "width": 16}))
    out = tmp_path / "d"
    assert run("gen", "--config", cfg, "--out", out, "--seed", 9) == 0
    echo = json.loads((out / "config.json").read_text())
    assert echo["seed"] == 9           # flag wins
    assert echo["n_patients"] == 2     # file value used


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": "x", "bogus_key": 1}))
    assert run("gen", "--config", cfg) == 2


def test_config_file_not_an_object_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(["seed"]))
    assert run("gen", "--config", cfg, "--out", tmp_path / "d") == 2
    assert "expected a JSON object, got list" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def _rejects_config(tmp_path, capsys, command, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert run(command, "--config", cfg, "--out", tmp_path / "d") == 2
    assert "wrong value types" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("values", [
    {"n_patients": "many"}, {"tau": "1.0"}, {"seed": 1.5}, {"seed": True},
    {"force": 1}, {"n_patients": None}])
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, values):
    _rejects_config(tmp_path, capsys, "gen", values)


@pytest.mark.parametrize("command, values", [
    ("train", {"alpha_lr": "x"}), ("eval", {"tau": "1.0"}),
    ("fewshot", {"cutoff": "5"}), ("fewshot", {"checkpoint": "a=x.npz"}),
    ("fewshot", {"checkpoint": [1]}), ("train", {"data": 1})])
def test_config_value_without_default_type_checked(tmp_path, capsys, command,
                                                   values):
    _rejects_config(tmp_path, capsys, command, values)


def test_config_value_types_that_fit(tmp_path):
    import argparse
    from pairstate.cli import TRAIN_SCHEMA, _resolve
    cfg = tmp_path / "cfg.json"
    for widths in ([2, 3], "2,3"):
        # an int fits a float; null leaves a setting with no default unset
        values = {"holdout": 0, "lr": 1, "alpha_lr": 2, "data": None,
                  "conv_widths": widths}
        cfg.write_text(json.dumps(values))
        resolved = _resolve(argparse.Namespace(config=str(cfg)), TRAIN_SCHEMA)
        assert {k: resolved[k] for k in values} == values


# (command, flag, token or None, setting, resolved value of that exact type)
FLAGS = [
    ("gen", "--out", "d", "out", "d"), ("gen", "--seed", "3", "seed", 3),
    ("gen", "--n-patients", "4", "n_patients", 4),
    ("gen", "--visits", "5", "visits", 5), ("gen", "--scans", "6", "scans", 6),
    ("gen", "--height", "16", "height", 16), ("gen", "--width", "48", "width", 48),
    ("gen", "--tau", "2", "tau", 2.0), ("gen", "--flip-rate", "0.25", "flip_rate", 0.25),
    ("gen", "--other-rate", "0.5", "other_rate", 0.5),
    ("gen", "--scan-jitter", "0.2", "scan_jitter", 0.2),
    ("gen", "--severity-step", "1.25", "severity_step", 1.25),
    ("gen", "--severity-max", "9", "severity_max", 9.0),
    ("gen", "--blob-area", "12.5", "blob_area", 12.5),
    ("gen", "--noise-std", "3", "noise_std", 3.0),
    ("gen", "--force", None, "force", True),
    ("train", "--data", "m.jsonl", "data", "m.jsonl"),
    ("train", "--out", "r", "out", "r"), ("train", "--folds", "3", "folds", 3),
    ("train", "--holdout", "0.2", "holdout", 0.2),
    ("train", "--epochs", "7", "epochs", 7), ("train", "--lr", "0.001", "lr", 0.001),
    ("train", "--batch-size", "16", "batch_size", 16),
    ("train", "--lam", "0.3", "lam", 0.3),
    ("train", "--weight-decay", "0.05", "weight_decay", 0.05),
    ("train", "--seed", "2", "seed", 2),
    ("train", "--noise-estimation", None, "noise_estimation", True),
    ("train", "--no-noise-estimation", None, "noise_estimation", False),
    ("train", "--alpha-lr", "0.02", "alpha_lr", 0.02),
    ("train", "--augment", None, "augment", True),
    ("train", "--no-augment", None, "augment", False),
    ("train", "--naive-baseline", None, "naive_baseline", True),
    ("train", "--no-naive-baseline", None, "naive_baseline", False),
    ("train", "--conv-widths", "4,8", "conv_widths", "4,8"),
    ("train", "--feature-dim", "12", "feature_dim", 12),
    ("train", "--jobs", "2", "jobs", 2), ("train", "--force", None, "force", True),
    ("eval", "--run", "r", "run", "r"), ("eval", "--data", "m", "data", "m"),
    ("eval", "--out", "e", "out", "e"), ("eval", "--oracle", None, "oracle", True),
    ("eval", "--no-oracle", None, "oracle", False),
    ("eval", "--tau", "1.5", "tau", 1.5), ("eval", "--seed", "4", "seed", 4),
    ("eval", "--permutations", "50", "permutations", 50),
    ("eval", "--force", None, "force", True),
    ("fewshot", "--checkpoint", "a=x.npz", "checkpoint", ["a=x.npz"]),
    ("fewshot", "--out", "f", "out", "f"),
    ("fewshot", "--k-list", "1,3", "k_list", "1,3"),
    ("fewshot", "--reps", "5", "reps", 5), ("fewshot", "--seed", "6", "seed", 6),
    ("fewshot", "--n-images", "80", "n_images", 80),
    ("fewshot", "--cutoff", "4.5", "cutoff", 4.5),
    ("fewshot", "--severity-max", "8", "severity_max", 8.0),
    ("fewshot", "--blob-area", "10", "blob_area", 10.0),
    ("fewshot", "--noise-std", "2", "noise_std", 2.0),
    ("fewshot", "--force", None, "force", True),
]


@pytest.mark.parametrize("command, flag, token, key, value", FLAGS)
def test_each_flag_sets_its_setting(command, flag, token, key, value):
    from pairstate import cli
    schema = {"gen": cli.GEN_SCHEMA, "train": cli.TRAIN_SCHEMA,
              "eval": cli.EVAL_SCHEMA, "fewshot": cli.FEWSHOT_SCHEMA}[command]
    argv = [command, flag] + ([] if token is None else [token])
    resolved = cli._resolve(cli.build_parser().parse_args(argv), schema)
    assert resolved[key] == value
    assert type(resolved[key]) is type(value)
    set_by_flag = {k for k, v in resolved.items() if v != schema[k]
                   and not (v is None and isinstance(schema[k], type))}
    assert set_by_flag <= {key}


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_run_layout(train_dir):
    for i in range(2):
        assert (train_dir / f"fold{i}" / "checkpoint.npz").is_file()
        history = (train_dir / f"fold{i}" / "history.csv").read_text().splitlines()
        assert len(history) == 1 + 2      # header + one row per epoch
    assert (train_dir / "split.json").is_file()
    summary = json.loads((train_dir / "summary.json").read_text())
    assert summary["model_kind"] == "siamese"
    assert len(summary["val_loss_per_fold"]) == 2


def test_train_naive_baseline_metadata(gen_dir, tmp_path):
    out = tmp_path / "naive_run"
    assert run("train", "--data", gen_dir / "manifest.jsonl", "--out", out,
               "--folds", 2, "--epochs", 1, "--batch-size", 8,
               "--conv-widths", "2,3", "--feature-dim", 6, "--seed", 3,
               "--no-augment", "--naive-baseline") == 0
    from pairstate.model import load_checkpoint
    model, alpha, meta = load_checkpoint(out / "fold0" / "checkpoint.npz")
    assert meta["kind"] == "naive"
    assert alpha is None
    assert json.loads((out / "summary.json").read_text())["model_kind"] == "naive"


def test_train_missing_data_usage_error(tmp_path):
    assert run("train", "--out", tmp_path / "x") == 2


def test_train_divergence_exit_code(gen_dir, tmp_path):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run("train", "--data", gen_dir / "manifest.jsonl",
                   "--out", tmp_path / "div", "--folds", 2, "--epochs", 1,
                   "--batch-size", 8, "--conv-widths", "2,3",
                   "--feature-dim", 6, "--seed", 3, "--no-augment",
                   "--lr", 1e200) == 4


def test_train_parallel_folds_match_sequential(gen_dir, tmp_path):
    outs = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert run("train", "--data", gen_dir / "manifest.jsonl", "--out", out,
                   "--folds", 2, "--epochs", 1, "--batch-size", 8,
                   "--conv-widths", "2,3", "--feature-dim", 6, "--seed", 3,
                   "--no-augment", "--lr", 1e-3, "--jobs", jobs) == 0
        outs[jobs] = out
    for fold in ("fold0", "fold1"):
        for name in ("history.csv", "checkpoint.npz"):
            assert (outs[1] / fold / name).read_bytes() == \
                (outs[2] / fold / name).read_bytes()


def test_train_force_removes_stale_outputs(gen_dir, tmp_path):
    # --force --folds 2 over an evaluated 3-fold run keeps none of the old
    # run's folds, split, summary or default eval; other files stay
    out = tmp_path / "run"
    common = ("train", "--data", gen_dir / "manifest.jsonl", "--out", out,
              "--epochs", 1, "--batch-size", 8, "--conv-widths", "2,3",
              "--feature-dim", 6, "--no-augment")
    assert run(*common, "--folds", 3, "--seed", 3) == 0
    assert run("eval", "--run", out, "--oracle", "--permutations", 10) == 0
    assert (out / "eval" / "metrics.csv").is_file()
    (out / "notes.txt").write_text("kept")
    assert run(*common, "--folds", 2, "--seed", 4, "--force") == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "config.json", "fold0", "fold1", "inputs.sha256", "notes.txt",
        "split.json", "summary.json"]
    assert json.loads((out / "split.json").read_text())["n_folds"] == 2
    assert json.loads((out / "summary.json").read_text())["n_folds"] == 2


@pytest.mark.parametrize("jobs", [0, -1])
def test_train_jobs_below_one_usage_error(gen_dir, tmp_path, capsys, jobs):
    assert run("train", "--data", gen_dir / "manifest.jsonl",
               "--out", tmp_path / "x", "--folds", 2, "--epochs", 1,
               "--jobs", jobs) == 2
    assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("train", ["--lr", 0], "lr must be positive, got 0.0"),
    ("train", ["--conv-widths", "2,a"], "conv_widths must be comma-separated"),
    ("train", ["--feature-dim", 0], "feature_dim must be >= 1"),
    ("train", ["--conv-widths=2,-3"], "conv widths must be >= 1, got (2, -3)"),
    ("eval", ["--permutations", 0], "n_permutations must be >= 1, got 0"),
    ("eval", ["--permutations", -5], "n_permutations must be >= 1, got -5"),
    ("fewshot", ["--k-list", "0"], "k must be >= 1, got 0"),
    ("fewshot", ["--k-list", "a"], "k_list must be comma-separated integers"),
    ("fewshot", ["--reps", 0], "repetitions must be >= 1, got 0"),
    ("fewshot", ["--n-images", 1], "need at least 2 images"),
    ("train", ["--weight-decay", -1], "weight_decay must be >= 0, got -1.0"),
    ("fewshot", ["--k-list", ","], "k_list must name at least one k"),
    ("gen", ["--seed", -1], "seed must be >= 0, got -1"),
    ("train", ["--seed", -1], "seed must be >= 0, got -1"),
    ("eval", ["--seed", -1], "seed must be >= 0, got -1"),
    ("fewshot", ["--seed", -1], "seed must be >= 0, got -1"),
])
def test_bad_setting_usage_error_writes_nothing(gen_dir, train_dir, tmp_path,
                                                capsys, command, flags, message):
    required = {
        "gen": ["--n-patients", 2],
        "train": ["--data", gen_dir / "manifest.jsonl", "--folds", 2,
                  "--epochs", 1, "--conv-widths", "2,3", "--feature-dim", 6],
        "eval": ["--run", train_dir],
        "fewshot": ["--checkpoint", train_dir / "fold0" / "checkpoint.npz",
                    "--n-images", 60],
    }[command]
    assert run(command, *required, "--out", tmp_path / "x", *flags) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_train_bad_manifest_io_error(tmp_path):
    assert run("train", "--data", tmp_path / "nope.jsonl",
               "--out", tmp_path / "x") == 3


def test_train_negative_pair_id_io_error(gen_dir, tmp_path):
    lines = (gen_dir / "manifest.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    rec["pair_id"] = -1
    (tmp_path / "manifest.jsonl").write_text(
        "\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    (tmp_path / "images").symlink_to(gen_dir / "images")
    assert run("train", "--data", tmp_path / "manifest.jsonl",
               "--out", tmp_path / "x") == 3
    assert not (tmp_path / "x").exists()


def test_train_bad_clean_label_io_error(gen_dir, tmp_path):
    lines = (gen_dir / "manifest.jsonl").read_text().splitlines()
    rec = json.loads(lines[1])
    rec["clean_label"] = "IMPROVED"
    (tmp_path / "manifest.jsonl").write_text(
        "\n".join([lines[0], json.dumps(rec)] + lines[2:]) + "\n")
    (tmp_path / "images").symlink_to(gen_dir / "images")
    assert run("train", "--data", tmp_path / "manifest.jsonl",
               "--out", tmp_path / "x") == 3
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_oracle_perfect_metrics(train_dir, tmp_path):
    out = tmp_path / "eval_oracle"
    assert run("eval", "--run", train_dir, "--out", out, "--oracle") == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["fold", "f1", "rk", "specificity", "bal_acc",
                      "precision", "recall"]
    mean_row = dict(zip(header, lines[-2].split(",")))
    assert mean_row["fold"] == "mean"
    for key in ("f1", "rk", "specificity", "bal_acc", "precision", "recall"):
        assert float(mean_row[key]) == pytest.approx(1.0)


def test_eval_real_model_outputs(train_dir, tmp_path, gen_dir):
    out = tmp_path / "eval_real"
    assert run("eval", "--run", train_dir, "--out", out) == 0
    ds = load_dataset(gen_dir / "manifest.jsonl")
    scatter = (out / "delta_scatter.csv").read_text().splitlines()
    assert len(scatter) == 1 + len(ds.pairs)
    header = scatter[0].split(",")
    for line in scatter[1:4]:
        row = dict(zip(header, line.split(",")))
        float(row["delta"])
        float(row["prob_other"])
    summary = json.loads((out / "summary.json").read_text())
    assert "severity_recovery" in summary


def test_eval_reruns_byte_identical(train_dir, tmp_path):
    outs = [tmp_path / "e1", tmp_path / "e2"]
    for out in outs:
        assert run("eval", "--run", train_dir, "--out", out,
                   "--permutations", 50) == 0
    for name in ("metrics.csv", "delta_scatter.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_eval_missing_run_usage_error(tmp_path):
    assert run("eval", "--run", tmp_path / "missing") == 2


@pytest.mark.parametrize("name, text", [
    ("split.json", "{not json"),
    ("split.json", '{"seed": 1}'),
    ("split.json", '{"seed": 1, "n_folds": 3, "holdout_frac": 0.15, '
                   '"test_patients": [0], "folds": [[1], [2]]}'),
    ("split.json", "[]"),
    ("config.json", "[1, 2]"),
    ("config.json", '{"seed": 1}'),
    ("config.json", "{not json"),
], ids=["split-not-json", "split-no-folds", "split-fold-count", "split-list",
        "config-list", "config-no-data", "config-not-json"])
def test_eval_malformed_run_file_io_error(train_dir, tmp_path, capsys, name, text):
    rn = tmp_path / "run"
    shutil.copytree(train_dir, rn)
    (rn / name).write_text(text)
    assert run("eval", "--run", rn, "--out", tmp_path / "ev") == 3
    assert f"{rn / name}:" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_eval_naive_run(gen_dir, tmp_path):
    rn = tmp_path / "naive_run"
    assert run("train", "--data", gen_dir / "manifest.jsonl", "--out", rn,
               "--folds", 2, "--epochs", 1, "--batch-size", 8,
               "--conv-widths", "2,3", "--feature-dim", 6, "--seed", 3,
               "--no-augment", "--naive-baseline") == 0
    out = tmp_path / "naive_eval"
    assert run("eval", "--run", rn, "--out", out) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("fold,f1,rk,")
    assert len(lines) == 1 + 2 + 2        # folds + mean + std


# ---------------------------------------------------------------------------
# fewshot
# ---------------------------------------------------------------------------

def test_fewshot_curves_multi_model(train_dir, gen_dir, tmp_path):
    rn = tmp_path / "naive_for_fs"
    assert run("train", "--data", gen_dir / "manifest.jsonl", "--out", rn,
               "--folds", 2, "--epochs", 1, "--batch-size", 8,
               "--conv-widths", "2,3", "--feature-dim", 6, "--seed", 3,
               "--no-augment", "--naive-baseline") == 0
    out = tmp_path / "fs"
    assert run("fewshot",
               "--checkpoint", f"ours={train_dir / 'fold0' / 'checkpoint.npz'}",
               "--checkpoint", f"naive={rn / 'fold0' / 'checkpoint.npz'}",
               "--out", out, "--k-list", "1,2", "--reps", 2,
               "--n-images", 60, "--seed", 5) == 0
    lines = (out / "fewshot_curve.csv").read_text().splitlines()
    assert lines[0] == "model,k,mean,std,n_reps"
    assert len(lines) == 1 + 2 * 2        # 2 models x 2 shot counts
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["ours", "ours", "naive", "naive"]
    assert [r[1] for r in rows] == ["1", "2", "1", "2"]
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)


def test_fewshot_deterministic(train_dir, tmp_path):
    ck = train_dir / "fold0" / "checkpoint.npz"
    outs = [tmp_path / "fs1", tmp_path / "fs2"]
    for out in outs:
        assert run("fewshot", "--checkpoint", f"ours={ck}", "--out", out,
                   "--k-list", "1", "--reps", 3, "--n-images", 60,
                   "--seed", 8) == 0
    assert (outs[0] / "fewshot_curve.csv").read_bytes() == \
        (outs[1] / "fewshot_curve.csv").read_bytes()


def _fewshot_rows(out):
    return (out / "fewshot_curve.csv").read_text().splitlines()[1:]


def test_fewshot_seed_independent_of_later_checkpoints(train_dir, tmp_path):
    # checkpoint idx draws from child idx of SeedSequence(seed), so listing
    # more checkpoints after it leaves its rows unchanged
    cks = [f"{name}={train_dir / fold / 'checkpoint.npz'}"
           for name, fold in (("a", "fold0"), ("b", "fold1"), ("c", "fold0"))]
    rows = {}
    for n in (2, 3):
        out = tmp_path / f"fs{n}"
        flags = [x for ck in cks[:n] for x in ("--checkpoint", ck)]
        assert run("fewshot", *flags, "--out", out, "--k-list", "1,2",
                   "--reps", 4, "--n-images", 60, "--seed", 5) == 0
        rows[n] = [r for r in _fewshot_rows(out) if r.startswith("b,")]
    assert len(rows[2]) == 2
    assert rows[2] == rows[3]


def test_fewshot_loads_each_checkpoint_once(train_dir, tmp_path, monkeypatch):
    from pairstate import cli
    loaded = []

    def counting_load(path):
        loaded.append(str(path))
        return real_load(path)

    real_load = cli.load_checkpoint
    monkeypatch.setattr(cli, "load_checkpoint", counting_load)
    cks = [train_dir / "fold0" / "checkpoint.npz",
           train_dir / "fold1" / "checkpoint.npz"]
    assert run("fewshot", "--checkpoint", f"a={cks[0]}", "--checkpoint",
               f"b={cks[1]}", "--out", tmp_path / "fs", "--k-list", "1",
               "--reps", 2, "--n-images", 60, "--seed", 5) == 0
    assert loaded == [str(p) for p in cks]


def test_fewshot_missing_checkpoint(tmp_path):
    assert run("fewshot", "--checkpoint", f"x={tmp_path}/no.npz",
               "--out", tmp_path / "fs") == 2


@pytest.mark.parametrize("names", [("", ""), ("a", "a")])
def test_fewshot_repeated_checkpoint_name_usage_error(train_dir, tmp_path, capsys,
                                                      names):
    # unnamed fold0/fold1 checkpoints are both named "checkpoint"
    flags = [x for name, fold in zip(names, ("fold0", "fold1"))
             for x in ("--checkpoint",
                       f"{name}={train_dir / fold / 'checkpoint.npz'}".lstrip("="))]
    assert run("fewshot", *flags, "--out", tmp_path / "fs",
               "--n-images", 60) == 2
    repeated = names[0] or "checkpoint"
    assert f"checkpoint names must differ, got ['{repeated}']" in \
        capsys.readouterr().err
    assert not (tmp_path / "fs").exists()


def test_fewshot_empty_checkpoint_list_is_missing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checkpoint": []}))
    assert run("fewshot", "--config", cfg, "--out", tmp_path / "fs") == 2
    assert "missing required settings: ['checkpoint']" in capsys.readouterr().err
    assert not (tmp_path / "fs").exists()


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def test_inspect_prints_metadata(train_dir, capsys):
    assert run("inspect", train_dir / "fold0" / "checkpoint.npz") == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kind"] == "siamese"
    assert info["param_count"] > 0
    assert "gamma_mean" in info


def test_inspect_unsupported_checkpoint_version_io_error(train_dir, tmp_path, capsys):
    model, alpha, _ = load_checkpoint(train_dir / "fold0" / "checkpoint.npz")
    path = tmp_path / "future.npz"
    save_checkpoint(path, model, alpha_table=alpha, meta={"format_version": 2})
    assert run("inspect", path) == 3
    assert "unsupported checkpoint version 2" in capsys.readouterr().err


def test_inspect_not_an_npz_io_error(tmp_path, capsys):
    path = tmp_path / "notes.npz"
    path.write_text("not a checkpoint\n")
    assert run("inspect", path) == 3
    assert "not a readable checkpoint" in capsys.readouterr().err


def test_inspect_npz_without_meta_io_error(tmp_path, capsys):
    path = tmp_path / "nometa.npz"
    np.savez(path, **{"param/x": np.zeros(3)})
    assert run("inspect", path) == 3
    assert "not a readable checkpoint" in capsys.readouterr().err


def test_inspect_npy_array_io_error(tmp_path, capsys):
    path = tmp_path / "array.npy"
    np.save(path, np.zeros(3))
    assert run("inspect", path) == 3
    assert "not a readable checkpoint" in capsys.readouterr().err


def test_inspect_malformed_meta_io_error(tmp_path, capsys):
    path = tmp_path / "badmeta.npz"
    np.savez(path, meta=np.frombuffer(b'{"kind": "siamese",', dtype=np.uint8))
    assert run("inspect", path) == 3
    assert "not a readable checkpoint" in capsys.readouterr().err
