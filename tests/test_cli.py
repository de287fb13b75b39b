"""End-to-end command-line behavior: subcommands, config merging, exit
codes, run-directory contracts."""

import json

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


@pytest.mark.parametrize("values", [
    {"n_patients": "many"}, {"tau": "1.0"}, {"seed": 1.5}, {"seed": True},
    {"force": 1}, {"n_patients": None}])
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert run("gen", "--config", cfg, "--out", tmp_path / "d") == 2
    assert "wrong value types" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_config_value_types_that_fit(tmp_path):
    import argparse
    from pairstate.cli import TRAIN_SCHEMA, _resolve
    cfg = tmp_path / "cfg.json"
    for widths in ([2, 3], "2,3"):
        # an int fits a float default; anything fits a None default
        values = {"holdout": 0, "lr": 1, "alpha_lr": "any", "conv_widths": widths}
        cfg.write_text(json.dumps(values))
        resolved = _resolve(argparse.Namespace(config=str(cfg)), TRAIN_SCHEMA)
        assert {k: resolved[k] for k in values} == values


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


@pytest.mark.parametrize("jobs", [0, -1])
def test_train_jobs_below_one_usage_error(gen_dir, tmp_path, capsys, jobs):
    assert run("train", "--data", gen_dir / "manifest.jsonl",
               "--out", tmp_path / "x", "--folds", 2, "--epochs", 1,
               "--jobs", jobs) == 2
    assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not list((tmp_path / "x").glob("fold*"))


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


def test_inspect_malformed_meta_io_error(tmp_path, capsys):
    path = tmp_path / "badmeta.npz"
    np.savez(path, meta=np.frombuffer(b'{"kind": "siamese",', dtype=np.uint8))
    assert run("inspect", path) == 3
    assert "not a readable checkpoint" in capsys.readouterr().err
