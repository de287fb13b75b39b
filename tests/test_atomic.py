"""All-or-nothing writes of run-directory files: a write that raises part
way leaves the old file and no temp file behind."""

import json

import numpy as np
import pytest

from pairstate import cli, model, train
from pairstate.atomic import atomic_write
from pairstate.model import SiameseModel, load_checkpoint, save_checkpoint
from pairstate.nn import EncoderConfig


class Boom(Exception):
    pass


class Unprintable:
    def __str__(self):
        raise Boom("mid-write")


def _assert_untouched(path, old):
    assert path.read_bytes() == old
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


def test_atomic_write_replaces_on_success(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old\n")
    with atomic_write(path, encoding="utf-8") as f:
        f.write("new\n")
    assert path.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]


def test_atomic_write_exception_keeps_old_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old\n")
    with pytest.raises(Boom):
        with atomic_write(path, encoding="utf-8") as f:
            f.write("partial")
            raise Boom("mid-write")
    _assert_untouched(path, b"old\n")


def test_atomic_write_exception_leaves_no_new_file(tmp_path):
    with pytest.raises(Boom):
        with atomic_write(tmp_path / "a.txt") as f:
            f.write("partial")
            raise Boom("mid-write")
    assert list(tmp_path.iterdir()) == []


def test_write_csv_crash_keeps_old_file(tmp_path):
    path = tmp_path / "history.csv"
    train.write_csv(path, ("a", "b"), [{"a": 1.5, "b": "x"}])
    old = path.read_bytes()
    with pytest.raises(Boom):
        train.write_csv(path, ("a", "b"), [{"a": 2.5, "b": "y"},
                                           {"a": 3.5, "b": Unprintable()}])
    _assert_untouched(path, old)


def test_write_json_crash_keeps_old_file(tmp_path):
    path = tmp_path / "summary.json"
    cli._write_json(path, {"a": 1})
    old = path.read_bytes()
    with pytest.raises(TypeError):
        cli._write_json(path, {"a": 2, "b": object()})
    _assert_untouched(path, old)
    assert json.loads(old) == {"a": 1}


def _tiny_model(seed):
    config = EncoderConfig(in_height=8, in_width=8, conv_widths=(2,), feature_dim=3)
    return SiameseModel.init(config, np.random.default_rng(seed))


def test_save_checkpoint_crash_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, _tiny_model(0))
    old = path.read_bytes()

    def savez(file, **arrays):
        file.write(b"PK\x03\x04 partial archive")
        raise Boom("mid-write")

    monkeypatch.setattr(model.np, "savez", savez)
    with pytest.raises(Boom):
        save_checkpoint(path, _tiny_model(1))
    _assert_untouched(path, old)


def test_save_checkpoint_bytes_match_savez_to_path(tmp_path):
    # the open temp file gets the same archive bytes as a path would, and
    # a target name without ".npz" keeps its name
    net = _tiny_model(2)
    path = tmp_path / "ckpt"
    save_checkpoint(path, net, meta={"fold": 0})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
    _, _, meta = load_checkpoint(path)
    assert meta["fold"] == 0
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    np.savez(tmp_path / "ref.npz", **arrays)
    assert path.read_bytes() == (tmp_path / "ref.npz").read_bytes()


def test_run_dir_files_go_through_atomic_write(tmp_path, monkeypatch):
    src = tmp_path / "in.txt"
    src.write_text("data\n")
    written = []

    def recording(path, *args, **kw):
        written.append(path.name)
        return atomic_write(path, *args, **kw)

    monkeypatch.setattr(cli, "atomic_write", recording)
    out = cli._prepare_run_dir(tmp_path / "run", False, {"k": 1}, [src])
    assert written == ["config.json", "inputs.sha256"]
    assert (out / "inputs.sha256").read_text().endswith("  in.txt\n")
