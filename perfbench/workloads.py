"""The three benchmark workloads: set-up, one operation, and output checks.

Every workload is a closed loop: one client in this process runs one
operation after another. An operation returns two timings, its main step
and its follow-up step; a failed output check raises `CheckFailed`.
Workload records (why, seeds, bypassed modules) live in workloads.json.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

# pairstate functions are called through their modules, so that the span
# wrappers installed for a traced operation are the ones called
from pairstate import cli, model, pipeline, train
from pairstate.model import AlphaTable, NaiveModel, SiameseModel
from pairstate.nn import EncoderConfig

HERE = Path(__file__).resolve().parent
N_FOLDS = 5
HOLDOUT = 0.15
FLIP_RATE = 0.2


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _cli(*argv):
    """Run one pairstate command in this process; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    _require(rc == 0, f"pairstate {argv[0]} exited {rc}")


def _make_cohort(out: Path, seed: int, flip_rate: float):
    """`pairstate gen` at default scale, then load and fill the image cache.

    Repeated set-ups overwrite one directory (--force). On ext4 with online
    discard, creating thousands of new files soon after many were deleted
    costs many times the system time it costs on a settled file system,
    for minutes; overwriting existing files costs the same every time. So
    the benchmark deletes nothing until it exits.
    """
    _cli("gen", "--out", out, "--seed", seed, "--flip-rate", flip_rate, "--force")
    dataset = pipeline.load_dataset(out / "manifest.jsonl")
    dataset.pair_batch(np.arange(len(dataset)))
    return dataset


def _warm_up(dataset) -> None:
    """One training step and one scoring batch, so that the first timed
    operation does not pay for the allocator and BLAS thread start-up."""
    h, w = dataset.image_size
    net = SiameseModel.init(EncoderConfig(in_height=h, in_width=w),
                            np.random.default_rng(0))
    x1, x2 = dataset.pair_batch(np.arange(32))
    net.loss_and_grads(x1, x2, np.zeros(32), np.ones(32, dtype=bool), np.zeros(32),
                       np.zeros(32), 0.0)
    net.predict_pairs(*dataset.pair_batch(np.arange(128)))


def _csv_rows(path: Path) -> list:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def dataset_digest(root: Path) -> str:
    """SHA-256 over the manifest, latents.jsonl and every PGM, by path."""
    digest = hashlib.sha256()
    files = ["manifest.jsonl", "latents.jsonl",
             *sorted(p.relative_to(root).as_posix() for p in (root / "images").glob("*.pgm"))]
    for rel in files:
        digest.update(rel.encode() + b"\0" + (root / rel).read_bytes())
    return digest.hexdigest()


def _fold_seed(split_seed: int) -> int:
    # the seed `pairstate train` gives fold 0
    return int(np.random.SeedSequence(split_seed).generate_state(
        N_FOLDS, dtype=np.uint64)[0])


class Workload:
    """Subclasses name their two timed steps in `main` and `follow`, or
    override `named_samples`."""

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = None        # output digest of the first operation
        self.readouts = {}           # quality readouts of the last operation

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def op(self, out: Path) -> tuple[float, float]:
        raise NotImplementedError

    def check(self, out: Path) -> None:
        raise NotImplementedError

    def _same_as_first(self, digest: str, what: str) -> None:
        if self.reference is None:
            self.reference = digest
        _require(digest == self.reference, f"{what} differs from the first operation")

    def named_samples(self, main: list, follow: list) -> dict:
        """The two timings under their user-facing names: name -> (samples, unit)."""
        return {f"{self.main}.s": (main, "s"), f"{self.follow}.s": (follow, "s")}

    def seeds(self) -> dict:
        return {"cohort_seed": self.seed, "split_seed": self.seed,
                "fold0_train_seed": _fold_seed(self.seed)}


class TrainWorkload(Workload):
    def setup(self, work):
        self.dataset = _make_cohort(work / "data", self.seed, FLIP_RATE)
        _warm_up(self.dataset)
        plan = pipeline.split_patientwise(self.dataset, n_folds=N_FOLDS,
                                          holdout_frac=HOLDOUT, seed=self.seed)
        self.fold = plan.fold_spec(0)
        self.n_train = len(self.dataset.indices_for_patients(self.fold.train_patients))
        self.config = train.TrainConfig(
            epochs=1, batch_size=32, seed=_fold_seed(self.seed),
            noise_estimation=True, alpha_lr=0.02, augment=True)

    def op(self, out):
        t0 = perf_counter()
        result = train.train_fold(self.dataset, self.fold, self.config)
        t1 = perf_counter()
        # what `pairstate train` writes for each fold
        out.mkdir(parents=True)
        model.save_checkpoint(out / "checkpoint.npz", result.model,
                              alpha_table=result.alpha_table,
                              meta={"fold": 0, "best_epoch": result.best_epoch,
                                    "best_val_loss": result.best_val_loss,
                                    "train_config": self.config.to_dict()})
        train.write_history_csv(out / "history.csv", result.history)
        return t1 - t0, perf_counter() - t1

    def named_samples(self, main, follow):
        return {"train.pairs_per_s": ([self.n_train / t for t in main], "pairs/s"),
                "train.save_fold.s": (follow, "s")}

    def check(self, out):
        text = (out / "history.csv").read_text(encoding="utf-8")
        rows = _csv_rows(out / "history.csv")
        _require(len(rows) == 1, f"expected 1 history row, got {len(rows)}")
        row = rows[0]
        losses = [float(v) for k, v in row.items() if "loss" in k or "bce" in k or "reg" in k]
        _require(all(math.isfinite(v) for v in losses), f"non-finite loss in {row}")
        sampled = sum(int(v) for k, v in row.items() if k.startswith("sampled_"))
        _require(sampled == self.n_train, f"sampled {sampled} pairs, not {self.n_train}")
        self.readouts = {"train.val_loss": float(row["val_loss"]),
                         "train.n_pairs": self.n_train}
        self._same_as_first(hashlib.sha256(text.encode()).hexdigest(), "history.csv")


class EvalFewshotWorkload(Workload):
    main, follow = "eval", "fewshot"
    EVAL_FILES = ("metrics.csv", "delta_scatter.csv", "gamma_report.json", "summary.json")

    def setup(self, work):
        """A 5-fold noise-estimation run directory laid out as `pairstate train`
        leaves it, holding seeded untrained models; evaluation costs the same
        for any weights."""
        self.dataset = _make_cohort(work / "data", self.seed, FLIP_RATE)
        _warm_up(self.dataset)
        plan = pipeline.split_patientwise(self.dataset, n_folds=N_FOLDS,
                                          holdout_frac=HOLDOUT, seed=self.seed)
        run = self.run = work / "run"
        run.mkdir(exist_ok=True)
        (run / "config.json").write_text(json.dumps({
            "data": str((work / "data" / "manifest.jsonl").resolve()),
            "model_kind": "siamese", "noise_estimation": True, "alpha_lr": 0.02,
            "folds": N_FOLDS, "holdout": HOLDOUT, "seed": self.seed, "jobs": 1}))
        (run / "split.json").write_text(json.dumps(plan.to_dict()))
        h, w = self.dataset.image_size
        enc = EncoderConfig(in_height=h, in_width=w)
        table = max(p.pair_id for p in self.dataset.pairs) + 1
        rngs = [np.random.default_rng(s)
                for s in np.random.SeedSequence(self.seed).spawn(N_FOLDS + 1)]
        for i in range(N_FOLDS):
            (run / f"fold{i}").mkdir(exist_ok=True)
            model.save_checkpoint(run / f"fold{i}" / "checkpoint.npz",
                                  SiameseModel.init(enc, rngs[i]),
                                  alpha_table=AlphaTable(rngs[i].normal(0.0, 0.5, size=table)),
                                  meta={"fold": i, "best_epoch": 0, "best_val_loss": 1.0})
        self.naive = run / "naive.npz"
        model.save_checkpoint(self.naive, NaiveModel.init(enc, rngs[N_FOLDS]))
        self.checked_scatter = False

    def op(self, out):
        t0 = perf_counter()
        _cli("eval", "--run", self.run, "--out", out / "eval")
        t1 = perf_counter()
        _cli("fewshot", "--out", out / "fewshot", "--seed", self.seed,
             "--checkpoint", f"ours={self.run / 'fold0' / 'checkpoint.npz'}",
             "--checkpoint", f"naive={self.naive}")
        return t1 - t0, perf_counter() - t1

    def check(self, out):
        ev, fs = out / "eval", out / "fewshot"
        files = [ev / name for name in self.EVAL_FILES] + [fs / "fewshot_curve.csv"]
        for path in files:
            _require(path.is_file(), f"missing output {path.name}")

        metric_rows = _csv_rows(ev / "metrics.csv")
        _require([r["fold"] for r in metric_rows] == [*map(str, range(N_FOLDS)), "mean", "std"],
                 "metrics.csv rows are not the folds plus mean and std")
        for key in metric_rows[0]:
            if key == "fold":
                continue
            vals = [float(r[key]) for r in metric_rows]
            _require(all(-1.0 <= v <= 1.0 for v in vals), f"metric {key} out of range")
            _require(abs(np.mean(vals[:N_FOLDS]) - vals[N_FOLDS]) < 1e-12,
                     f"mean row of {key} is not the fold mean")
        summary = json.loads((ev / "summary.json").read_text(encoding="utf-8"))
        recovery = summary["severity_recovery"]
        _require(len(summary["folds"]) == N_FOLDS and len(recovery) == N_FOLDS,
                 "summary.json does not cover every fold")
        _require(all(0.0 < r["permutation_p"] <= 1.0 for r in recovery.values()),
                 "permutation p-value out of range")
        gamma = json.loads((ev / "gamma_report.json").read_text(encoding="utf-8"))
        _require(sorted(gamma) == [f"fold{i}" for i in range(N_FOLDS)],
                 "gamma_report.json does not cover every fold")
        curve = _csv_rows(fs / "fewshot_curve.csv")
        _require(len(curve) == 2 * 5 and all(0.0 <= float(r["mean"]) <= 1.0 for r in curve),
                 "fewshot_curve.csv is not 2 models x 5 shot counts of accuracies")
        if not self.checked_scatter:
            self._check_scatter(ev / "delta_scatter.csv")
            self.checked_scatter = True
        self.readouts = {"eval.f1_mean": float(metric_rows[N_FOLDS]["f1"])}

        digest = hashlib.sha256()
        for path in files:
            digest.update(path.read_bytes())
        self._same_as_first(digest.hexdigest(), "eval/fewshot outputs")

    def _check_scatter(self, path):
        """Recompute a spread of exported deltas image by image with the
        fold-0 model, outside the batched scoring path."""
        rows = _csv_rows(path)
        _require(len(rows) == len(self.dataset), "delta_scatter.csv misses pairs")
        net, _, _ = model.load_checkpoint(self.run / "fold0" / "checkpoint.npz")
        for i in range(0, len(rows), 97):
            pair = self.dataset.pairs[i]
            z1, _ = net.encode(self.dataset.load_image(pair.img1) / 255.0)
            z2, _ = net.encode(self.dataset.load_image(pair.img2) / 255.0)
            _require(int(rows[i]["pair_id"]) == pair.pair_id, "scatter row order")
            _require(abs(float(rows[i]["delta"]) - (z1 - z2)) < 1e-9,
                     f"pair {pair.pair_id}: exported delta disagrees with the model")


class GenLoadWorkload(Workload):
    main, follow = "gen", "load"

    def setup(self, work):
        """Generate and load the reference cohort, and check its bytes against
        the digest recorded in gen_digest.json.

        Operations regenerate this directory in place, for the reason given
        in _make_cohort.
        """
        ref = json.loads((HERE / "gen_digest.json").read_text(encoding="utf-8"))
        self.reference_seed = ref["seed"]
        self.gen_dir = work / "reference"
        _make_cohort(self.gen_dir, ref["seed"], 0.0)
        _require(dataset_digest(self.gen_dir) == ref["sha256"],
                 f"reference cohort (seed {ref['seed']}) differs from gen_digest.json")

    def seeds(self):
        return {"gen_seed": self.seed, "reference_seed": self.reference_seed}

    def op(self, out):
        t0 = perf_counter()
        _cli("gen", "--out", self.gen_dir, "--seed", self.seed, "--force")
        t1 = perf_counter()
        dataset = pipeline.load_dataset(self.gen_dir / "manifest.jsonl")
        self.loaded = dataset.pair_batch(np.arange(len(dataset)))
        return t1 - t0, perf_counter() - t1

    def check(self, out):
        (x1, x2), self.loaded = self.loaded, None
        _require(x1.shape == x2.shape == (2240, 1, 32, 64), f"loaded pairs of {x1.shape}")
        _require(min(x1.min(), x2.min()) >= 0.0 and max(x1.max(), x2.max()) <= 1.0,
                 "pixel values outside [0, 1]")
        self._same_as_first(dataset_digest(self.gen_dir), "generated dataset")


WORKLOADS = {
    "train_noise_aug": TrainWorkload,
    "eval_fewshot": EvalFewshotWorkload,
    "gen_load": GenLoadWorkload,
}
