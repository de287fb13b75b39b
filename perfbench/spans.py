"""In-memory span tracer installed around pairstate's public functions.

The program itself carries no tracing. `Tracer.install()` replaces module
and class attributes with recording wrappers for the length of a traced
operation, and `uninstall()` puts the originals back, so untraced
operations run the unmodified code. A function imported by name into
another module (``train.augment_pair``, ``cli.load_dataset``) is replaced
under every name it has, with one shared wrapper, so each call records one
span wherever it is looked up.

A span is ``[name, start, end, parent_index, op_id, rows]``: ``rows`` is
the batch size for encoder forward passes and 0 otherwise.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path). The span name is "<module>.<attribute path>".
TARGETS = (
    ("nn", "conv3x3_forward"), ("nn", "conv3x3_backward"), ("nn", "_im2col"),
    ("nn", "relu_forward"), ("nn", "relu_backward"),
    ("nn", "maxpool2_forward"), ("nn", "maxpool2_backward"),
    ("nn", "ConvEncoder.forward"), ("nn", "ConvEncoder.backward"),
    ("pipeline", "load_dataset"), ("pipeline", "Dataset.pair_batch"),
    ("pipeline", "augment_pair"), ("pipeline", "split_patientwise"),
    ("model", "SiameseModel.init"), ("model", "NaiveModel.init"),
    ("model", "SiameseModel.loss_and_grads"), ("model", "NaiveModel.loss_and_grads"),
    ("model", "SiameseModel.predict_pairs"), ("model", "NaiveModel.predict_pairs"),
    ("model", "SiameseModel.encode"), ("model", "SiameseModel.features"),
    ("model", "NaiveModel.features"),
    ("model", "load_checkpoint"), ("model", "save_checkpoint"),
    ("objective", "loss_parts"), ("objective", "encode_targets"),
    ("optim", "AdamW.step"),
    ("train", "train_fold"), ("train", "write_history_csv"),
    ("evaluate", "pair_scores"), ("evaluate", "severity_recovery"),
    ("evaluate", "export_delta_scatter"), ("evaluate", "gamma_adjacency_report"),
    ("evaluate", "fewshot_curve"), ("evaluate", "fewshot_curve_logistic"),
    ("metrics", "calibrate_boundary"), ("metrics", "metric_suite"),
    ("synthgen", "gen_cohort"), ("synthgen", "render_bscan"),
    ("synthgen", "corrupt_bscan"), ("synthgen", "write_dataset"),
    ("synthgen", "gen_activity_set"),
    ("pgm", "write_pgm"), ("pgm", "read_pgm"), ("pgm", "read_pgm_size"),
    ("cli", "cmd_gen"), ("cli", "cmd_eval"), ("cli", "cmd_fewshot"),
)

# evaluate entry points whose encoder rows count toward the useful-work ratio
SCORING = ("evaluate.pair_scores", "evaluate.severity_recovery")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)   # (op_id, counter) -> computed value
        self.op = -1
        self._stack = []
        self._undo = []
        self._model_key = {}               # id(model) -> checkpoint path
        self._keep = []                    # loaded models, so ids stay unique
        self._seen = defaultdict(set)      # op_id -> {(checkpoint, image)}

    # -- recording ------------------------------------------------------------

    def begin_op(self, op_id):
        """Open the root span of one operation; returns it for end_op."""
        self.op = op_id
        self._keep.clear()
        self._model_key.clear()
        return self._open("bench.op")

    def end_op(self, idx):
        self._close(idx)
        self.op = -1

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._account(name, idx, args, kwargs, out)
            return out
        return wrapper

    def _account(self, name, idx, args, kwargs, out):
        """Computed work counts, derived from argument and result shapes."""
        c, op = self.counts, self.op
        if name == "nn.conv3x3_forward":
            n, h, w, cin = args[0].shape
            c[op, "nn.conv.gflop"] += 2 * n * h * w * 9 * cin * args[1].shape[0] / 1e9
        elif name == "nn.conv3x3_backward":
            n, h, w, cout = args[0].shape
            cin = args[2].shape[1]
            need_dx = args[3] if len(args) > 3 else kwargs.get("need_dx", True)
            gemms = 2 if need_dx else 1
            c[op, "nn.conv.gflop"] += gemms * 2 * n * h * w * 9 * cin * cout / 1e9
        elif name == "nn._im2col":
            n, _, _, ch = args[0].shape
            c[op, "nn.im2col.mb"] += n * args[1] * args[2] * 9 * ch * 8 / 1e6
        elif name == "nn.ConvEncoder.forward":
            self.spans[idx][5] = len(args[1])
            c[op, "nn.images_encoded"] += len(args[1])
        elif name == "pgm.write_pgm":
            h, w = args[1].shape
            c[op, "pgm.write_pgm.mb"] += (len(f"P5\n{w} {h}\n255\n") + h * w) / 1e6
        elif name == "pgm.read_pgm":
            c[op, "pgm.read_pgm.mb"] += out.nbytes / 1e6
        elif name == "model.load_checkpoint":
            self._model_key[id(out[0])] = str(args[0])
            self._keep.append(out[0])
        elif name in SCORING:
            model, dataset = args[0], args[1]
            key = self._model_key.get(id(model), id(model))
            pairs = dataset.pairs
            if name == "evaluate.pair_scores":
                idxs = args[2]
            else:
                idxs = [i for pid in args[2] for i in dataset.patient_index.get(pid, ())]
            self._seen[op].update((key, img) for i in idxs
                                  for img in (pairs[i].img1, pairs[i].img2))

    # -- installing wrappers ----------------------------------------------------

    def install(self):
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "pairstate" or name.startswith("pairstate.")}
        for modname, path in TARGETS:
            name = f"{modname}.{path}"
            owner = pkg[f"pairstate.{modname}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._set(owner, attr, staticmethod(self._wrap(name, raw.__func__)))
                continue
            wrapper = self._wrap(name, raw)
            if outer:
                self._set(owner, attr, wrapper)
                continue
            for mod in pkg.values():
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        self._set(mod, key, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis -------------------------------------------------------------

    def breakdown(self, op):
        """Inclusive and self seconds, call counts and per-call durations of
        every span name inside one operation, plus its wall time."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == op]
        child = defaultdict(float)
        for _, s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        incl, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        durations = defaultdict(list)
        names = {i: s[0] for i, s in spans}
        wall = 0.0
        scoring_rows = 0
        for i, s in spans:
            dur = s[2] - s[1]
            if s[0] == "bench.op":
                wall = dur
            incl[s[0]] += dur
            self_s[s[0]] += dur - child[i]
            calls[s[0]] += 1
            durations[s[0]].append(dur)
            if s[5] and self._under(i, SCORING, names):
                scoring_rows += s[5]
        seen = len(self._seen.get(op, ()))
        return {"wall": wall, "incl": incl, "self": self_s, "calls": calls,
                "durations": durations,
                "encodes_per_unique_image": scoring_rows / seen if seen else 0.0,
                "counts": {k: v for (o, k), v in self.counts.items() if o == op}}

    def _under(self, idx, ancestors, names):
        parent = self.spans[idx][3]
        while parent >= 0:
            if names.get(parent) in ancestors:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start,end,parent,op\n")
            for s in self.spans:
                f.write(f"{s[0]},{s[1]!r},{s[2]!r},{s[3]},{s[4]}\n")


def percentile_ms(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


MODULES = ("nn", "pipeline", "model", "objective", "optim", "train", "evaluate",
           "metrics", "synthgen", "pgm", "cli")

# counts derived from argument shapes rather than timed; they must repeat
# exactly from operation to operation
COMPUTED = ("nn.images_encoded", "nn.conv.gflop", "nn.im2col.mb",
            "evaluate.encodes_per_unique_image", "synthgen.render_bscan.calls",
            "pgm.write_pgm.mb", "pgm.read_pgm.mb")


def layer_metrics(b) -> dict:
    """Per-layer figures of one traced operation (see BENCHMARK.json)."""
    incl, own, calls, cnt = b["incl"], b["self"], b["calls"], b["counts"]

    def s(*names):
        return sum(incl.get(n, 0.0) for n in names)

    lag = b["durations"].get("model.SiameseModel.loss_and_grads", []) + \
        b["durations"].get("model.NaiveModel.loss_and_grads", [])
    conv_s = s("nn.conv3x3_forward", "nn.conv3x3_backward")
    gflop = cnt.get("nn.conv.gflop", 0.0)
    out = {
        "nn.conv3x3_forward.s": s("nn.conv3x3_forward"),
        "nn.conv3x3_backward.s": s("nn.conv3x3_backward"),
        "nn.im2col.s": s("nn._im2col"),
        "nn.relu.s": s("nn.relu_forward", "nn.relu_backward"),
        "nn.maxpool2.s": s("nn.maxpool2_forward", "nn.maxpool2_backward"),
        "nn.images_encoded": cnt.get("nn.images_encoded", 0.0),
        "nn.conv.gflop": gflop,
        "nn.conv.gflop_per_s": gflop / conv_s if conv_s else 0.0,
        "nn.im2col.mb": cnt.get("nn.im2col.mb", 0.0),
        "pipeline.augment_pair.s": s("pipeline.augment_pair"),
        "pipeline.augment_pair.calls": calls.get("pipeline.augment_pair", 0),
        "pipeline.pair_batch.s": s("pipeline.Dataset.pair_batch"),
        "pipeline.load_dataset.s": s("pipeline.load_dataset"),
        "model.loss_and_grads.ms.p50": percentile_ms(lag, 50),
        "model.loss_and_grads.ms.p90": percentile_ms(lag, 90),
        "model.loss_and_grads.self_s": own.get("model.SiameseModel.loss_and_grads", 0.0)
        + own.get("model.NaiveModel.loss_and_grads", 0.0),
        "model.predict_pairs.s": s("model.SiameseModel.predict_pairs",
                                   "model.NaiveModel.predict_pairs"),
        "model.load_checkpoint.s": s("model.load_checkpoint"),
        "objective.loss_parts.s": s("objective.loss_parts"),
        "objective.encode_targets.s": s("objective.encode_targets"),
        "optim.AdamW.step.s": s("optim.AdamW.step"),
        "optim.AdamW.step.calls": calls.get("optim.AdamW.step", 0),
        "train.train_fold.self_s": own.get("train.train_fold", 0.0),
        "evaluate.pair_scores.s": s("evaluate.pair_scores"),
        "evaluate.encodes_per_unique_image": b["encodes_per_unique_image"],
        "evaluate.severity_recovery.s": s("evaluate.severity_recovery"),
        "evaluate.export_delta_scatter.s": s("evaluate.export_delta_scatter"),
        "evaluate.gamma_adjacency_report.s": s("evaluate.gamma_adjacency_report"),
        "evaluate.fewshot_curve.s": s("evaluate.fewshot_curve"),
        "evaluate.fewshot_curve_logistic.s": s("evaluate.fewshot_curve_logistic"),
        "metrics.calibrate_boundary.s": s("metrics.calibrate_boundary"),
        "metrics.metric_suite.calls": calls.get("metrics.metric_suite", 0),
        "synthgen.gen_cohort.s": s("synthgen.gen_cohort"),
        "synthgen.render_bscan.calls": calls.get("synthgen.render_bscan", 0),
        "synthgen.write_dataset.s": s("synthgen.write_dataset"),
        "synthgen.gen_activity_set.s": s("synthgen.gen_activity_set"),
        "pgm.write_pgm.s": s("pgm.write_pgm"),
        "pgm.write_pgm.mb": cnt.get("pgm.write_pgm.mb", 0.0),
        "pgm.read_pgm.s": s("pgm.read_pgm"),
        "pgm.read_pgm.calls": calls.get("pgm.read_pgm", 0),
        "pgm.read_pgm.mb": cnt.get("pgm.read_pgm.mb", 0.0),
        "cli.gen.self_s": own.get("cli.cmd_gen", 0.0),
        "cli.eval.self_s": own.get("cli.cmd_eval", 0.0),
        "cli.fewshot.self_s": own.get("cli.cmd_fewshot", 0.0),
    }
    for mod in MODULES:
        out[f"{mod}.self_s"] = sum(v for k, v in own.items() if k.startswith(mod + "."))
    out["trace.coverage"] = 1.0 - own.get("bench.op", 0.0) / b["wall"]
    return out
