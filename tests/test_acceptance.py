"""Acceptance gate: every criterion at its stated tolerance, one PASS line
per criterion (run with -s to see them live).

Criteria 5-7 train real models (about 15 minutes total on one CPU core);
the rest finish in seconds.
"""

import time

import numpy as np
import pytest
import scipy.stats

from pairstate import evaluate, labels, metrics, objective, synthgen
from pairstate import train as train_mod
from pairstate.cli import main as cli_main
from pairstate.model import SiameseModel, gamma_of, other_prob, progression_prob
from pairstate.nn import EncoderConfig, sigmoid
from pairstate.pipeline import load_dataset, split_patientwise

LN2 = float(np.log(2.0))


def ok(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


# ---------------------------------------------------------------------------
# 1. mechanism invariants
# ---------------------------------------------------------------------------

def test_criterion_1_antisymmetry():
    rng = np.random.default_rng(0)
    config = EncoderConfig(in_height=16, in_width=16, conv_widths=(2, 3),
                           feature_dim=6)
    worst = 0.0
    for model_seed in range(10):
        model = SiameseModel.init(config, np.random.default_rng(model_seed))
        a = rng.random((100, 1, 16, 16))
        b = rng.random((100, 1, 16, 16))
        fwd = model.predict_pairs(a, b)["prob_progression"]
        rev = model.predict_pairs(b, a)["prob_progression"]
        worst = max(worst, float(np.abs(fwd + rev - 1.0).max()))
    assert worst < 1e-12
    ok("1a (antisymmetry)",
       f"1000 random pairs, 10 random models, max |p(a,b)+p(b,a)-1| = {worst:.2e}")


def test_criterion_1_or_merge_identities():
    rng = np.random.default_rng(1)
    z1 = rng.normal(0, 4, 1000)
    z2 = rng.normal(0, 4, 1000)
    merged = other_prob(z1, z2)
    demorgan = 1.0 - sigmoid(-z1) * sigmoid(-z2)
    err_formula = float(np.abs(merged - demorgan).max())
    err_sym = float(np.abs(merged - other_prob(z2, z1)).max())
    x = rng.normal(0, 6, 1000)
    err_reflect = float(np.abs((1.0 - sigmoid(x)) - sigmoid(-x)).max())
    assert err_formula < 1e-12
    assert err_sym == 0.0
    assert err_reflect < 1e-12
    ok("1b (OR merge)",
       f"1000 logit pairs: formula {err_formula:.2e}, symmetry exact, "
       f"1-sig(x)=sig(-x) {err_reflect:.2e}")


def test_criterion_1_gamma_mapping():
    assert gamma_of(0.0) == 1.0
    alphas = np.linspace(-6, 6, 200)
    assert np.all(np.diff(gamma_of(alphas)) > 0)
    deltas = np.linspace(-35, 35, 500)
    assert np.array_equal(progression_prob(deltas, 1.0), sigmoid(deltas))
    ok("1c (gamma)", "2**0 = 1, strictly monotone, slope 1 reduces exactly "
                     "to the plain sigmoid")


# ---------------------------------------------------------------------------
# 2. gradient correctness
# ---------------------------------------------------------------------------

def _loss_closure(model, x1, x2, y, mask, y_other, alpha, lam):
    feat1 = model.features(x1)
    feat2 = model.features(x2)
    z1 = feat1 @ model.params["head_state.w"] + model.params["head_state.b"][0]
    z2 = feat2 @ model.params["head_state.w"] + model.params["head_state.b"][0]
    o1 = feat1 @ model.params["head_other.w"] + model.params["head_other.b"][0]
    o2 = feat2 @ model.params["head_other.w"] + model.params["head_other.b"][0]
    p_state = sigmoid(np.exp2(alpha) * (z1 - z2))
    return objective.loss_parts(p_state, y, mask, other_prob(o1, o2),
                                y_other, alpha, lam)["loss"]


def test_criterion_2_gradients_20_random_configs():
    from helpers import central_diff_error
    shapes = [((2,), 4), ((3,), 8), ((2, 3), 6), ((2, 4), 12), ((4, 4), 16)]
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        widths, fdim = shapes[seed % len(shapes)]
        config = EncoderConfig(in_height=16, in_width=16, conv_widths=widths,
                               feature_dim=fdim)
        model = SiameseModel.init(config, rng)
        n = int(rng.integers(3, 6))
        x1 = rng.random((n, 1, 16, 16))
        x2 = rng.random((n, 1, 16, 16))
        lab = [labels.LABELS[i] for i in rng.integers(0, 4, n)]
        lab[0] = labels.OTHER
        y, mask, y_other = objective.encode_targets(lab)
        alpha = rng.normal(0, 0.4, n)
        lam = 0.15
        _, grads = model.loss_and_grads(x1, x2, y, mask, y_other, alpha, lam)

        def closure():
            return _loss_closure(model, x1, x2, y, mask, y_other, alpha, lam)

        for name, p in model.params.items():
            gflat = grads[name].reshape(-1)
            for i in rng.choice(p.size, size=min(6, p.size), replace=False):
                worst = max(worst, central_diff_error(closure, p, i, gflat[i]))
        for i in range(n):
            worst = max(worst, central_diff_error(closure, alpha, i,
                                                  grads["alpha_batch"][i]))
    assert worst < 1e-4
    ok("2 (gradients)", f"20 random configs, max relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. metric oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_metric_oracles():
    from helpers import binary_mcc, brute_force_suite
    rng = np.random.default_rng(3)
    worst_mcc = 0.0
    for _ in range(100):
        cm = rng.integers(0, 50, size=(2, 2))
        if cm.sum() == 0:
            cm[0, 0] = 1
        worst_mcc = max(worst_mcc,
                        abs(metrics.rk_correlation(cm) - binary_mcc(cm)))
    worst_suite = 0.0
    for _ in range(1000):
        cm = rng.integers(0, 40, size=(4, 4))
        if cm.sum() == 0:
            cm[2, 1] = 5
        suite = metrics.metric_suite(cm)
        brute = brute_force_suite(cm)
        for key in ("precision", "recall", "specificity", "f1"):
            worst_suite = max(worst_suite, abs(suite[key] - brute[key]))
    assert worst_mcc < 1e-12
    assert worst_suite < 1e-12
    ok("3 (metric oracles)",
       f"RK vs binary MCC {worst_mcc:.2e} on 100 matrices; suite vs "
       f"brute force {worst_suite:.2e} on 1000 matrices")


# ---------------------------------------------------------------------------
# 4. soft-label optimum
# ---------------------------------------------------------------------------

def test_criterion_4_stable_optimum():
    deltas = np.linspace(-5.0, 5.0, 10001)        # grid contains 0 exactly
    terms = objective.bce(0.5, sigmoid(deltas))
    i = int(np.argmin(terms))
    assert deltas[i] == 0.0
    assert abs(terms[i] - LN2) < 1e-9
    assert np.all(terms >= terms[i])
    ok("4 (soft-label optimum)",
       f"stable BCE minimized at delta=0 with value ln2 "
       f"(|err| = {abs(terms[i] - LN2):.1e})")


# ---------------------------------------------------------------------------
# 5. end-to-end synthetic recovery
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def recovery_run(tmp_path_factory):
    # cohort defaults: 40 patients, 8 visits, 8 scans, 32x64, eta=0, rho=0.05
    config = synthgen.CohortConfig(seed=11)
    root = tmp_path_factory.mktemp("recovery")
    manifest = synthgen.write_dataset(synthgen.gen_cohort(config), root)
    dataset = load_dataset(manifest)
    plan = split_patientwise(dataset, n_folds=5, holdout_frac=0.15, seed=0)
    start = time.time()
    result = train_mod.train_fold(
        dataset, plan.fold_spec(0),
        train_mod.TrainConfig(epochs=60, seed=5, augment=False))
    return dataset, plan, result, time.time() - start


@pytest.mark.slow
def test_criterion_5_recovery(recovery_run):
    dataset, plan, result, seconds = recovery_run

    rec = evaluate.severity_recovery(result.model, dataset, plan.test_patients,
                                     rng=np.random.default_rng(0),
                                     n_permutations=2000)
    assert rec["spearman_abs"] >= 0.8
    assert rec["permutation_p"] < 0.01

    fold = plan.fold_spec(0)
    val_idx = dataset.indices_for_patients(fold.val_patients)
    test_idx = dataset.indices_for_patients(plan.test_patients)
    val_scores = evaluate.pair_scores(result.model, dataset, val_idx)
    th = metrics.calibrate_boundary(val_scores["prob_progression"],
                                    val_scores["prob_other"],
                                    dataset.labels_of(val_idx))
    test_scores = evaluate.pair_scores(result.model, dataset, test_idx)
    pred = metrics.classify_many(test_scores["prob_progression"],
                                 test_scores["prob_other"], th)
    true = np.array([labels.LABEL_TO_INDEX[l]
                     for l in dataset.labels_of(test_idx)])
    cm = metrics.confusion_matrix(true, pred)
    prog = [labels.LABEL_TO_INDEX[l] for l in labels.PROGRESSION_LABELS]
    bal3 = float(np.mean([cm[i, i] / cm[i].sum() for i in prog]))
    assert bal3 >= 0.75

    first = result.history[0]["val_bce_state"]
    best = result.history[result.best_epoch]["val_bce_state"]
    assert (first - best) / first >= 0.30

    ok("5 (synthetic recovery)",
       f"Spearman {rec['spearman_abs']:.3f} (>= 0.8), permutation "
       f"p = {rec['permutation_p']:.4f} (< 0.01), 3-class bal. acc. "
       f"{bal3:.3f} (>= 0.75), val state-BCE drop "
       f"{(first - best) / first:.0%} (>= 30%), {seconds / 60:.1f} min")


# ---------------------------------------------------------------------------
# 6. noise-model separation / 7. few-shot behavior
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def noise_runs(tmp_path_factory):
    config = synthgen.CohortConfig(n_patients=30, visits_per_patient=6,
                                   scans_per_volume=6, flip_rate=0.2,
                                   other_rate=0.05, seed=13)
    root = tmp_path_factory.mktemp("noise")
    manifest = synthgen.write_dataset(synthgen.gen_cohort(config), root)
    dataset = load_dataset(manifest)
    plan = split_patientwise(dataset, n_folds=5, holdout_frac=0.15, seed=0)
    fold = plan.fold_spec(0)
    plain = train_mod.train_fold(
        dataset, fold, train_mod.TrainConfig(epochs=60, seed=5, augment=False))
    noisy = train_mod.train_fold(
        dataset, fold, train_mod.TrainConfig(epochs=60, seed=5, augment=False,
                                             noise_estimation=True, lam=0.15,
                                             alpha_lr=0.02))
    return config, dataset, fold, plain, noisy


@pytest.mark.slow
def test_criterion_6_noise_separation(noise_runs):
    _, dataset, fold, _, noisy = noise_runs
    train_idx = dataset.indices_for_patients(fold.train_patients)
    flipped, clean = [], []
    for i in train_idx:
        p = dataset.pairs[i]
        if p.label == labels.OTHER:
            continue
        gamma = noisy.alpha_table.gamma(p.pair_id)
        (flipped if p.label != p.clean_label else clean).append(gamma)
    flipped = np.array(flipped)
    clean = np.array(clean)
    assert flipped.mean() < clean.mean()
    p_value = scipy.stats.mannwhitneyu(flipped, clean,
                                       alternative="less").pvalue
    assert p_value < 0.01

    report = evaluate.gamma_adjacency_report(noisy.alpha_table, dataset,
                                             threshold=0.85, indices=train_idx)
    bw = report.groups["better_worse"]["fraction"]
    mid_n = (report.groups["better_stable"]["n"]
             + report.groups["worse_stable"]["n"])
    mid = (report.groups["better_stable"]["below"]
           + report.groups["worse_stable"]["below"]) / mid_n
    same = report.groups["same_label"]["fraction"]
    assert bw >= mid >= same

    ok("6 (noise separation)",
       f"mean gamma flipped {flipped.mean():.3f} < clean {clean.mean():.3f} "
       f"(Mann-Whitney p = {p_value:.2e}); fraction gamma<0.85: "
       f"better-worse {bw:.3f} >= progression-stable {mid:.3f} >= "
       f"same-label {same:.3f}")


@pytest.mark.slow
def test_criterion_7_fewshot(noise_runs):
    config, _, _, plain, noisy = noise_runs
    activity = synthgen.gen_activity_set(400, config, seed=99)
    imgs = activity.images[:, None].astype(np.float64) / 255.0

    curves = {}
    optima = {}
    for name, run in (("plain", plain), ("noise", noisy)):
        z, _ = run.model.encode(imgs)
        _, _, full_acc = evaluate.optimal_threshold(z, activity.active)
        rows = evaluate.fewshot_curve(z, activity.active, [1, 2, 4, 8, 16], 20,
                                      np.random.default_rng(7))
        curves[name] = {row["k"]: row["mean"] for row in rows}
        optima[name] = full_acc

    for name in ("plain", "noise"):
        assert curves[name][8] >= optima[name] - 0.05
        # mean curve nondecreasing in k within noise (2-point violations ok)
        means = [curves[name][k] for k in (1, 2, 4, 8, 16)]
        assert all(b >= a - 0.02 for a, b in zip(means[:-1], means[1:]))
    for k in (1, 2, 4):
        assert curves["noise"][k] >= curves["plain"][k] - 0.02

    ok("7 (few-shot)",
       f"k=8 within {max(optima[n] - curves[n][8] for n in curves):.3f} of "
       f"full-data optimum (<= 0.05); noise vs plain at k=1,2,4: "
       + ", ".join(f"{curves['noise'][k]:.3f}/{curves['plain'][k]:.3f}"
                   for k in (1, 2, 4)))


# ---------------------------------------------------------------------------
# 8. reproducibility
# ---------------------------------------------------------------------------

def test_criterion_8_reproducibility(tmp_path):
    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    gen_args = ("--seed", 4, "--n-patients", 6, "--visits", 3, "--scans", 2,
                "--height", 16, "--width", 32, "--other-rate", 0.2)
    train_args = ("--folds", 2, "--epochs", 2, "--batch-size", 8,
                  "--conv-widths", "2,3", "--feature-dim", 6, "--seed", 3,
                  "--lr", 1e-3)
    pairs = {}
    for tag in ("a", "b"):
        ds = tmp_path / f"ds_{tag}"
        rn = tmp_path / f"run_{tag}"
        ev = tmp_path / f"eval_{tag}"
        run("gen", "--out", ds, *gen_args)
        run("train", "--data", ds / "manifest.jsonl", "--out", rn, *train_args)
        run("eval", "--run", rn, "--out", ev, "--permutations", 200)
        pairs[tag] = (ds, rn, ev)

    (ds_a, rn_a, ev_a), (ds_b, rn_b, ev_b) = pairs["a"], pairs["b"]
    image = sorted(p.name for p in (ds_a / "images").iterdir())[0]
    for rel in ("manifest.jsonl", "latents.jsonl", f"images/{image}"):
        assert (ds_a / rel).read_bytes() == (ds_b / rel).read_bytes()
    for fold in ("fold0", "fold1"):
        assert (rn_a / fold / "history.csv").read_bytes() == \
            (rn_b / fold / "history.csv").read_bytes()
    for rel in ("metrics.csv", "delta_scatter.csv", "summary.json"):
        assert (ev_a / rel).read_bytes() == (ev_b / rel).read_bytes()

    ok("8 (reproducibility)",
       "byte-identical datasets, loss histories and evaluation outputs "
       "across two identically seeded runs")
