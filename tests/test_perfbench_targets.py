"""The benchmark (perfbench/) against the program it measures: the tracer
(spans.py) patches pairstate attributes by name, so every target must exist
in its owner's own namespace and every patch must come undone; the training
workload must train the fold that `pairstate train` trains."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_every_target_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pairstate.cli  # noqa: F401  (loads every module the tracer patches)
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        originals = {}
        for owner, attr, value in tracer._undo:
            originals.setdefault((owner, attr), value)
        assert len(originals) >= len(spans.TARGETS)
        for (owner, attr), value in originals.items():
            assert owner.__dict__[attr] is not value, f"{owner}.{attr} not patched"
    finally:
        tracer.uninstall()
    for (owner, attr), value in originals.items():
        assert owner.__dict__[attr] is value, f"{owner}.{attr} not restored"


def test_benchmark_trains_the_fold_that_pairstate_train_trains(monkeypatch):
    # the training workload seeds fold 0 with its own copy of the fold-seed
    # derivation; it must agree with train.fold_configs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from pairstate import train
    import workloads

    for seed in (0, 1, 11, 101, 201, 2 ** 31 - 1):
        expected = train.fold_configs(train.TrainConfig(seed=seed), workloads.N_FOLDS)[0]
        assert workloads._fold_seed(seed) == expected.seed
