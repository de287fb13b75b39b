"""The benchmark tracer (perfbench/spans.py) patches pairstate attributes by
name: every target must exist in its owner's own namespace, and every patch
must come undone."""

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
