"""The benchmark's tracer wraps cvqkd functions by the names their callers
look up, so deleting or renaming one of them must fail here, not only in
traced benchmark runs."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "worker", raising=False)
    import worker

    tracer = worker.Tracer()
    try:
        tracer.install()
        patches = list(tracer.patches)
    finally:
        tracer.restore()
    assert patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)
