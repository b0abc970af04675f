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


def test_monte_carlo_rate_call_matches_default():
    # perfbench's monte-carlo-rate passes the heterodyne convention by name;
    # that call must keep working and price exactly as the default does
    import cvqkd

    for kind in cvqkd.ProtocolKind:
        k = cvqkd.analytic_covariance(cvqkd.EprSource(20.0), cvqkd.ChannelModel(0.5), kind)
        assert (cvqkd.rate_bound(k, 1, kind, 1.0, cvqkd.HeterodyneTransform.BEAMSPLITTER)
                == cvqkd.rate_bound(k, 1, kind, 1.0))
