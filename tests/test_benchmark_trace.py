"""The benchmark's workloads, run on a few small operations.

`perfbench/run.py --trace 1` fails when a layer entry point it wraps is gone
or a span it maps to a metric never occurs; this runs one `ellipse-weights`
operation under the same tracer so such a change fails here too.  The
`city-polygon` check fails an operation whose median restart lands on other
centres or whose boundary weights miss the brute-force oracle; three of its
operations run here, untraced, so a change that moves a restart or the weight
table's format fails here too.
"""

import sys
from pathlib import Path

import pytest

from truncsm import models

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


def test_traced_ellipse_weights_operation(perfbench, tmp_path):
    tracing, workloads = perfbench
    wl = workloads.EllipseWeights(seed=0, workdir=tmp_path)
    wl.setup()
    tracer = tracing.Tracer()
    own = set(vars(models.GaussianMean))
    try:
        with tracer.installed():
            inputs = wl.prepare(0)
            out = wl.run(0, inputs)
    finally:
        # the tracer restores class methods with setattr, which leaves the
        # inherited ones as attributes of the subclass
        for name in set(vars(models.GaussianMean)) - own:
            delattr(models.GaussianMean, name)
    spans = tracer.take()
    assert tracing.coverage_failures(workloads.EllipseWeights.name, [spans]) == []
    failures, _ = wl.check(0, inputs, out)
    assert failures == []
    metrics = tracing.layer_metrics(spans)
    assert metrics["estimator.objective_and_grad_calls"] > 0
    assert metrics["optim.minimize_qn_calls"] == 4


def test_city_polygon_operations_pass_their_check(perfbench, tmp_path):
    _, workloads = perfbench
    wl = workloads.CityPolygon(seed=11, workdir=tmp_path)
    wl.setup()
    for k in (1, 2, 3):
        points_file = wl.prepare(k)
        out = wl.run(k, points_file)
        failures, _ = wl.check(k, points_file, out)
        assert failures == [], f"operation {k}: {failures}"
