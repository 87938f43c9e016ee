"""scipy is loaded only by the functions that need it.

Each check runs in a fresh interpreter, since this process has scipy loaded
already.  With scipy blocked (`sys.modules["scipy"] = None`, so any scipy
import raises), the import and the drivers' closed-form paths must still run;
without the block, every function-local scipy import must resolve.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code, *args, block_scipy):
    prelude = f"import sys; sys.path.insert(0, {SRC!r})\n"
    if block_scipy:
        prelude += "sys.modules['scipy'] = None\n"
    return subprocess.run([sys.executable, "-c", prelude + code, *args],
                          capture_output=True, text=True, timeout=120)


CLI = "from truncsm.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("code, args", [
    ("import truncsm", []),
    (CLI, ["--experiment", "capped-scaling", "--seeds", "0", "--b-grid", "1", "--cap", "10",
           "--n", "200"]),
    (CLI, ["--experiment", "gmm-polygon", "--seeds", "0", "--n", "500"]),
], ids=["import", "capped-scaling", "gmm-polygon"])
def test_runs_without_scipy(tmp_path, code, args):
    if args:
        args = args + ["--out", str(tmp_path / "o.csv")]
    out = run_python(code, *args, block_scipy=True)
    assert out.returncode == 0, out.stderr


LAZY_SITES = """
import numpy as np
from truncsm import estimator, geometry
from truncsm.geometry import Euclidean, Mahalanobis, MetricBall, Polygon, WeightSpec


def first_loads(module, call):
    # the call must be what loads `module`, so its function-local import ran
    assert module not in sys.modules, module
    out = call()
    assert module in sys.modules, module
    return out


sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
maha = first_loads('scipy.linalg', lambda: Mahalanobis(sigma))           # cholesky
ellipse = geometry.distance_batch(MetricBall(maha, 1.0), WeightSpec(metric=Euclidean()),
                                  np.zeros((1, 2)))                     # eigh
assert np.isclose(ellipse.g[0, 0], np.sqrt(0.1))  # the semi-minor axis
T = geometry._DENSE_MAX_T
angles = 2 * np.pi * np.arange(T) / T
ring = Polygon(np.column_stack([np.cos(angles), np.sin(angles)]))
wide = first_loads('scipy.spatial', lambda: geometry.distance_batch(
    ring, WeightSpec(metric=Euclidean()), np.zeros((1, 2))))             # cKDTree
assert np.isclose(wide.g[0, 0], np.cos(np.pi / T))
K = estimator.EXACT_MATCH_MAX_K + 1
ref = np.arange(2.0 * K).reshape(K, 2)
perm = first_loads('scipy.optimize',
                   lambda: estimator.match_centers(ref[::-1], ref, 2)[2])  # linear_sum_assignment
assert list(perm) == list(range(K))[::-1]
box = geometry.bounding_box(geometry.unit_square())  # linprog, for every ConvexPolytope
assert np.allclose(box.lower, 0.0) and np.allclose(box.upper, 1.0)
"""


def test_every_lazy_scipy_import_resolves():
    out = run_python(LAZY_SITES, block_scipy=False)
    assert out.returncode == 0, out.stderr
