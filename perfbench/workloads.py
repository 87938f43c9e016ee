"""The benchmark's three workloads, driven through truncsm's public API.

Each workload builds its inputs from the run seed; operation k uses seed
``seed + k``.  `run` is the timed operation; it returns, for each part of the
operation that has a metric (``truncsm_fit_s``, ``rjmle_fit_s``), the
``(start, end, fits)`` spans it took on the perf_counter clock.  `check` runs
afterwards, outside the timer and outside any tracing, and returns the
operation's correctness failures plus its fitted-center errors.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
from pathlib import Path

import numpy as np

from truncsm import (baselines, cli, data, estimator, experiments, geometry,
                     models, presets)
from truncsm.estimator import FitOptions
from truncsm.geometry import Euclidean, Mahalanobis, WeightSpec

from oracles import brute_polygon_distance   # tests/oracles.py

EUCL = WeightSpec(metric=Euclidean())

# Correctness bounds, fixed before any measurement.
MAX_CENTER_ERROR = 0.5     # in units of the generating sigma; acceptance 05 has sigma 1
WEIGHT_TOL = 1e-3          # weight vs brute-force oracle
ORACLE_POINTS = 8          # subsample size for the weight oracle
ELLIPSE_BOUNDARY_SAMPLES = 200_000


class Workload:
    name = ""
    nominal_op_s = 1.0     # sizes the traced run; see run.py

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Domain construction and shared input files."""

    def prepare(self, k):
        """Inputs of operation k (part of set-up time, not of the operation)."""
        return None

    def _rng(self, k):
        return np.random.default_rng([self.seed + k, 1])


def _status_failures(reports):
    return [f"{key}: {rep.status}" for key, rep in reports.items()
            if rep.status == "line_search_failure"]


def _error_failures(errors, sigma):
    limit = MAX_CENTER_ERROR * sigma
    return [f"{key}: center error {err:.4f} >= {limit:g}"
            for key, err in errors.items() if not err < limit]


def _weight_failures(label, got, want):
    bad = np.abs(np.asarray(got) - np.asarray(want)) > WEIGHT_TOL
    if not bad.any():
        return []
    i = int(np.argmax(bad))
    return [f"{label}: weight {got[i]:.6f} vs oracle {want[i]:.6f} "
            f"({int(bad.sum())}/{len(bad)} points off by > {WEIGHT_TOL})"]


def _polygon_weight_failures(label, domain, points, rng):
    sub = points[rng.choice(len(points), size=ORACLE_POINTS, replace=False)]
    got = geometry.distance_batch(domain, EUCL, sub).g[:, 0]
    want = [brute_polygon_distance(domain.vertices, x) for x in sub]
    return _weight_failures(label, got, want)


class MixturePolygon(Workload):
    """One seed of acceptance 05: TruncSM and RJ-MLE on the 7-vertex polygon.

    Nearly all time is in models, estimator, optim and baselines; geometry is
    under 1%, so a geometry change should not move this workload.
    """

    name = "mixture-polygon"
    nominal_op_s = 2.5
    N_GENERATED = 4000
    RESTARTS = 10
    RJMLE_RESTARTS = 2
    PARTICLES = 20_000

    def setup(self):
        self.family = models.IsotropicGMM(2, 4, 1.0)
        self.truth = presets.GMM_TRUE_CENTERS.reshape(-1)
        self.domain = presets.default_polygon()

    def prepare(self, k):
        return data.sample_truncated(self.family, self.truth, self.domain,
                                     self.N_GENERATED, self.seed + k)

    def run(self, k, ds):
        seed = self.seed + k
        t0 = time.perf_counter()
        ts = estimator.fit(self.family, ds, self.domain, EUCL,
                           FitOptions(restarts=self.RESTARTS, seed=seed,
                                      init_style="kmeans++"))
        t1 = time.perf_counter()
        rj = baselines.fit_rjmle(self.family, ds, self.domain, self.PARTICLES,
                                 FitOptions(restarts=self.RJMLE_RESTARTS, seed=seed,
                                            init_style="kmeans++"))
        t2 = time.perf_counter()
        return {"truncsm_fit_s": [(t0, t1, 1)], "rjmle_fit_s": [(t1, t2, 1)],
                "reports": {"truncsm": ts, "rjmle": rj}}

    def check(self, k, ds, out):
        reports = out["reports"]
        errors = {key: estimator.match_centers(rep.theta_hat, self.truth, 2)[0]
                  for key, rep in reports.items()}
        failures = (_status_failures(reports) + _error_failures(errors, 1.0)
                    + _polygon_weight_failures("polygon", self.domain, ds.points,
                                               self._rng(k)))
        return failures, {"truncsm_err": [errors["truncsm"]],
                          "rjmle_err": [errors["rjmle"]]}


class EllipseWeights(Workload):
    """One seed of acceptance 06 at n=4000: Euclidean and Mahalanobis weights
    on two correlated ellipses.

    The per-point ellipsoid root finding in geometry.distance_batch is ~99% of
    each fit; the model has closed forms and the optimizer stops after a few
    iterations, so a change to models, optim or baselines should not move it.
    """

    name = "ellipse-weights"
    nominal_op_s = 4.5
    N = 4000
    RHOS = (0.3, 0.9)
    THETA = np.array([0.5, 0.5])

    def setup(self):
        self.family = models.GaussianMean(2)
        self.cases = {}
        for rho in self.RHOS:
            sigma = np.array([[1.0, -rho], [-rho, 1.0]])
            domain = geometry.MetricBall(Mahalanobis(sigma), 1.0)
            specs = {"euclidean": EUCL, "mahalanobis": WeightSpec(metric=Mahalanobis(sigma))}
            self.cases[rho] = (sigma, domain, specs)

    def prepare(self, k):
        return {rho: data.sample_truncated_n(self.family, self.THETA, domain,
                                             self.N, self.seed + k)
                for rho, (_, domain, _) in self.cases.items()}

    def run(self, k, samples):
        spans, reports = [], {}
        for rho, (_, domain, specs) in self.cases.items():
            for name, spec in specs.items():
                t0 = time.perf_counter()
                reports[f"rho={rho}/{name}"] = estimator.fit(
                    self.family, samples[rho], domain, spec, FitOptions(seed=self.seed + k))
                spans.append((t0, time.perf_counter(), 1))
        return {"truncsm_fit_s": spans, "reports": reports}

    def check(self, k, samples, out):
        reports = out["reports"]
        errors = {key: float(np.linalg.norm(rep.theta_hat - self.THETA))
                  for key, rep in reports.items()}
        failures = _status_failures(reports) + _error_failures(errors, 1.0)
        rng = self._rng(k)
        for rho, (sigma, domain, specs) in self.cases.items():
            pts = samples[rho].points
            sub = pts[rng.choice(len(pts), size=ORACLE_POINTS, replace=False)]
            boundary = _ellipse_boundary(sigma)
            for name, spec in specs.items():
                # the Mahalanobis length of v is ||L v|| with L^T L = sigma^-1
                L = np.eye(2) if name == "euclidean" else np.linalg.cholesky(np.linalg.inv(sigma)).T
                want = [np.linalg.norm((x - boundary) @ L.T, axis=1).min() for x in sub]
                got = geometry.distance_batch(domain, spec, sub).g[:, 0]
                failures += _weight_failures(f"rho={rho}/{name}", got, want)
        return failures, {"truncsm_err": list(errors.values())}


def _ellipse_boundary(sigma):
    """Dense samples of {z : z^T sigma^-1 z = 1}, the image of the unit circle
    under a square root of sigma."""
    t = np.linspace(0.0, 2.0 * np.pi, ELLIPSE_BOUNDARY_SAMPLES, endpoint=False)
    circle = np.column_stack([np.cos(t), np.sin(t)])
    return circle @ np.linalg.cholesky(sigma).T


class CityPolygon(Workload):
    """The Chicago real-data path through the CLI, on synthetic city-scale
    inputs: a seeded star-shaped boundary, and for each operation its own
    longitude/latitude points.

    The only workload through cli, experiments and data loading/clipping, and
    the only one where one RJ-MLE normalizer is shared by every restart.
    Polygon construction, (n, T) distance arrays and membership at large T
    are the geometry costs here.
    """

    name = "city-polygon"
    nominal_op_s = 2.5
    VERTICES = 400
    N_POINTS = 3000
    CENTERS = np.array([(-87.75, 41.90), (-87.60, 41.75)])   # longitude, latitude
    SIGMA = 0.1
    RADIUS = 0.3
    RESTARTS = 5
    PARTICLES = 10_000

    # The loader projects to the equirectangular plane x = lon * scale, y = lat,
    # with scale the cosine of the points' mean latitude; the model is isotropic
    # there, and the boundary file is read as plane coordinates.  The points and
    # the boundary are drawn in that plane.

    def setup(self):
        rng = np.random.default_rng(self.seed)
        scale = math.cos(math.radians(self.CENTERS[:, 1].mean()))
        middle = self.CENTERS.mean(axis=0) * (scale, 1.0)
        T = self.VERTICES
        phi = 2.0 * np.pi * (np.arange(T) + 0.5 * rng.random(T)) / T
        r = self.RADIUS * (1.0 + 0.15 * np.sin(3.0 * phi + rng.uniform(0.0, 2.0 * np.pi))) \
            * (1.0 + 0.03 * rng.uniform(-1.0, 1.0, T))
        vertices = middle + np.column_stack([r * np.cos(phi), r * np.sin(phi)])
        self.domain_file = self.workdir / "boundary.txt"
        self.domain_file.write_text("".join(f"{float(x)},{float(y)}\n" for x, y in vertices))
        self.domain = None   # built on first check, outside any timing

    def prepare(self, k):
        """Writes the points file of operation k and returns its path."""
        rng = np.random.default_rng([self.seed + k, 2])
        comp = rng.integers(0, len(self.CENTERS), self.N_POINTS)
        z = self.SIGMA * rng.standard_normal((self.N_POINTS, 2))
        lat = self.CENTERS[comp, 1] + z[:, 1]
        scale = math.cos(math.radians(lat.mean()))
        lonlat = np.column_stack([self.CENTERS[comp, 0] + z[:, 0] / scale, lat])
        points_file = self.workdir / f"points-{k}.csv"
        points_file.write_text("longitude,latitude\n" + "".join(
            f"{float(lon)},{float(lat)}\n" for lon, lat in lonlat))
        return points_file

    def _out(self, k):
        return self.workdir / f"result-{k}.csv"

    def run(self, k, points_file):
        argv = ["--experiment", "chicago", "--points-file", str(points_file),
                "--domain-file", str(self.domain_file), "--sigma", str(self.SIGMA),
                "--restarts", str(self.RESTARTS), "--particles", str(self.PARTICLES),
                "--seeds", str(self.seed + k), "--out", str(self._out(k))]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        end = time.perf_counter()
        if rc != 0:
            raise RuntimeError(f"truncsm exited with {rc}: {stderr.getvalue().strip()}")
        timing = {method: float(t) for method, t in (line.split(",") for line in
                  self._out(k).with_suffix(".csv.timing.csv").read_text().splitlines()[1:])}
        # The chicago experiment times each method over all its restarts, runs
        # truncsm, rjmle and mle in that order, then writes two small files; the
        # methods' spans are placed back from the end of the call, to a few ms.
        mle_start = end - timing["mle"]
        rjmle_start = mle_start - timing["rjmle"]
        # RJ-MLE makes one fit_rjmle call per restart
        return {"truncsm_fit_s": [(rjmle_start - timing["truncsm"], rjmle_start, 1)],
                "rjmle_fit_s": [(rjmle_start, mle_start, self.RESTARTS)]}

    def check(self, k, points_file, out):
        failures = []
        lines = self._out(k).read_text().splitlines()
        if lines[0] != f"# schema={experiments.SCHEMA}":
            failures.append(f"schema line {lines[0]!r}")
        header = lines.index(",".join(experiments.COLUMNS))
        rows = [dict(zip(experiments.COLUMNS, line.split(","))) for line in lines[header + 1:]]
        methods = sorted(r["method"] for r in rows)
        if methods != ["mle", "rjmle", "truncsm"]:
            failures.append(f"result rows for methods {methods}")

        ds = data.load_points_csv(points_file, "longitude", "latitude")
        if ds.meta["skipped"] != 0:
            failures.append(f"load_points_csv skipped {ds.meta['skipped']} rows")
        # The result rows hold the mean over restarts, which one stray restart
        # out of ten moves by more than the bound; check the median restart.
        truth = self.CENTERS * (math.cos(math.radians(ds.meta["lat0"])), 1.0)
        restarts = {}
        for line in self._out(k).with_suffix(".centers.csv").read_text().splitlines()[1:]:
            method, restart, _component, x, y = line.split(",")
            restarts.setdefault((method, restart), []).append((float(x), float(y)))
        errors = {method: statistics.median(
            estimator.match_centers(centers, truth, 2)[0]
            for (m, _), centers in restarts.items() if m == method)
            for method in ("truncsm", "rjmle")}
        failures += _error_failures(errors, self.SIGMA)

        if self.domain is None:
            self.domain = geometry.load_polygon(self.domain_file)
        clipped = data.clip_to_domain(ds, self.domain)
        failures += _polygon_weight_failures("boundary", self.domain, clipped.points,
                                             self._rng(k))
        for path in self.workdir.glob(f"result-{k}.*"):
            path.unlink()
        points_file.unlink()
        return failures, {key + "_err": [err] for key, err in errors.items()}


WORKLOADS = {w.name: w for w in (MixturePolygon, EllipseWeights, CityPolygon)}
