"""Seeded experiment drivers with machine-readable CSV output.

Each driver writes one result file: "# " comment lines echo the
configuration as JSON, then a fixed-order CSV. Wall-clock timings go to a
separate ``<out>.timing.csv`` sidecar so the main file is byte-identical
across runs with the same configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import baselines, data, estimator, geometry, models, presets

SCHEMA = "truncsm-result-v1"
COLUMNS = ["experiment", "seed", "n", "method", "weight", "params",
           "error", "iterations", "objective"]
EUCLIDEAN = geometry.WeightSpec(metric=geometry.Euclidean())
CONSTANT = geometry.WeightSpec(constant=True)


class ExperimentError(ValueError):
    pass


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_results(cfg: argparse.Namespace, rows: list, timings: Optional[list] = None):
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = sorted(rows, key=lambda r: tuple(str(r.get(c, "")) for c in COLUMNS))
    lines = [f"# schema={SCHEMA}", "# config=" + json.dumps(vars(cfg), sort_keys=True),
             ",".join(COLUMNS)]
    lines += [",".join(_fmt(r.get(c, "")) for c in COLUMNS) for r in rows]
    out.write_text("\n".join(lines) + "\n")
    if timings:
        tlines = ["key,wall_time_s"] + [f"{key},{wt:.6f}" for key, wt in timings]
        out.with_suffix(out.suffix + ".timing.csv").write_text("\n".join(tlines) + "\n")
    return out


def _params_str(**kv) -> str:
    return ";".join(f"{k}={_fmt(v)}" for k, v in kv.items() if v is not None and v != "")


def _weight_name(spec: geometry.WeightSpec) -> str:
    if spec.constant:
        return "constant"
    name = type(spec.metric).__name__.lower()
    return name if spec.cap is None else f"{name}-cap{spec.cap:g}"


def _centers_str(theta, d) -> str:
    c = np.asarray(theta).reshape(-1, d)
    return "|".join(":".join(f"{v:.10g}" for v in row) for row in c)


def _row(cfg, seed, n, method, weight, params, error="", rep=None) -> dict:
    """One result row; a fit report fills its iterations and final objective."""
    row = {"experiment": cfg.experiment, "seed": seed, "n": n, "method": method,
           "weight": weight, "params": params, "error": error}
    if rep is not None:
        row.update(iterations=len(rep.objective_trace) - 1,
                   objective=rep.objective_trace[-1][1])
    return row


def _methods(methods, accepted, experiment) -> list:
    """The requested methods, every name checked before any fit runs."""
    for method in methods:
        if method not in accepted:
            raise ExperimentError(f"unknown method {method!r} for {experiment}; "
                                  f"use one of {', '.join(accepted)}")
    return methods


def _fit(method, family, ds, domain, opts, particles=None, normalizer=None, spec=EUCLIDEAN):
    """One method's fit over all its restarts, and the result row's weight."""
    if method in ("truncsm", "sm-constant"):
        spec = spec if method == "truncsm" else CONSTANT
        return estimator.fit(family, ds, domain, spec, opts), _weight_name(spec)
    if method == "rjmle":
        return baselines.fit_rjmle(family, ds, domain, particles, opts,
                                   normalizer=normalizer), "none"
    return baselines.fit_mle_untruncated(family, ds, opts), "none"


@dataclass
class _Sweep:
    """One run's result rows and timings."""

    cfg: argparse.Namespace
    rows: list = field(default_factory=list)
    timings: list = field(default_factory=list)

    def fit(self, key, seed, method, family, ds, domain, truth, opts=None, spec=EUCLIDEAN,
            weight=None, particles=None, **params):
        """Time one fit, append its timing key and its row: the error is the distance
        to `truth` (centre by centre for a mixture); a callable param gets theta_hat."""
        t0 = time.perf_counter()
        rep, fitted = _fit(method, family, ds, domain,
                           opts or estimator.FitOptions(seed=seed), particles, spec=spec)
        self.timings.append((key, time.perf_counter() - t0))
        theta = rep.theta_hat
        err = estimator.match_centers(theta, truth, family.d)[0] if family.K > 1 \
            else float(np.linalg.norm(theta - truth))
        params = {k: v(theta) if callable(v) else v for k, v in params.items()}
        self.rows.append(_row(self.cfg, seed, ds.n, method, weight or fitted,
                              _params_str(particles=particles, **params), err, rep))


# ---------------------------------------------------------------------------


def run_gmm_polygon(cfg, seeds, n, methods, particles, restarts, domain_file):
    """Four-center truncated mixture on the polygon window."""
    domain = geometry.load_polygon(domain_file) if domain_file \
        else presets.default_polygon()
    family = models.IsotropicGMM(d=2, K=4, sigma2=1.0)
    truth = presets.GMM_TRUE_CENTERS.reshape(-1)
    methods = _methods(methods, ["truncsm", "sm-constant", "rjmle"], cfg.experiment)
    # RJ-MLE runs once per particle count, with at most 3 restarts
    runs = [(method, N, min(restarts, 3) if method == "rjmle" else restarts)
            for method in methods for N in (particles if method == "rjmle" else [None])]

    sweep = _Sweep(cfg)
    for seed in seeds:
        ds = data.sample_truncated(family, truth, domain, n, seed)
        for method, N, r in runs:
            sweep.fit(f"{seed}:{method}" + (f":{N}" if N else ""), seed, method, family,
                      ds, domain, truth,
                      estimator.FitOptions(restarts=r, seed=seed, init_style="kmeans++"),
                      particles=N, centers=lambda theta: _centers_str(theta, 2))
    return write_results(cfg, sweep.rows, sweep.timings)


def run_maha_vs_euclid(cfg, seeds, n, sigma):
    """Single Gaussian on an elliptical window, two weight metrics."""
    if not all(0.0 <= rho < 1.0 for rho in sigma):
        raise ExperimentError("correlation must lie in [0, 1)")
    truth = np.array([0.5, 0.5])
    family = models.GaussianMean(2)
    metrics = [geometry.Mahalanobis(np.array([[1.0, -rho], [-rho, 1.0]])) for rho in sigma]
    grid = [(rho, geometry.MetricBall(m, 1.0),
             {"euclidean": EUCLIDEAN, "mahalanobis": geometry.WeightSpec(metric=m)})
            for rho, m in zip(sigma, metrics)]

    sweep = _Sweep(cfg)
    for rho, domain, specs in grid:
        for size in n:
            for seed in seeds:
                ds = data.sample_truncated_n(family, truth, domain, size, seed)
                for name, spec in specs.items():
                    sweep.fit(f"{rho}:{size}:{seed}:{name}", seed, "truncsm", family, ds,
                              domain, truth, spec=spec, rho=rho)
    return write_results(cfg, sweep.rows, sweep.timings)


def run_capped_scaling(cfg, seeds, n, cap, b_grid):
    """Capped weights while the truncation window scales up."""
    truth = np.array([0.5, 0.5])
    family = models.GaussianMean(2)
    domains = [(template, b, geometry.template_domain(template, b))
               for template in ("square", "disjoint") for b in b_grid]
    specs = [dataclasses.replace(EUCLIDEAN, cap=c) for c in cap]

    sweep = _Sweep(cfg)
    for template, b, domain in domains:
        for seed in seeds:
            ds = data.sample_truncated(family, truth, domain, n, seed)
            raw = geometry.distance_batch(domain, EUCLIDEAN, ds.points).g[:, 0]
            for c, spec in zip(cap, specs):
                sweep.fit(f"{template}:{b}:{seed}:{c}", seed, "truncsm", family, ds, domain,
                          truth, spec=spec, template=template, b=b, c=c,
                          capped_fraction=float((c * raw >= 1.0).mean()))
    return write_results(cfg, sweep.rows, sweep.timings)


def run_l1_vs_l2(cfg, seeds, n, d_grid):
    """L1 vs Euclidean weight metric on the hemi-l1-ball window."""
    domains = [(d, geometry.hemi_l1_ball(d)) for d in d_grid]
    specs = {"l2": EUCLIDEAN, "l1": geometry.WeightSpec(metric=geometry.L1())}

    sweep = _Sweep(cfg)
    for d, domain in domains:
        family = models.GaussianMean(d)
        truth = np.full(d, 0.5)
        for seed in seeds:
            ds = data.sample_gaussian_in_l1_hemiball(truth, n, seed)
            for name, spec in specs.items():
                sweep.fit(f"{d}:{seed}:{name}", seed, "truncsm", family, ds, domain, truth,
                          spec=spec, weight=name, dim=d)
    return write_results(cfg, sweep.rows, sweep.timings)


def _chicago_real(cfg, seeds, methods, particles, restarts, domain_file, points_file,
                  sigma):
    """Two-component mixture on city-style point data from --points-file; one
    seed, so `seeds` is a single value here."""
    if not domain_file:
        raise ExperimentError("chicago needs --domain-file with the boundary polygon")
    if sigma is None:
        raise ExperimentError("chicago needs --sigma (component standard deviation)")
    seed = seeds
    domain = geometry.load_polygon(domain_file)
    ds = data.load_points_csv(points_file, lon_col="longitude", lat_col="latitude")
    ds = data.clip_to_domain(ds, domain)
    family = models.IsotropicGMM(d=2, K=2, sigma2=sigma ** 2)
    methods = _methods(methods, ["truncsm", "rjmle", "mle"], "chicago")
    box = geometry.bounding_box(domain)
    diag = float(np.linalg.norm(box.upper - box.lower))
    # each restart starts at k-means centers: from the data mean, jittered starts
    # can settle a center between the two clusters; every method gets the same starts
    opts = estimator.FitOptions(restarts=restarts, seed=seed, init_style="kmeans")
    opts.init = np.array(estimator.initial_points(family, ds.points, opts))
    normalizer = baselines.make_normalizer(domain, particles, seed=seed) \
        if "rjmle" in methods else None

    rows, timings, center_lines = [], [], ["method,restart,component,x,y"]
    for method in methods:
        rep, weight = _fit(method, family, ds, domain, opts, particles, normalizer)
        # every restart's centers, labels aligned to the first restart's
        C = [res.x for res in rep.restarts]
        aligned = []
        for r_i, theta in enumerate(C):
            for k, c in enumerate(theta.reshape(family.K, 2)):
                center_lines.append(f"{method},{r_i},{k},{c[0]:.10g},{c[1]:.10g}")
            _, _, perm = estimator.match_centers(theta, C[0], 2)
            aligned.append(theta.reshape(family.K, 2)[perm].reshape(-1))
        A = np.array(aligned)
        rows.append({**_row(cfg, seed, ds.n, method, weight, _params_str(
            restarts=restarts, center_sd=float(A.std(axis=0).max()), bbox_diag=diag,
            mean_centers=_centers_str(A.mean(axis=0), 2))), "iterations": restarts})
        # the restarts alone: the weight table and the normalizer are one-off costs
        timings.append((method, rep.diagnostics["optimize_s"]))
    out = write_results(cfg, rows, timings)
    Path(cfg.out).with_suffix(".centers.csv").write_text("\n".join(center_lines) + "\n")
    return out


def _chicago_synthetic(cfg, seeds, n, methods):
    """Western half-plane truncation stand-in for the chicago experiment's
    qualitative effect, run when no points file is supplied."""
    truth = np.array([-0.5, 0.0])
    domain = geometry.Box(np.array([0.0, -3.0]), np.array([6.0, 3.0]))
    family = models.GaussianMean(2)
    methods = _methods(methods, ["truncsm", "sm-constant", "mle"], "chicago")

    sweep = _Sweep(cfg)
    for seed in seeds:
        ds = data.sample_truncated_n(family, truth, domain, n, seed)
        for method in methods:
            sweep.fit(f"{seed}:{method}", seed, method, family, ds, domain, truth,
                      center_x=lambda theta: float(theta[0]),
                      center_y=lambda theta: float(theta[1]))
    return write_results(cfg, sweep.rows, sweep.timings)


def run_identity_check(cfg, seeds, n):
    """Monte Carlo verification of the integration-by-parts identity."""
    domain = geometry.unit_square()
    family = models.GaussianMean(2)
    theta = np.array([0.2, 0.2])
    true_score = lambda X: -X  # standard Gaussian data score

    sweep = _Sweep(cfg)
    for seed in seeds:
        t0 = time.perf_counter()
        ds = data.sample_truncated_n(models.GaussianMean(2), np.zeros(2), domain,
                                     n, seed, batch=200_000)
        table = geometry.distance_batch(domain, EUCLIDEAN, ds.points)
        lhs, rhs, z = estimator.ibp_identity_check(family, theta, ds.points,
                                                   true_score, table)
        sweep.timings.append((str(seed), time.perf_counter() - t0))
        sweep.rows.append(_row(cfg, seed, n, "truncsm", _weight_name(EUCLIDEAN),
                               _params_str(lhs=lhs, rhs=rhs, zscore=z)))
    return write_results(cfg, sweep.rows, sweep.timings)


# Each experiment's driver and the options it reads, with their paper defaults:
# a list default marks a grid, any other default an option that takes one
# value.  chicago has two drivers: the real-data one when --points-file is
# given, otherwise the synthetic stand-in.
DRIVERS = {
    "gmm-polygon": (run_gmm_polygon, {
        "seeds": list(range(10)), "n": 10_000, "methods": ["truncsm", "rjmle"],
        "particles": [500_000], "restarts": 10, "domain_file": None}),
    "maha-vs-euclid": (run_maha_vs_euclid, {
        "seeds": list(range(50)), "n": [250, 1000, 4000], "sigma": [0.3, 0.9]}),
    "capped-scaling": (run_capped_scaling, {
        "seeds": list(range(20)), "n": 1600, "cap": [0.1, 10.0, 100.0],
        "b_grid": [0.5, 1.0, 2.0, 4.0, 16.0]}),
    "l1-vs-l2": (run_l1_vs_l2, {"seeds": list(range(50)), "n": 150, "d_grid": [2, 4, 8]}),
    "chicago": (_chicago_synthetic, {
        "seeds": list(range(50)), "n": 1000, "methods": ["truncsm", "mle"]}),
    "identity-check": (run_identity_check, {"seeds": list(range(10)), "n": 100_000}),
}
CHICAGO_REAL = (_chicago_real, {
    "seeds": 0, "methods": ["truncsm", "rjmle", "mle"], "particles": 500_000,
    "restarts": 500, "domain_file": None, "points_file": None, "sigma": None})


def flag(option: str) -> str:
    """The command-line flag of a parsed option."""
    return "--method" if option == "methods" else "--" + option.replace("_", "-")


def run(cfg: argparse.Namespace):
    """Run the experiment that the parsed command line names.  Before any fit, check
    the given options against the experiment's table and the seeds, sample sizes and
    particle counts against their least values; then run the driver on the given
    values or the paper defaults."""
    if cfg.experiment not in DRIVERS:
        raise ExperimentError(f"unknown experiment {cfg.experiment!r}")
    driver, defaults = CHICAGO_REAL if cfg.experiment == "chicago" and cfg.points_file \
        else DRIVERS[cfg.experiment]
    values = dict(defaults)
    for option, value in vars(cfg).items():
        if option in ("experiment", "out") or value in (None, []):
            continue
        if option not in defaults:
            raise ExperimentError(f"{cfg.experiment} does not read {flag(option)}")
        if isinstance(value, list) and not isinstance(defaults[option], list):
            if len(value) > 1:
                raise ExperimentError(f"{cfg.experiment} takes one {flag(option)} value, "
                                      f"got {','.join(str(v) for v in value)}")
            value = value[0]
        values[option] = value
    for option, least in (("seeds", 0), ("n", 1), ("particles", 1)):
        if option in values and np.min(values[option]) < least:
            raise ExperimentError(f"{flag(option)} must be at least {least}, got {values[option]}")
    return driver(cfg, **values)
