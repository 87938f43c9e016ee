"""Seeded experiment drivers with machine-readable CSV output.

Each driver writes one result file: "# " comment lines echo the
configuration as JSON, then a fixed-order CSV. Wall-clock timings go to a
separate ``<out>.timing.csv`` sidecar so the main file is byte-identical
across runs with the same configuration.
"""

from __future__ import annotations

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


@dataclass
class ExperimentConfig:
    """The options as given; an empty or None field takes the driver's
    default, which is the paper's setting."""

    experiment: str
    seeds: list = field(default_factory=list)
    n: list = field(default_factory=list)           # sample-size grid
    methods: list = field(default_factory=list)
    cap: list = field(default_factory=list)         # cap grid (c values)
    particles: list = field(default_factory=list)
    restarts: Optional[int] = None
    domain_file: Optional[str] = None
    points_file: Optional[str] = None
    sigma: list = field(default_factory=list)
    b_grid: list = field(default_factory=list)
    d_grid: list = field(default_factory=list)
    out: str = "result.csv"

    def as_dict(self):
        return dataclasses.asdict(self)


class ExperimentError(ValueError):
    pass


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_results(cfg: ExperimentConfig, rows: list, timings: Optional[list] = None):
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = sorted(rows, key=lambda r: tuple(str(r.get(c, "")) for c in COLUMNS))
    lines = [f"# schema={SCHEMA}",
             "# config=" + json.dumps(cfg.as_dict(), sort_keys=True)]
    lines.append(",".join(COLUMNS))
    for r in rows:
        lines.append(",".join(_fmt(r.get(c, "")) for c in COLUMNS))
    out.write_text("\n".join(lines) + "\n")
    if timings:
        tpath = out.with_suffix(out.suffix + ".timing.csv")
        tlines = ["key,wall_time_s"]
        for key, wt in timings:
            tlines.append(f"{key},{wt:.6f}")
        tpath.write_text("\n".join(tlines) + "\n")
    return out


def _params_str(**kv) -> str:
    return ";".join(f"{k}={_fmt(v)}" for k, v in kv.items() if v is not None and v != "")


def parse_params(s: str) -> dict:
    out = {}
    for part in str(s).split(";"):
        if "=" in part:
            k, v = part.split("=", 1)
            out[k] = v
    return out


def _weight_name(spec: geometry.WeightSpec) -> str:
    if spec.constant:
        return "constant"
    name = type(spec.metric).__name__.lower()
    if spec.cap is not None:
        return f"{name}-cap{spec.cap:g}"
    return name


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


def _methods(cfg, default, accepted, experiment) -> list:
    """The requested methods, every name checked before any fit runs."""
    methods = cfg.methods or default
    for method in methods:
        if method not in accepted:
            raise ExperimentError(f"unknown method {method!r} for {experiment}; "
                                  f"use one of {', '.join(accepted)}")
    return methods


def _single(cfg, option, default, experiment):
    """The one value of `option` that a driver without a grid over it takes;
    a list of several fails before any fit runs."""
    values = getattr(cfg, option)
    if len(values) > 1:
        raise ExperimentError(f"{experiment} takes one --{option} value, got "
                              f"{','.join(str(v) for v in values)}")
    return values[0] if values else default


def _fit(method, family, ds, domain, opts, particles=None, normalizer=None):
    """One method's fit over all its restarts, and the result row's weight."""
    if method in ("truncsm", "sm-constant"):
        spec = EUCLIDEAN if method == "truncsm" else CONSTANT
        return estimator.fit(family, ds, domain, spec, opts), _weight_name(spec)
    if method == "rjmle":
        return baselines.fit_rjmle(family, ds, domain, particles, opts,
                                   normalizer=normalizer), "none"
    return baselines.fit_mle_untruncated(family, ds, opts), "none"


# ---------------------------------------------------------------------------


def run_gmm_polygon(cfg: ExperimentConfig):
    """Four-center truncated mixture on the polygon window."""
    domain = geometry.load_polygon(cfg.domain_file) if cfg.domain_file \
        else presets.default_polygon()
    family = models.IsotropicGMM(d=2, K=4, sigma2=1.0)
    truth = presets.GMM_TRUE_CENTERS.reshape(-1)
    n_generated = _single(cfg, "n", 10_000, "gmm-polygon")
    methods = _methods(cfg, ["truncsm", "rjmle"], ["truncsm", "sm-constant", "rjmle"],
                       "gmm-polygon")
    restarts = cfg.restarts or 10

    rows, timings = [], []
    for seed in cfg.seeds or range(10):
        ds = data.sample_truncated(family, truth, domain, n_generated, seed)
        for method in methods:
            # RJ-MLE runs once per particle count, with at most 3 restarts
            runs = [(N, min(restarts, 3)) for N in cfg.particles or [500_000]] \
                if method == "rjmle" else [(None, restarts)]
            for N, r in runs:
                opts = estimator.FitOptions(restarts=r, seed=seed, init_style="kmeans++")
                t0 = time.perf_counter()
                rep, weight = _fit(method, family, ds, domain, opts, particles=N)
                wt = time.perf_counter() - t0
                err, _, _ = estimator.match_centers(rep.theta_hat, truth, 2)
                rows.append(_row(cfg, seed, ds.n, method, weight,
                                 _params_str(particles=N,
                                             centers=_centers_str(rep.theta_hat, 2)),
                                 err, rep))
                timings.append((f"{seed}:{method}" + (f":{N}" if N else ""), wt))
    return write_results(cfg, rows, timings)


def run_maha_vs_euclid(cfg: ExperimentConfig):
    """Single Gaussian on an elliptical window, two weight metrics."""
    rhos = cfg.sigma or [0.3, 0.9]
    n_grid = cfg.n or [250, 1000, 4000]
    theta_true = np.array([0.5, 0.5])
    family = models.GaussianMean(2)

    rows, timings = [], []
    for rho in rhos:
        if not 0.0 <= rho < 1.0:
            raise ExperimentError("correlation must lie in [0, 1)")
        Sigma = np.array([[1.0, -rho], [-rho, 1.0]])
        domain = geometry.MetricBall(geometry.Mahalanobis(Sigma), 1.0)
        specs = {"euclidean": EUCLIDEAN,
                 "mahalanobis": geometry.WeightSpec(metric=geometry.Mahalanobis(Sigma))}
        for n in n_grid:
            for seed in cfg.seeds or range(50):
                ds = data.sample_truncated_n(family, theta_true, domain, n, seed)
                for name, spec in specs.items():
                    t0 = time.perf_counter()
                    rep = estimator.fit(family, ds, domain, spec,
                                        estimator.FitOptions(seed=seed))
                    wt = time.perf_counter() - t0
                    err = float(np.linalg.norm(rep.theta_hat - theta_true))
                    rows.append(_row(cfg, seed, n, "truncsm", name,
                                     _params_str(rho=rho), err, rep))
                    timings.append((f"{rho}:{n}:{seed}:{name}", wt))
    return write_results(cfg, rows, timings)


def run_capped_scaling(cfg: ExperimentConfig):
    """Capped weights while the truncation window scales up."""
    b_grid = cfg.b_grid or [0.5, 1.0, 2.0, 4.0, 16.0]
    c_grid = cfg.cap or [0.1, 10.0, 100.0]
    n_generated = _single(cfg, "n", 1600, "capped-scaling")
    theta_true = np.array([0.5, 0.5])
    family = models.GaussianMean(2)
    templates = ["square", "disjoint"]

    rows, timings = [], []
    for template in templates:
        for b in b_grid:
            domain = geometry.template_domain(template, b)
            for seed in cfg.seeds or range(20):
                ds = data.sample_truncated(family, theta_true, domain,
                                           n_generated, seed)
                raw = geometry.distance_batch(domain, EUCLIDEAN, ds.points)
                for c in c_grid:
                    frac = float((c * raw.g[:, 0] >= 1.0).mean())
                    spec = dataclasses.replace(EUCLIDEAN, cap=c)
                    t0 = time.perf_counter()
                    rep = estimator.fit(family, ds, domain, spec,
                                        estimator.FitOptions(seed=seed))
                    wt = time.perf_counter() - t0
                    err = float(np.linalg.norm(rep.theta_hat - theta_true))
                    rows.append(_row(cfg, seed, ds.n, "truncsm", _weight_name(spec),
                                     _params_str(template=template, b=b, c=c,
                                                 capped_fraction=frac),
                                     err, rep))
                    timings.append((f"{template}:{b}:{seed}:{c}", wt))
    return write_results(cfg, rows, timings)


def run_l1_vs_l2(cfg: ExperimentConfig):
    """L1 vs Euclidean weight metric on the hemi-l1-ball window."""
    d_grid = cfg.d_grid or [2, 4, 8]
    n = _single(cfg, "n", 150, "l1-vs-l2")

    specs = {"l2": EUCLIDEAN, "l1": geometry.WeightSpec(metric=geometry.L1())}

    rows, timings = [], []
    for d in d_grid:
        domain = geometry.hemi_l1_ball(d)
        family = models.GaussianMean(d)
        theta_true = np.full(d, 0.5)
        for seed in cfg.seeds or range(50):
            ds = data.sample_gaussian_in_l1_hemiball(theta_true, n, seed)
            for name, spec in specs.items():
                t0 = time.perf_counter()
                rep = estimator.fit(family, ds, domain, spec,
                                    estimator.FitOptions(seed=seed))
                wt = time.perf_counter() - t0
                err = float(np.linalg.norm(rep.theta_hat - theta_true))
                rows.append(_row(cfg, seed, n, "truncsm", name, _params_str(dim=d),
                                 err, rep))
                timings.append((f"{d}:{seed}:{name}", wt))
    return write_results(cfg, rows, timings)


def _chicago_real(cfg: ExperimentConfig):
    """Two-component mixture on city-style point data from --points-file."""
    if not cfg.domain_file:
        raise ExperimentError("chicago needs --domain-file with the boundary polygon")
    sigma = _single(cfg, "sigma", None, "chicago")
    if sigma is None:
        raise ExperimentError("chicago needs --sigma (component standard deviation)")
    seed = _single(cfg, "seeds", 0, "chicago")
    particles = _single(cfg, "particles", 500_000, "chicago")
    domain = geometry.load_polygon(cfg.domain_file)
    ds = data.load_points_csv(cfg.points_file, lon_col="longitude", lat_col="latitude")
    ds = data.clip_to_domain(ds, domain)
    family = models.IsotropicGMM(d=2, K=2, sigma2=sigma ** 2)
    restarts = cfg.restarts or 500
    methods = _methods(cfg, ["truncsm", "rjmle", "mle"], ["truncsm", "rjmle", "mle"],
                       "chicago")
    box = geometry.bounding_box(domain)
    diag = float(np.linalg.norm(box.upper - box.lower))
    opts = estimator.FitOptions(restarts=restarts, seed=seed)
    normalizer = None
    if "rjmle" in methods:
        normalizer = baselines.make_normalizer(domain, particles, seed=seed)

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
        sd = float(A.std(axis=0).max())
        rows.append({**_row(cfg, seed, ds.n, method, weight,
                            _params_str(restarts=restarts, center_sd=sd, bbox_diag=diag,
                                        mean_centers=_centers_str(A.mean(axis=0), 2))),
                     "iterations": restarts})
        # the restarts alone: the weight table and the normalizer are one-off costs
        timings.append((method, rep.diagnostics["optimize_s"]))
    out = write_results(cfg, rows, timings)
    centers_path = Path(cfg.out).with_suffix(".centers.csv")
    centers_path.write_text("\n".join(center_lines) + "\n")
    return out


def _chicago_synthetic(cfg: ExperimentConfig):
    """Western half-plane truncation stand-in for the chicago experiment's
    qualitative effect, run when no points file is supplied."""
    theta_true = np.array([-0.5, 0.0])
    domain = geometry.Box(np.array([0.0, -3.0]), np.array([6.0, 3.0]))
    family = models.GaussianMean(2)
    n = _single(cfg, "n", 1000, "chicago")
    methods = _methods(cfg, ["truncsm", "mle"], ["truncsm", "sm-constant", "mle"],
                       "chicago")

    rows, timings = [], []
    for seed in cfg.seeds or range(50):
        ds = data.sample_truncated_n(family, theta_true, domain, n, seed)
        for method in methods:
            t0 = time.perf_counter()
            rep, weight = _fit(method, family, ds, domain, estimator.FitOptions(seed=seed))
            wt = time.perf_counter() - t0
            err = float(np.linalg.norm(rep.theta_hat - theta_true))
            rows.append(_row(cfg, seed, n, method, weight,
                             _params_str(center_x=float(rep.theta_hat[0]),
                                         center_y=float(rep.theta_hat[1])),
                             err, rep))
            timings.append((f"{seed}:{method}", wt))
    return write_results(cfg, rows, timings)


def run_identity_check(cfg: ExperimentConfig):
    """Monte Carlo verification of the integration-by-parts identity."""
    n = _single(cfg, "n", 100_000, "identity-check")
    domain = geometry.unit_square()
    family = models.GaussianMean(2)
    theta = np.array([0.2, 0.2])
    true_score = lambda X: -X  # standard Gaussian data score

    rows, timings = [], []
    for seed in cfg.seeds or range(10):
        t0 = time.perf_counter()
        ds = data.sample_truncated_n(models.GaussianMean(2), np.zeros(2), domain,
                                     n, seed, batch=200_000)
        table = geometry.distance_batch(domain, EUCLIDEAN, ds.points)
        lhs, rhs, z = estimator.ibp_identity_check(family, theta, ds.points,
                                                   true_score, table)
        wt = time.perf_counter() - t0
        rows.append(_row(cfg, seed, n, "truncsm", _weight_name(EUCLIDEAN),
                         _params_str(lhs=lhs, rhs=rhs, zscore=z)))
        timings.append((str(seed), wt))
    return write_results(cfg, rows, timings)


# Each experiment's driver and the options it reads; `run` rejects any other
# option that is given.  chicago has two drivers: the real-data one when
# --points-file is given, otherwise the synthetic stand-in.
DRIVERS = {
    "gmm-polygon": (run_gmm_polygon,
                    {"seeds", "n", "methods", "particles", "restarts", "domain_file"}),
    "maha-vs-euclid": (run_maha_vs_euclid, {"seeds", "n", "sigma"}),
    "capped-scaling": (run_capped_scaling, {"seeds", "n", "cap", "b_grid"}),
    "l1-vs-l2": (run_l1_vs_l2, {"seeds", "n", "d_grid"}),
    "chicago": (_chicago_synthetic, {"seeds", "n", "methods"}),
    "identity-check": (run_identity_check, {"seeds", "n"}),
}
CHICAGO_REAL = (_chicago_real, {"seeds", "methods", "particles", "restarts",
                                "domain_file", "points_file", "sigma"})


def run(cfg: ExperimentConfig):
    if cfg.experiment not in DRIVERS:
        raise ExperimentError(f"unknown experiment {cfg.experiment!r}")
    driver, reads = CHICAGO_REAL if cfg.experiment == "chicago" and cfg.points_file \
        else DRIVERS[cfg.experiment]
    for option, value in cfg.as_dict().items():
        if option not in reads | {"experiment", "out"} and value not in (None, []):
            flag = "--method" if option == "methods" else "--" + option.replace("_", "-")
            raise ExperimentError(f"{cfg.experiment} does not read {flag}")
    return driver(cfg)
