"""Boundary-weighted score matching: empirical objective, gradient, fit loop
and Monte Carlo divergence diagnostics.

The per-sample estimation function, for the scalar boundary weight g(x), is
    m(x) = g(x) [ |grad_x l|^2 + 2 lap_x l ] + 2 grad_x g . grad_x l,
with lap_x l = sum_k d_k^2 l; the fitted parameter minimizes the sample mean
of m.  Weights are precomputed once per dataset: they do not depend on theta.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import optim
from .geometry import WeightSpec, WeightTable, distance_batch
from .optim import minimize_qn

JITTER_SD = 0.06  # sd of the Gaussian jitter on each restart's start point
INIT_STYLES = ("mean_jitter", "kmeans++", "kmeans")
LLOYD_MAX_ITERS = 100  # Lloyd steps after k-means++ seeding in the "kmeans" style


class EstimatorError(ValueError):
    pass


@dataclass
class FitOptions:
    tol: float = 1e-6
    max_iters: int = 500
    restarts: int = 1
    seed: int = 0
    init: Optional[np.ndarray] = None  # (restarts, r) start points, one row per restart
    init_style: str = "mean_jitter"  # one of INIT_STYLES


@dataclass
class FitReport:
    theta_hat: np.ndarray
    objective_trace: list            # (iteration, value, grad norm)
    status: str
    # optim.MinimizeResult per restart; restarts from equal start points share one
    restarts: list = field(default_factory=list)
    normalizer_eval_count: Optional[int] = None
    diagnostics: dict = field(default_factory=dict)


def _check_shapes(X, weights: WeightTable):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise EstimatorError("dataset must be an (n, d) matrix")
    if weights.g.shape != (len(X), 1) or weights.dg.shape != X.shape:
        raise EstimatorError(f"the {X.shape} dataset needs g {(len(X), 1)} and dg {X.shape}, "
                             f"got g {weights.g.shape} and dg {weights.dg.shape}")
    return X


def objective_and_grad(family, theta, X, weights: WeightTable):
    """Objective and its theta-gradient from one score pass and one VJP, in
    feature-major layout: (d, n) score and dg, and (n,) Laplacian and g."""
    X = _check_shapes(X, weights)
    dl, lap = family.score_batch(theta, X)
    dl, g, dg = dl.T, weights.g[:, 0], weights.dg.T  # contiguous from distance_batch
    m_sum = ((dl * dl) * g + 2.0 * dl * dg).sum() + 2.0 * (lap @ g)
    # dm/d(dl) = 2 (dl g + dg), dm/d(lap) = 2 g: the VJP gets an (n, d) view of
    # a contiguous (d, n) array, and its GEMMs read it without a copy
    grad = family.score_grad_batch(theta, X, (2.0 * (dl * g + dg)).T, 2.0 * g)
    return float(m_sum / len(X)), grad / len(X)


def kmeanspp_init(X, K, rng):
    """Spread K initial centers over the data (k-means++ seeding)."""
    n = len(X)
    centers = [X[rng.integers(n)]]
    d2 = np.full(n, np.inf)  # squared distance to the nearest chosen center
    for _ in range(K - 1):
        d2 = np.minimum(d2, ((X - centers[-1]) ** 2).sum(axis=1))
        p = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers.append(X[rng.choice(n, p=p)])
    return np.concatenate(centers)


def kmeans_init(X, K, rng):
    """k-means++ seeding, then Lloyd steps until no point changes its nearest
    center (at most LLOYD_MAX_ITERS); a center that loses every point stays put."""
    mean = X.mean(axis=0)
    Yt = np.ascontiguousarray((X - mean).T)  # centred, feature-major (d, n)
    C = kmeanspp_init(X, K, rng).reshape(K, -1) - mean
    labels = None
    for _ in range(LLOYD_MAX_ITERS):
        # ||c||^2 - 2 c.y is the squared distance less ||y||^2, the same for every center
        nearest = np.argmin((C * C).sum(axis=1)[:, None] - 2.0 * (C @ Yt), axis=0)
        if labels is not None and np.array_equal(nearest, labels):
            break
        labels = nearest
        member = labels == np.arange(K)[:, None]  # (K, n)
        count = member.sum(axis=1)[:, None]
        C = np.where(count > 0, (member @ Yt.T) / np.maximum(count, 1), C)
    return (C + mean).reshape(-1)


def initial_points(family, X, opts: FitOptions):
    """Per-restart start points: the rows of `init`, or for a mixture k-means++
    seeds or k-means centers, else the data mean jittered."""
    if opts.init_style not in INIT_STYLES:
        raise EstimatorError(f"unknown init_style {opts.init_style!r}; use one of "
                             + ", ".join(repr(s) for s in INIT_STYLES))
    if opts.restarts < 1:
        raise EstimatorError(f"restarts must be at least 1, got {opts.restarts}")
    if opts.init is not None:
        init = np.array(opts.init, dtype=float)
        if init.shape != (opts.restarts, family.r):
            raise EstimatorError(f"init must hold one start point per restart, shape "
                                 f"{(opts.restarts, family.r)}, got {init.shape}")
        return list(init)
    rng = np.random.default_rng(opts.seed)
    inits = []
    for _ in range(opts.restarts):
        if opts.init_style == "kmeans++" and family.K > 1:
            inits.append(kmeanspp_init(X, family.K, rng))
        elif opts.init_style == "kmeans" and family.K > 1:
            inits.append(kmeans_init(X, family.K, rng))
        else:
            # dataset mean plus a small Gaussian jitter, per component
            inits.append(np.tile(X.mean(axis=0), family.K)
                         + JITTER_SD * rng.standard_normal(family.r))
    return inits


def _points(dataset):
    """The dataset's points as a float (n, d) array; an empty one is an error."""
    X = np.asarray(getattr(dataset, "points", dataset), dtype=float)
    if len(X) == 0:
        raise EstimatorError("empty dataset")
    return X


def _run_restarts(family, X, opts: FitOptions, solve, **diagnostics) -> FitReport:
    """Solve from each distinct start point of `initial_points`, with the family's
    kernel pass kept (`memoized`), and report the best restart.

    solve(theta0) returns an optim.MinimizeResult; it is deterministic, so start
    points with equal float64 bytes are solved once and their restarts share
    that one result object.  A restart whose first line search failed (a
    one-entry trace) is not usable; among the others the lowest objective wins,
    the first one on ties.  The report's diagnostics add n, the best restart's
    n_obj_evals, the number of solves, distinct_starts, and their wall time,
    optimize_s.
    """
    inits = initial_points(family, X, opts)
    solved = {}  # start point's bytes -> its result
    with family.memoized():
        t0 = time.perf_counter()
        for theta0 in inits:
            key = theta0.tobytes()
            if key not in solved:
                solved[key] = solve(theta0)
        optimize_s = time.perf_counter() - t0
    results = [solved[theta0.tobytes()] for theta0 in inits]
    usable = [r for r in results
              if r.status != optim.LINE_SEARCH_FAILURE or len(r.trace) > 1]
    if not usable:
        raise EstimatorError("all restarts failed in the line search")
    best = min(usable, key=lambda r: r.fun)
    diagnostics.update(n=len(X), n_obj_evals=best.n_evals, distinct_starts=len(solved),
                       optimize_s=optimize_s)
    return FitReport(theta_hat=best.x, objective_trace=best.trace, status=best.status,
                     restarts=results, diagnostics=diagnostics)


def fit(family, dataset, domain, weight_spec: WeightSpec,
        opts: Optional[FitOptions] = None) -> FitReport:
    """Precompute weights once, then minimize the empirical objective, so each
    evaluation makes one pass over the data.

    For K = 1 the score is affine in the mean, the objective is quadratic and
    its minimizer is, per coordinate, (sum g x - sigma2 sum dg) / sum g; the
    fit starts there and the optimizer confirms it in one evaluation.
    """
    opts = opts or FitOptions()
    X = _points(dataset)
    weights = distance_batch(domain, weight_spec, X)
    if family.K == 1:
        theta = ((weights.g * X).sum(axis=0) - family.sigma2 * weights.dg.sum(axis=0)) \
            / weights.g.sum()
        opts = replace(opts, init=theta[None, :], restarts=1)

    def fg(theta):
        return objective_and_grad(family, theta, X, weights)

    return _run_restarts(
        family, X, opts,
        lambda theta0: minimize_qn(fg, theta0, tol=opts.tol, max_iters=opts.max_iters))


def _true_score(true_score, X):
    qs = np.asarray(true_score(X), dtype=float)
    if qs.shape != X.shape:
        raise EstimatorError(f"true_score must return an (n, d) matrix, got shape {qs.shape}")
    return qs


def fh_divergence(family, theta, X, true_score, weights: WeightTable) -> float:
    """Monte Carlo weighted Fisher divergence against a known data score.

    true_score(X) must return the (n, d) matrix of input-space gradients of
    the log data density at the samples.
    """
    X = _check_shapes(X, weights)
    dl, _ = family.score_batch(theta, X)
    qs = _true_score(true_score, X)
    return float((weights.g * (dl - qs) ** 2).sum(axis=1).mean())


def ibp_identity_check(family, theta, X, true_score, weights: WeightTable):
    """Monte Carlo check of the integration-by-parts identity.

    lhs_i = g grad_x l . grad_x log q,
    rhs_i = -(grad_x g . grad_x l + g lap_x l).
    Returns (lhs, rhs, zscore) with the z-score based on the per-sample
    paired difference.
    """
    X = _check_shapes(X, weights)
    dl, lap = family.score_batch(theta, X)
    qs = _true_score(true_score, X)
    lhs_i = (weights.g * dl * qs).sum(axis=1)
    rhs_i = -((weights.dg * dl).sum(axis=1) + weights.g[:, 0] * lap)
    lhs = float(lhs_i.mean())
    rhs = float(rhs_i.mean())
    diff = lhs_i - rhs_i
    se = float(diff.std(ddof=1) / np.sqrt(len(X))) if len(X) > 1 else 0.0
    z = abs(lhs - rhs) / se if se > 0 else 0.0
    return lhs, rhs, float(z)


def match_centers(estimated, reference, d: int):
    """Pair two flattened center sets by minimum-cost assignment.

    Returns (max matched distance, mean matched distance, permutation) where
    permutation maps reference component j to estimated component perm[j].
    """
    from scipy.optimize import linear_sum_assignment

    est = np.asarray(estimated, dtype=float).reshape(-1, d)
    ref = np.asarray(reference, dtype=float).reshape(-1, d)
    if est.shape != ref.shape:
        raise EstimatorError("center sets must have equal shapes")
    cost = np.linalg.norm(ref[:, None, :] - est[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    dists = cost[rows, cols]
    return float(dists.max()), float(dists.mean()), cols
