"""Boundary-weighted score matching: empirical objective, gradient, fit loop
and Monte Carlo divergence diagnostics.

The per-sample estimation function is
    m(x) = sum_k [ ((d_k l)^2 + 2 d_k^2 l) g_k(x) + 2 (d_k l) d_k g_k(x) ]
and the fitted parameter minimizes the sample mean of m.  Weights are
precomputed once per dataset; they do not depend on the parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import optim
from .geometry import WeightSpec, WeightTable, distance_batch
from .optim import minimize_qn


class EstimatorError(ValueError):
    pass


@dataclass
class FitOptions:
    tol: float = 1e-6
    max_iters: int = 500
    restarts: int = 1
    seed: int = 0
    init: Optional[np.ndarray] = None
    init_style: str = "mean_jitter"  # or "kmeans++"
    jitter_sd: float = 0.06


@dataclass
class FitReport:
    theta_hat: np.ndarray
    objective_trace: list            # (iteration, value, grad norm)
    status: str
    restarts: list = field(default_factory=list)  # per-restart final objectives
    weight_eval_count: Optional[int] = None
    normalizer_eval_count: Optional[int] = None
    diagnostics: dict = field(default_factory=dict)


def _check_shapes(X, weights: WeightTable):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise EstimatorError("dataset must be an (n, d) matrix")
    if weights.g.shape != X.shape or weights.dg.shape != X.shape:
        raise EstimatorError("weight table shape does not match the dataset")
    return X


def objective_and_grad(family, theta, X, weights: WeightTable):
    """Objective and its theta-gradient from one score pass and one VJP."""
    X = _check_shapes(X, weights)
    dl, d2l = family.score_batch(theta, X)
    m = ((dl * dl + 2.0 * d2l) * weights.g).sum(axis=1) + (2.0 * dl * weights.dg).sum(axis=1)
    # dm/d(dl) = 2 (dl g + dg) and dm/d(d2l) = 2 g, per sample and coordinate
    grad = family.score_grad_batch(theta, X, 2.0 * (dl * weights.g + weights.dg),
                                   2.0 * weights.g)
    return float(m.sum() / len(X)), grad / len(X)


def objective(family, theta, X, weights: WeightTable) -> float:
    return objective_and_grad(family, theta, X, weights)[0]


def objective_grad(family, theta, X, weights: WeightTable) -> np.ndarray:
    return objective_and_grad(family, theta, X, weights)[1]


def kmeanspp_init(X, K, rng):
    """Spread K initial centers over the data (k-means++ seeding)."""
    n = len(X)
    centers = [X[rng.integers(n)]]
    for _ in range(K - 1):
        d2 = np.min([((X - c) ** 2).sum(axis=1) for c in centers], axis=0)
        p = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers.append(X[rng.choice(n, p=p)])
    return np.concatenate(centers)


def initial_points(family, X, opts: FitOptions):
    """Per-restart initial parameter vectors."""
    rng = np.random.default_rng(opts.seed)
    n_comp = getattr(family, "K", 1)
    inits = []
    for _ in range(opts.restarts):
        if opts.init is not None:
            base = np.asarray(opts.init, dtype=float).copy()
            if opts.restarts > 1:
                base = base + opts.jitter_sd * rng.standard_normal(family.r)
            inits.append(base)
        elif opts.init_style == "kmeans++" and n_comp > 1:
            inits.append(kmeanspp_init(X, n_comp, rng))
        else:
            # dataset mean plus a small Gaussian jitter, per component
            mu = X.mean(axis=0)
            eps = opts.jitter_sd * rng.standard_normal(family.r)
            inits.append(np.tile(mu, family.r // family.d) + eps)
    return inits


def _run_restarts(objective_fg, inits, opts: FitOptions):
    best = None
    finals = []
    for theta0 in inits:
        res = minimize_qn(objective_fg, theta0, tol=opts.tol, max_iters=opts.max_iters)
        finals.append(res.fun)
        if res.status != optim.LINE_SEARCH_FAILURE or len(res.trace) > 1:
            if best is None or res.fun < best.fun:
                best = res
    if best is None:
        raise EstimatorError("all restarts failed in the line search")
    return best, finals


def fit(family, dataset, domain, weight_spec: WeightSpec,
        opts: Optional[FitOptions] = None) -> FitReport:
    """Precompute weights once, then minimize the empirical objective."""
    opts = opts or FitOptions()
    X = np.asarray(getattr(dataset, "points", dataset), dtype=float)
    if len(X) == 0:
        raise EstimatorError("empty dataset")
    weights = distance_batch(domain, weight_spec, X)

    def fg(theta):
        return objective_and_grad(family, theta, X, weights)

    inits = initial_points(family, X, opts)
    best, finals = _run_restarts(fg, inits, opts)
    return FitReport(theta_hat=best.x, objective_trace=best.trace,
                     status=best.status, restarts=finals,
                     weight_eval_count=weights.eval_count,
                     diagnostics={"n": len(X), "n_obj_evals": best.n_evals})


def fh_divergence(family, theta, X, true_score, weights: WeightTable) -> float:
    """Monte Carlo weighted Fisher divergence against a known data score.

    true_score(X) must return the (n, d) matrix of input-space gradients of
    the log data density at the samples.
    """
    X = _check_shapes(X, weights)
    dl, _ = family.score_batch(theta, X)
    qs = np.asarray(true_score(X), dtype=float)
    if qs.shape != X.shape:
        raise EstimatorError("true_score must return an (n, d) matrix")
    return float((weights.g * (dl - qs) ** 2).sum(axis=1).mean())


def ibp_identity_check(family, theta, X, true_score, weights: WeightTable):
    """Monte Carlo check of the integration-by-parts identity.

    lhs_i = sum_k g_k (d_k l)(d_k log q),
    rhs_i = -sum_k [ (d_k g_k)(d_k l) + g_k d_k^2 l ].
    Returns (lhs, rhs, zscore) with the z-score based on the per-sample
    paired difference.
    """
    X = _check_shapes(X, weights)
    dl, d2l = family.score_batch(theta, X)
    qs = np.asarray(true_score(X), dtype=float)
    lhs_i = (weights.g * dl * qs).sum(axis=1)
    rhs_i = -((weights.dg * dl) + (weights.g * d2l)).sum(axis=1)
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
