"""Reference estimators: rejection-sampling MLE, truncation-unaware MLE.

RJ-MLE approximates the normalizing constant over the truncation region by
Monte Carlo over a fixed uniform particle cloud on the bounding box; the
particles are common random numbers across all parameter values so the
surrogate objective is smooth and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .estimator import EstimatorError, FitOptions, FitReport, _run_restarts, initial_points
from .geometry import bounding_box, contains_batch
from .models import _softmax_lse


@dataclass
class NormalizerEstimate:
    particles: np.ndarray        # (N, d), uniform on the bounding box
    in_domain_mask: np.ndarray   # (N,)
    inside: np.ndarray           # particles[in_domain_mask], gathered once
    box_volume: float
    eval_count: int = 0


def make_normalizer(domain, n_particles: int, seed: int = 0) -> NormalizerEstimate:
    if n_particles < 1:
        raise EstimatorError("need at least one particle")
    box = bounding_box(domain)
    rng = np.random.default_rng(seed)
    U = box.lower + (box.upper - box.lower) * rng.random((n_particles, box.dim))
    mask = contains_batch(domain, U)
    if not mask.any():
        raise EstimatorError(f"none of the {n_particles} particles is inside the domain")
    vol = float(np.prod(box.upper - box.lower))
    return NormalizerEstimate(particles=U, in_domain_mask=mask, inside=U[mask],
                              box_volume=vol)


def estimate_log_z(family, theta, est: NormalizerEstimate):
    """(log Zhat, grad log Zhat) for Zhat = box_volume * mean(mask * pbar(u)),
    from one pass over the inside particles, stabilized in log space."""
    est.eval_count += 1
    lp = family.logp_batch(theta, est.inside)
    w, lse = _softmax_lse(lp[None, :])
    log_z = float(np.log(est.box_volume) + lse[0] - np.log(len(est.particles)))
    return log_z, w[0] @ family.grad_logp_batch(theta, est.inside)


def _grad_log_z(family, theta, est: NormalizerEstimate) -> np.ndarray:
    """grad log Zhat alone; kept as a span name for perfbench/tracing.py."""
    return estimate_log_z(family, theta, est)[1]


def fit_rjmle(family, dataset, domain, n_particles: int,
              opts: Optional[FitOptions] = None,
              normalizer: Optional[NormalizerEstimate] = None) -> FitReport:
    """Maximize mean log pbar(x_i) - log Zhat(theta) over theta."""
    opts = opts or FitOptions()
    X = np.asarray(getattr(dataset, "points", dataset), dtype=float)
    if len(X) == 0:
        raise EstimatorError("empty dataset")
    est = normalizer or make_normalizer(domain, n_particles, seed=opts.seed)
    evals_before = est.eval_count

    def fg(theta):
        log_z, grad_log_z = estimate_log_z(family, theta, est)
        f = -(family.logp_batch(theta, X).mean() - log_z)
        g = -(family.grad_logp_batch(theta, X).mean(axis=0) - grad_log_z)
        return f, g

    inits = initial_points(family, X, opts)
    best, finals = _run_restarts(fg, inits, opts)
    return FitReport(theta_hat=best.x, objective_trace=best.trace,
                     status=best.status, restarts=finals,
                     normalizer_eval_count=est.eval_count - evals_before,
                     diagnostics={"n": len(X), "n_particles": len(est.particles)})


def fit_mle_untruncated(family, dataset, opts: Optional[FitOptions] = None) -> FitReport:
    """MLE that ignores the truncation.

    Sample mean for the single Gaussian; EM with fixed variances and equal
    weights for the mixture.
    """
    opts = opts or FitOptions()
    X = np.asarray(getattr(dataset, "points", dataset), dtype=float)
    if len(X) == 0:
        raise EstimatorError("empty dataset")
    K = getattr(family, "K", 1)
    if K == 1:
        theta = X.mean(axis=0)
        if hasattr(family, "K"):
            theta = theta.copy()
        ll = float(family.logp_batch(theta, X).mean())
        return FitReport(theta_hat=theta, objective_trace=[(0, -ll, 0.0)],
                         status="converged", restarts=[-ll],
                         diagnostics={"n": len(X), "method": "closed_form"})

    inits = initial_points(family, X, opts)
    best_theta, best_ll, finals, best_iters = None, -np.inf, [], 0
    for theta0 in inits:
        theta, ll, iters = _em_fixed_variance(family, X, theta0, tol=1e-8,
                                              max_iters=opts.max_iters)
        finals.append(-ll)
        if ll > best_ll:
            best_theta, best_ll, best_iters = theta, ll, iters
    return FitReport(theta_hat=best_theta, objective_trace=[(best_iters, -best_ll, 0.0)],
                     status="converged", restarts=finals,
                     diagnostics={"n": len(X), "method": "em"})


def _em_fixed_variance(family, X, theta0, tol: float, max_iters: int):
    theta = np.asarray(theta0, dtype=float).copy()
    ll = float(family.logp_batch(theta, X).mean())
    for it in range(1, max_iters + 1):
        R = family.responsibilities(theta, X)      # (n, K)
        Nk = R.sum(axis=0)
        mu = (R.T @ X) / np.where(Nk > 0, Nk, 1.0)[:, None]
        # keep empty components where they were
        old = theta.reshape(family.K, family.d)
        mu = np.where((Nk > 0)[:, None], mu, old)
        theta = mu.reshape(-1)
        ll_new = float(family.logp_batch(theta, X).mean())
        if abs(ll_new - ll) <= tol:
            return theta, ll_new, it
        ll = ll_new
    return theta, ll, max_iters
