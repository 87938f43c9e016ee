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

from .estimator import EstimatorError, FitOptions, FitReport, _points, _run_restarts
from .geometry import bounding_box, contains_batch
from .models import _softmax
from .optim import CONVERGED, MAX_ITERATIONS, MinimizeResult, minimize_qn

EM_TOL = 1e-8  # EM stops when the mean log-likelihood moves by at most this


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
    w, amax, s = _softmax(lp[:, None])
    log_z = float(np.log(est.box_volume) + (np.log(s) + amax)[0] - np.log(len(est.particles)))
    return log_z, family.grad_logp_batch(theta, est.inside, w[:, 0])


def _grad_log_z(family, theta, est: NormalizerEstimate) -> np.ndarray:
    """grad log Zhat alone; kept as a span name for perfbench/tracing.py."""
    return estimate_log_z(family, theta, est)[1]


def fit_rjmle(family, dataset, domain, n_particles: int,
              opts: Optional[FitOptions] = None,
              normalizer: Optional[NormalizerEstimate] = None) -> FitReport:
    """Maximize mean log pbar(x_i) - log Zhat(theta) over theta, with a first
    steepest-descent step of length sigma, as in `estimator.fit`."""
    opts = opts or FitOptions()
    X = _points(dataset)
    est = normalizer or make_normalizer(domain, n_particles, seed=opts.seed)
    evals_before = est.eval_count
    mean = np.full(len(X), 1.0 / len(X))

    def fg(theta):
        log_z, grad_log_z = estimate_log_z(family, theta, est)
        f = -(family.logp_batch(theta, X).mean() - log_z)
        g = -(family.grad_logp_batch(theta, X, mean) - grad_log_z)
        return f, g

    rep = _run_restarts(
        family, X, opts,
        lambda theta0: minimize_qn(fg, theta0, tol=opts.tol, max_iters=opts.max_iters,
                                   step0=float(np.sqrt(family.sigma2))),
        n_particles=len(est.particles))
    rep.normalizer_eval_count = est.eval_count - evals_before
    return rep


def fit_mle_untruncated(family, dataset, opts: Optional[FitOptions] = None) -> FitReport:
    """MLE that ignores the truncation: EM with fixed variances and equal
    weights (for K = 1 every responsibility is 1, so one step gives the
    sample mean)."""
    opts = opts or FitOptions()
    X = _points(dataset)
    return _run_restarts(
        family, X, opts,
        lambda theta0: _em_fixed_variance(family, X, theta0, max_iters=opts.max_iters))


def _em_fixed_variance(family, X, theta0, max_iters: int) -> MinimizeResult:
    """EM on the centers until the mean log-likelihood moves by at most EM_TOL;
    the result's trace is the one entry (iterations, -mean log-likelihood, 0)."""
    theta = np.asarray(theta0, dtype=float).copy()
    ll = float(family.logp_batch(theta, X).mean())
    it, status = 0, MAX_ITERATIONS
    while status != CONVERGED and it < max_iters:
        it += 1
        R = family._pass(theta, X).W               # (K, n)
        Nk = R.sum(axis=1)
        mu = (R @ X) / np.where(Nk > 0, Nk, 1.0)[:, None]
        # keep empty components where they were
        old = theta.reshape(family.K, family.d)
        mu = np.where((Nk > 0)[:, None], mu, old)
        theta = mu.reshape(-1)
        ll_new = float(family.logp_batch(theta, X).mean())
        if abs(ll_new - ll) <= EM_TOL:
            status = CONVERGED
        ll = ll_new
    return MinimizeResult(x=theta, fun=-ll, status=status, trace=[(it, -ll, 0.0)],
                          n_evals=it + 1)
