"""Test-side helpers over the package's public entry points: the objective
and its gradient alone, the objective in its point-major form, the restart
loop that solves every restart and a check of the one that solves each
distinct start once, a call counter, a rescaled weight table, membership and
weights at one point, a result row's params parsed back, the mixture kernel in
its out-of-place form, and the analytic model derivatives at one point checked
against central differences.
"""

import time
from dataclasses import dataclass

import numpy as np

from truncsm import optim
from truncsm.estimator import (EstimatorError, FitReport, initial_points,
                               objective_and_grad)
from truncsm.geometry import (DimensionMismatchError, WeightSpec, WeightTable,
                              contains_batch, distance_batch)
from truncsm.models import ModelError


def objective(family, theta, X, weights: WeightTable) -> float:
    return objective_and_grad(family, theta, X, weights)[0]


def objective_grad(family, theta, X, weights: WeightTable) -> np.ndarray:
    return objective_and_grad(family, theta, X, weights)[1]


def pointmajor_objective_and_grad(family, theta, X, weights: WeightTable):
    """estimator.objective_and_grad on the (n, d) score view, a C-ordered
    (n, d) copy of dg and the (n, 1) g column: the gradient the feature-major
    objective must equal bit for bit.  Returns (objective, gradient, the
    (n, d + 1) summands of the objective: d score terms and the Laplacian's),
    whose magnitudes bound the rounding of a sum taken in another order."""
    dl, lap = family.score_batch(theta, X)
    g, dg = weights.g, np.ascontiguousarray(weights.dg)
    terms = np.column_stack(((dl * dl) * g + 2.0 * dl * dg, 2.0 * lap * g[:, 0]))
    grad = family.score_grad_batch(theta, X, 2.0 * (dl * g + dg), 2.0 * g[:, 0])
    return float(terms.sum() / len(X)), grad / len(X), terms


# estimator._run_restarts as it was before equal start points were solved once:
# the oracle whose result and centers files the shipped loop must reproduce
def solve_every_restart(family, X, opts, solve, **diagnostics) -> FitReport:
    """Solve from every start point of `initial_points`, with the family's kernel
    pass kept (`memoized`), and report the best restart.

    solve(theta0) returns an optim.MinimizeResult.  A restart whose first line
    search failed (a one-entry trace) is not usable; among the others the lowest
    objective wins, the first one on ties.  The report's diagnostics add n, the
    best restart's n_obj_evals and the restarts' wall time, optimize_s.
    """
    inits = initial_points(family, X, opts)
    with family.memoized():
        t0 = time.perf_counter()
        results = [solve(theta0) for theta0 in inits]
        optimize_s = time.perf_counter() - t0
    usable = [r for r in results
              if r.status != optim.LINE_SEARCH_FAILURE or len(r.trace) > 1]
    if not usable:
        raise EstimatorError("all restarts failed in the line search")
    best = min(usable, key=lambda r: r.fun)
    diagnostics.update(n=len(X), n_obj_evals=best.n_evals, optimize_s=optimize_s)
    return FitReport(theta_hat=best.x, objective_trace=best.trace, status=best.status,
                     restarts=results, diagnostics=diagnostics)


def check_equal_starts_solved_once(fit_from, a, b):
    """fit_from(init) fits from the rows of init and returns (report, solves,
    objective evaluations).  From [a, b, a, a, b] the fit solves twice, the
    restarts at equal starts hold one result object, and each result equals,
    bit for bit, the fit from its start alone."""
    rep, solves, evals = fit_from(np.array([a, b, a, a, b]))
    r = rep.restarts
    assert solves == rep.diagnostics["distinct_starts"] == 2
    assert r[0] is r[2] is r[3] and r[1] is r[4] and r[0] is not r[1]
    assert evals == r[0].n_evals + r[1].n_evals
    for shared, start in ((r[0], a), (r[1], b)):
        alone = fit_from(np.array([start]))[0].restarts[0]
        assert shared.x.tobytes() == alone.x.tobytes()
        assert (shared.fun, shared.status, shared.trace, shared.n_evals) \
            == (alone.fun, alone.status, alone.trace, alone.n_evals)
    best = min((r[0], r[1]), key=lambda res: res.fun)
    assert rep.theta_hat is best.x


def counted(monkeypatch, owner, name) -> list:
    """Wrap owner.name for the test; each call appends its positional arguments
    to the returned list."""
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a) or original(*a, **k))
    return calls


def scaled_weights(weights: WeightTable, alpha: float) -> WeightTable:
    """The weight table of alpha * g."""
    return WeightTable(g=alpha * weights.g, dg=alpha * weights.dg)


def contains(domain, x) -> bool:
    x = np.asarray(x, dtype=float)
    if x.shape != (domain.dim,):
        raise DimensionMismatchError(f"point of dim {x.shape} vs domain dim {domain.dim}")
    return bool(contains_batch(domain, x[None, :])[0])


def distance(domain, weight: WeightSpec, x):
    """Weight value and its gradient at a single interior point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (domain.dim,):
        raise DimensionMismatchError(f"point of dim {x.shape} vs domain dim {domain.dim}")
    table = distance_batch(domain, weight, x[None, :])
    return float(table.g[0, 0]), table.dg[0]


def parse_params(s: str) -> dict:
    return dict(part.split("=", 1) for part in str(s).split(";") if "=" in part)


def outofplace_kernel(mu, X, sigma2):
    """models._kernel with the logits and softmax built in fresh arrays, the
    form the in-place kernel must equal bit for bit: (Yt, M, W, lse)."""
    c = mu.mean(axis=0)
    Yt = np.subtract(X.T, c[:, None], order="C")
    M = mu - c
    a = (M @ Yt - 0.5 * (M * M).sum(axis=1)[:, None]) / sigma2
    amax = a.max(axis=0)
    e = np.exp(a - amax)
    s = e.sum(axis=0)
    W, lse = e / s, np.log(s) + amax
    lse -= 0.5 * np.einsum("dn,dn->n", Yt, Yt) / sigma2
    return Yt, M, W, lse


@dataclass
class ScoreEval:
    dl: np.ndarray        # (d,)   d_k log p
    lap: float            #        sum_k d_k^2 log p
    grad_dl: np.ndarray   # (r, d) theta-gradient of dl
    grad_lap: np.ndarray  # (r,)   theta-gradient of lap


def score_eval(family, theta, x) -> ScoreEval:
    """Analytic derivatives of the log model density at one point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (family.d,):
        raise ModelError(f"x must have dimension {family.d}")
    X = x[None, :]
    dl, lap = family.score_batch(theta, X)
    # column k of the (r, d) Jacobian of dl is the VJP with unit cotangent e_k
    E = np.eye(family.d)[:, None, :]
    grad_dl = np.column_stack([family.score_grad_batch(theta, X, e, np.zeros(1)) for e in E])
    grad_lap = family.score_grad_batch(theta, X, 0 * E[0], np.ones(1))
    out = ScoreEval(dl=dl[0], lap=float(lap[0]), grad_dl=grad_dl, grad_lap=grad_lap)
    for arr in (out.dl, out.lap, out.grad_dl, out.grad_lap):
        if not np.all(np.isfinite(arr)):
            raise ModelError("non-finite derivative; check theta/x magnitudes")
    return out


def _rel_err(approx, exact):
    # mixed absolute/relative error: near-zero blocks (e.g. one mixture
    # component taking all responsibility) are compared absolutely, so finite
    # difference round-off on a ~0 quantity does not blow up the ratio
    return np.linalg.norm(approx - exact) / (1.0 + np.linalg.norm(exact))


def fd_check(family, theta, x, h: float = 1e-5) -> float:
    """Worst relative error of the analytic derivatives vs central differences."""
    if h <= 0:
        raise ModelError("h must be positive")
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    ev = score_eval(family, theta, x)
    d, r = family.d, family.r
    errs = []

    # dl vs FD of logp in x
    fd_dl = np.empty(d)
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        lp = lambda z: family.logp_batch(theta, z[None, :])[0]
        fd_dl[k] = (lp(x + e) - lp(x - e)) / (2 * h)
    errs.append(_rel_err(ev.dl, fd_dl))

    # lap vs the sum over k of FD of dl_k in x_k
    fd_lap = 0.0
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        dp = family.score_batch(theta, (x + e)[None, :])[0][0, k]
        dm = family.score_batch(theta, (x - e)[None, :])[0][0, k]
        fd_lap += (dp - dm) / (2 * h)
    errs.append(_rel_err(ev.lap, fd_lap))

    # theta-gradients vs FD of dl and lap in theta
    fd_gdl = np.empty((r, d))
    fd_glap = np.empty(r)
    for j in range(r):
        e = np.zeros(r)
        e[j] = h
        dlp, lapp = family.score_batch(theta + e, x[None, :])
        dlm, lapm = family.score_batch(theta - e, x[None, :])
        fd_gdl[j] = (dlp[0] - dlm[0]) / (2 * h)
        fd_glap[j] = (lapp[0] - lapm[0]) / (2 * h)
    errs.append(_rel_err(ev.grad_dl, fd_gdl))
    errs.append(_rel_err(ev.grad_lap, fd_glap))

    return float(max(errs))
