"""The model family, with the analytic derivatives the estimator needs.

One family, `IsotropicGMM`: an equal-weight mixture of K isotropic Gaussians
with a fixed shared variance.  `GaussianMean(d)` is its K = 1, sigma2 = 1
member, the single Gaussian with unknown mean; its score is affine in theta,
so the score-matching objective is quadratic and `estimator.fit` starts it at
the closed-form minimizer.  For a flattened parameter vector theta the family
exposes values and parameter vector-Jacobian products (VJPs):
  - logp_batch:       log density (untruncated normalizer) at each sample
  - grad_logp_batch:  its parameter gradient at each sample
  - score_batch:      per-coordinate first and second input derivatives
  - score_grad_batch: VJP of both with per-sample cotangents, summed over the
                      samples in O(n K d)
The normalizing constant over the truncation region is never evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ModelError(ValueError):
    pass


def _softmax_lse(a):
    """Row-wise softmax and log-sum-exp of an (n, K) array, shifted by the
    row maximum so neither overflows."""
    amax = a.max(axis=1, keepdims=True)
    e = np.exp(a - amax)
    s = e.sum(axis=1, keepdims=True)
    return e / s, np.log(s[:, 0]) + amax[:, 0]


@dataclass
class ScoreEval:
    dl: np.ndarray        # (d,)   d_k log p
    d2l: np.ndarray       # (d,)   d_k^2 log p
    grad_dl: np.ndarray   # (r, d) theta-gradient of dl
    grad_d2l: np.ndarray  # (r, d) theta-gradient of d2l


class IsotropicGMM:
    """Equal-weight mixture of K isotropic Gaussians with fixed variance.

    theta is the flattened (K, d) matrix of component means; weights 1/K and
    the shared variance sigma2 are fixed, matching the estimation setting.
    """

    def __init__(self, d: int, K: int, sigma2: float = 1.0):
        if d < 1 or K < 1:
            raise ModelError("d and K must be >= 1")
        if sigma2 <= 0:
            raise ModelError("sigma2 must be positive")
        self.d = d
        self.K = K
        self.sigma2 = float(sigma2)
        self.r = K * d

    def check_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.r,) or not np.all(np.isfinite(theta)):
            raise ModelError(f"theta must be a finite vector of length {self.r}")
        return theta

    def _log_weights(self, theta, X):
        mu = theta.reshape(self.K, self.d)
        diff = X[:, None, :] - mu[None, :, :]             # (n, K, d)
        a = -0.5 * np.einsum("nkd,nkd->nk", diff, diff) / self.sigma2  # (n, K)
        return a, diff

    def responsibilities(self, theta, X):
        theta = self.check_theta(theta)
        a, _ = self._log_weights(theta, X)
        return _softmax_lse(a)[0]

    def logp_batch(self, theta, X):
        theta = self.check_theta(theta)
        a, _ = self._log_weights(theta, X)
        const = -0.5 * self.d * np.log(2.0 * np.pi * self.sigma2) - np.log(self.K)
        return _softmax_lse(a)[1] + const

    def grad_logp_batch(self, theta, X):
        theta = self.check_theta(theta)
        a, diff = self._log_weights(theta, X)
        W = _softmax_lse(a)[0]
        # d logp / d mu_{j,m} = w_j (x_m - mu_{j,m}) / sigma2
        G = W[:, :, None] * diff / self.sigma2
        return G.reshape(len(X), self.r)

    def _score_terms(self, theta, X):
        a, diff = self._log_weights(theta, X)
        W = _softmax_lse(a)[0]
        S = -diff / self.sigma2                       # (n, K, d): (mu - x)/sigma2
        dl = np.einsum("nk,nkd->nd", W, S)
        sq = np.einsum("nk,nkd->nd", W, S ** 2)
        return W, S, dl, sq

    def score_batch(self, theta, X):
        theta = self.check_theta(theta)
        _, _, dl, sq = self._score_terms(theta, X)
        return dl, sq - dl ** 2 - 1.0 / self.sigma2

    def score_grad_batch(self, theta, X, c_dl, c_d2l):
        # d(dl_k)/d mu_jm = -w_j S_jm (S_jk - dl_k) + w_j delta_km / sigma2 and
        # d(sq_k)/d mu_jm = -w_j S_jm (S_jk^2 - sq_k) + 2 w_j S_jk delta_km / sigma2;
        # with b = c_dl - 2 c_d2l dl, u_j = sum_k b_k (S_jk - dl_k) + c_d2l_k (S_jk^2 - sq_k)
        # the contraction is w_j [-S_jm u_j + (b_m + 2 S_jm c_d2l_m) / sigma2]
        theta = self.check_theta(theta)
        W, S, dl, sq = self._score_terms(theta, X)
        b = c_dl - 2.0 * c_d2l * dl
        u = (np.einsum("nkd,nd->nk", S, b) + np.einsum("nkd,nd->nk", S ** 2, c_d2l)
             - ((b * dl) + (c_d2l * sq)).sum(axis=1)[:, None])
        per = -S * u[:, :, None] + (b[:, None, :] + 2.0 * S * c_d2l[:, None, :]) / self.sigma2
        return np.einsum("nk,nkd->kd", W, per).reshape(self.r)

    def sample(self, theta, n, rng):
        theta = self.check_theta(theta)
        mu = theta.reshape(self.K, self.d)
        comps = rng.integers(0, self.K, size=n)  # draws nothing when K = 1
        X = rng.standard_normal((n, self.d))  # scaled and shifted in place
        X *= np.sqrt(self.sigma2)
        X += mu[comps]
        return X


class GaussianMean(IsotropicGMM):
    """N(theta, I_d) with unknown mean: the one-component, unit-variance mixture."""

    def __init__(self, d: int):
        super().__init__(d, 1, 1.0)


def score_eval(family, theta, x) -> ScoreEval:
    """Analytic derivatives of the log model density at one point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (family.d,):
        raise ModelError(f"x must have dimension {family.d}")
    X = x[None, :]
    dl, d2l = family.score_batch(theta, X)
    # column k of each (r, d) Jacobian is the VJP with unit cotangent e_k
    E = np.eye(family.d)[:, None, :]
    grad_dl = np.column_stack([family.score_grad_batch(theta, X, e, 0 * e) for e in E])
    grad_d2l = np.column_stack([family.score_grad_batch(theta, X, 0 * e, e) for e in E])
    out = ScoreEval(dl=dl[0], d2l=d2l[0], grad_dl=grad_dl, grad_d2l=grad_d2l)
    for arr in (out.dl, out.d2l, out.grad_dl, out.grad_d2l):
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

    # d2l vs FD of dl in x
    fd_d2l = np.empty(d)
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        dp = family.score_batch(theta, (x + e)[None, :])[0][0, k]
        dm = family.score_batch(theta, (x - e)[None, :])[0][0, k]
        fd_d2l[k] = (dp - dm) / (2 * h)
    errs.append(_rel_err(ev.d2l, fd_d2l))

    # theta-gradients vs FD of dl and d2l in theta
    fd_gdl = np.empty((r, d))
    fd_gd2l = np.empty((r, d))
    for j in range(r):
        e = np.zeros(r)
        e[j] = h
        dlp, d2lp = family.score_batch(theta + e, x[None, :])
        dlm, d2lm = family.score_batch(theta - e, x[None, :])
        fd_gdl[j] = (dlp[0] - dlm[0]) / (2 * h)
        fd_gd2l[j] = (d2lp[0] - d2lm[0]) / (2 * h)
    errs.append(_rel_err(ev.grad_dl, fd_gdl))
    errs.append(_rel_err(ev.grad_d2l, fd_gd2l))

    return float(max(errs))
