"""The model family, with the analytic derivatives the estimator needs.

One family, `IsotropicGMM`: an equal-weight mixture of K isotropic Gaussians
with a fixed shared variance.  `GaussianMean(d)` is its K = 1, sigma2 = 1
member, the single Gaussian with unknown mean; its score is affine in theta,
so the score-matching objective is quadratic and `estimator.fit` starts it at
the closed-form minimizer.  For a flattened parameter vector theta the family
exposes values and parameter vector-Jacobian products (VJPs):
  - logp_batch:       log density (untruncated normalizer) at each sample
  - grad_logp_batch:  VJP sum_n w_n grad_theta log p(x_n) for sample weights w
  - score_batch:      the score d_x log p (n, d) and its Laplacian (n,)
  - score_grad_batch: VJP of both with per-sample cotangents
The normalizing constant over the truncation region is never evaluated.

Every method reads one kernel pass, laid out feature-major so that every
reduction runs along contiguous memory.  With c the mean of the centres,
Yt = X^T - c (d, n) and M = mu - c (K, d), |x - mu_j|^2 = |y|^2 - 2 m_j.y
+ |m_j|^2, so the log weights are the one (K, d) x (d, n) product
(M Yt - |m|^2 / 2) / sigma2; |y|^2 enters only the log-sum-exp.  The pass
returns Yt, M, the (K, n) responsibilities W and the softmax's column maxima
and sums, whose max, exp and sum run over axis 0; only `logp_batch` forms the
log-sum-exp from them.  Every derivative is a further (d, K) x (K, n) or
(K,) x (K, n) product: no (n, K, d) array is built.  The public shapes stay
point-major: score_batch returns the (n, d) score as a transposed view
and responsibilities an (n, K) copy.  Centring on the current centres keeps
coordinates far from the origin (longitude/latitude near (-66, 42) with
sigma2 = 0.0064) exact.

Inside `memoized()` (which `estimator._run_restarts` holds while a fit's
restarts run) the family keeps its last pass, keyed on the
identity of X and the value of theta, so `grad_logp_batch` after
`logp_batch`, and `score_grad_batch` after `score_batch`, at the same
parameter and points reuse it.  The slot is emptied when the block exits;
outside it every call makes its own pass.
"""

from __future__ import annotations

import contextlib
from typing import NamedTuple

import numpy as np


class ModelError(ValueError):
    pass


def _softmax(a):
    """Softmax over axis 0 of a (K, n) array, shifted by the column maximum so
    it cannot overflow; returns (softmax, column maxima, column sums), with
    log-sum-exp log(sums) + maxima.  Overwrites `a`: the softmax it returns
    is `a` itself."""
    amax = a.max(axis=0)
    a -= amax
    np.exp(a, out=a)
    s = a.sum(axis=0)
    a /= s
    return a, amax, s


class _Pass(NamedTuple):
    Yt: np.ndarray    # (d, n) points less the mean of the centres, transposed
    M: np.ndarray     # (K, d) centres less the same point
    W: np.ndarray     # (K, n) responsibilities
    amax: np.ndarray  # (n,)   the largest logit of each point
    s: np.ndarray     # (n,)   sum_j exp(logit_j - amax)


def _kernel(mu, X, sigma2) -> _Pass:
    """One pass over the (n, d) points X for the (K, d) centres mu; read-only."""
    c = mu.mean(axis=0)
    Yt = np.subtract(X.T, c[:, None], order="C")
    M = mu - c
    L = M @ Yt  # the (K, n) logits, then the responsibilities, in place
    L -= 0.5 * (M * M).sum(axis=1)[:, None]
    L /= sigma2
    out = _Pass(Yt, M, *_softmax(L))
    for arr in out:
        arr.flags.writeable = False
    return out


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
        self._memo = None  # None: off; () empty; (X, theta, pass) inside memoized()

    def check_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.r,) or not np.all(np.isfinite(theta)):
            raise ModelError(f"theta must be a finite vector of length {self.r}")
        return theta

    @contextlib.contextmanager
    def memoized(self):
        """Keep the last kernel pass while the block runs (see the module
        docstring)."""
        self._memo = ()
        try:
            yield
        finally:
            self._memo = None

    def _pass(self, theta, X) -> _Pass:
        theta = self.check_theta(theta)
        X = np.asarray(X, dtype=float)
        if self._memo is None:
            return _kernel(theta.reshape(self.K, self.d), X, self.sigma2)
        if self._memo and self._memo[0] is X and np.array_equal(self._memo[1], theta):
            return self._memo[2]
        self._memo = ()  # free the old pass before the new one is built
        out = _kernel(theta.reshape(self.K, self.d), X, self.sigma2)
        self._memo = (X, theta.copy(), out)
        return out

    def responsibilities(self, theta, X):
        """(n, K) responsibilities, a C-contiguous copy."""
        return self._pass(theta, X).W.T.copy()

    def logp_batch(self, theta, X):
        k = self._pass(theta, X)
        # log sum_j exp(-|x - mu_j|^2 / (2 sigma2)), then the normalizer
        lse = np.log(k.s) + k.amax
        lse -= 0.5 * np.einsum("dn,dn->n", k.Yt, k.Yt) / self.sigma2
        const = -0.5 * self.d * np.log(2.0 * np.pi * self.sigma2) - np.log(self.K)
        return lse + const

    def grad_logp_batch(self, theta, X, w):
        """sum_n w_n grad_theta log p(x_n), as an (r,) vector."""
        k = self._pass(theta, X)
        w = np.asarray(w, dtype=float)
        if w.shape != k.s.shape:
            raise ModelError(f"w must be a vector of length {len(k.s)}")
        # d log p / d mu_j = W_j (x - mu_j) / sigma2 = W_j (y - m_j) / sigma2
        Ww = k.W * w
        G = Ww @ k.Yt.T - Ww.sum(axis=1)[:, None] * k.M
        return (G / self.sigma2).reshape(self.r)

    def score_batch(self, theta, X):
        """The score dl (n, d), a transposed view of a (d, n) array, and its
        Laplacian lap (n,)."""
        k = self._pass(theta, X)
        s2 = self.sigma2
        WM = k.M.T @ k.W
        # dl = sum_j W_j (mu_j - x) / sigma2; lap is the W-variance of the
        # centres, summed over coordinates, over sigma2^2, less d / sigma2
        dl = WM - k.Yt
        dl /= s2
        lap = (k.M * k.M).sum(axis=1) @ k.W
        lap -= np.einsum("dn,dn->n", WM, WM)
        lap /= s2 ** 2
        lap -= self.d / s2
        return dl.T, lap

    def score_grad_batch(self, theta, X, c_dl, c_lap):
        # With S_j = (mu_j - x)/sigma2 and c = c_lap, the dense VJP is
        # sum_n W_j [-S_jm u_j + (b_m + 2 S_jm c)/sigma2], b = c_dl - 2 c dl,
        # u_j = sum_k b_k (S_jk - dl_k) + c (S_jk^2 - sq_k), sq = sum_j W_j S_j^2.
        # In y and m, dl = ((WM) - y)/sigma2 and S_jk - dl_k = (m_jk - (WM)_k)/sigma2;
        # the y terms of S_jk^2 - sq_k and of 2 S c join b as
        # e = b - 2 c y/sigma2 = c_dl - 2 c (WM)/sigma2.  Summed over k, the
        # m_jk^2 terms give |m_j|^2 c and the W-mean of |m|^2, which leaves
        # (K, d) x (d, n) products and rank-one terms only.  Everything below
        # is feature-major: Ct, WM and e are (d, n), c is (n,), u is (K, n).
        k = self._pass(theta, X)
        s2 = self.sigma2
        W, M = k.W, k.M
        m2 = (M * M).sum(axis=1)
        Ct = np.asarray(c_dl, dtype=float).T
        c = np.asarray(c_lap, dtype=float)
        WM = M.T @ W
        e = Ct - (2.0 / s2) * c * WM
        u = M @ e
        u += np.outer(m2, c / s2)
        u -= (e * WM).sum(axis=0) + c * (m2 @ W) / s2
        u /= s2
        Wu = W * u
        G = Wu @ k.Yt.T - Wu.sum(axis=1)[:, None] * M + W @ e.T + (2.0 / s2) * M * (W @ c)[:, None]
        return (G / s2).reshape(self.r)

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
