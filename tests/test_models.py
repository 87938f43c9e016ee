import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense_score_jacobians
from truncsm.models import (
    GaussianMean,
    IsotropicGMM,
    ModelError,
    fd_check,
    score_eval,
)


def test_constructor_validation():
    with pytest.raises(ModelError):
        GaussianMean(0)
    with pytest.raises(ModelError):
        IsotropicGMM(d=2, K=0)
    with pytest.raises(ModelError):
        IsotropicGMM(d=2, K=2, sigma2=0.0)


def test_theta_validation():
    fam = GaussianMean(2)
    with pytest.raises(ModelError):
        fam.logp_batch(np.array([0.0, np.nan]), np.zeros((1, 2)))
    with pytest.raises(ModelError):
        fam.logp_batch(np.zeros(3), np.zeros((1, 2)))


def test_gaussian_closed_form():
    fam = GaussianMean(1)
    ev = score_eval(fam, np.array([0.0]), np.array([0.5]))
    assert ev.dl == pytest.approx(-0.5)
    assert ev.d2l == pytest.approx(-1.0)
    assert np.allclose(ev.grad_dl, np.eye(1))
    assert np.all(ev.grad_d2l == 0.0)


def test_gaussian_translation_consistency(rng):
    fam = GaussianMean(3)
    theta = rng.standard_normal(3)
    x = rng.standard_normal(3)
    v = rng.standard_normal(3)
    a = score_eval(fam, theta, x)
    b = score_eval(fam, theta + v, x + v)
    assert np.allclose(a.dl, b.dl) and np.allclose(a.d2l, b.d2l)


def test_gmm_k1_matches_gaussian_scaled(rng):
    s2 = 0.7
    gmm = IsotropicGMM(d=2, K=1, sigma2=s2)
    gau = GaussianMean(2)
    theta = rng.standard_normal(2)
    x = rng.standard_normal(2)
    a = score_eval(gmm, theta, x)
    b = score_eval(gau, theta, x)
    assert np.allclose(a.dl, b.dl / s2)
    assert np.allclose(a.d2l, b.d2l / s2)


def test_gmm_equal_centers_symmetry(rng):
    gmm = IsotropicGMM(d=2, K=2, sigma2=1.0)
    mu = rng.standard_normal(2)
    theta = np.tile(mu, 2)
    X = rng.standard_normal((5, 2))
    W = gmm.responsibilities(theta, X)
    assert np.allclose(W, 0.5)
    dl, d2l = gmm.score_batch(theta, X)
    gau = GaussianMean(2)
    gdl, gd2l = gau.score_batch(mu, X)
    assert np.allclose(dl, gdl) and np.allclose(d2l, gd2l)


def test_gmm_responsibilities_sum_to_one(rng):
    gmm = IsotropicGMM(d=3, K=4, sigma2=0.5)
    theta = 3 * rng.standard_normal(12)
    X = 5 * rng.standard_normal((50, 3))
    W = gmm.responsibilities(theta, X)
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)


def test_gmm_logsumexp_stability():
    gmm = IsotropicGMM(d=2, K=2, sigma2=1.0)
    theta = np.array([100.0, 100.0, -100.0, -100.0])
    x = np.array([100.0, 100.0])
    ev = score_eval(gmm, theta, x)  # must not overflow
    assert np.all(np.isfinite(ev.dl)) and np.all(np.isfinite(ev.d2l))


def test_fd_check_gaussian(rng):
    fam = GaussianMean(3)
    for _ in range(5):
        err = fd_check(fam, rng.standard_normal(3), rng.standard_normal(3))
        assert err < 1e-6


def test_fd_check_gmm(rng):
    fam = IsotropicGMM(d=2, K=4, sigma2=1.0)
    for _ in range(5):
        theta = 2 * rng.standard_normal(8)
        x = 2 * rng.standard_normal(2)
        assert fd_check(fam, theta, x) < 1e-5


def test_fd_check_step_convergence(rng):
    fam = IsotropicGMM(d=2, K=2, sigma2=1.0)
    theta = rng.standard_normal(4)
    x = rng.standard_normal(2)
    coarse = fd_check(fam, theta, x, h=1e-2)
    fine = fd_check(fam, theta, x, h=1e-5)
    assert fine < coarse


def test_fd_check_h_positive():
    with pytest.raises(ModelError):
        fd_check(GaussianMean(1), np.zeros(1), np.zeros(1), h=0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_property_derivatives_match_fd(seed):
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        fam = GaussianMean(2)
        theta = 2 * rng.standard_normal(2)
    else:
        fam = IsotropicGMM(d=2, K=3, sigma2=float(rng.uniform(0.5, 2.0)))
        theta = 2 * rng.standard_normal(6)
    x = 2 * rng.standard_normal(2)
    assert fd_check(fam, theta, x) < 1e-5


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from([1, 3, 4]),
       st.sampled_from([1, 2, 3]), st.booleans())
def test_property_score_vjp_matches_dense_jacobians(seed, K, d, gaussian):
    rng = np.random.default_rng(seed)
    fam = GaussianMean(d) if gaussian else IsotropicGMM(d=d, K=K, sigma2=float(rng.uniform(0.3, 3.0)))
    theta = 2 * rng.standard_normal(fam.r)
    n = int(rng.integers(1, 40))
    X = theta[:d] + 2 * rng.standard_normal((n, d))
    c_dl, c_d2l = rng.standard_normal((2, n, d))
    grad_dl, grad_d2l = dense_score_jacobians(fam, theta, X)
    dense = np.einsum("nd,nrd->r", c_dl, grad_dl) + np.einsum("nd,nrd->r", c_d2l, grad_d2l)
    vjp = fam.score_grad_batch(theta, X, c_dl, c_d2l)
    assert vjp.shape == (fam.r,)
    assert np.linalg.norm(vjp - dense) <= 1e-12 * np.linalg.norm(dense)


def test_sampling_moments(rng):
    gmm = IsotropicGMM(d=2, K=2, sigma2=1.0)
    theta = np.array([2.0, 0.0, -2.0, 0.0])
    X = gmm.sample(theta, 40_000, rng)
    # equal weights: the mean of the mixture is the mean of the centers
    assert np.allclose(X.mean(axis=0), [0.0, 0.0], atol=0.05)
