import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import SCALES, dense_logp, dense_score, dense_score_jacobians
from truncsm import baselines, data, estimator, geometry, models, presets
from truncsm.models import GaussianMean, IsotropicGMM, ModelError

from support import fd_check, outofplace_kernel, score_eval


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


def test_gaussian_mean_is_the_one_component_mixture():
    fam = GaussianMean(3)
    assert isinstance(fam, IsotropicGMM)
    assert (fam.d, fam.K, fam.sigma2, fam.r) == (3, 1, 1.0, 3)
    # the sampler draws exactly theta + N(0, I): fixed-seed datasets are unchanged
    theta = np.array([0.5, -1.0, 2.0])
    X = fam.sample(theta, 1000, np.random.default_rng(7))
    assert np.array_equal(X, theta + np.random.default_rng(7).standard_normal((1000, 3)))


def test_gmm_sample_stream():
    # component labels first, then the unit normals, scaled by sigma
    gmm = IsotropicGMM(d=2, K=3, sigma2=0.3)
    mu = np.array([[0.0, 1.0], [2.0, -1.0], [-3.0, 0.5]])
    rng = np.random.default_rng(11)
    comps = rng.integers(0, 3, size=500)
    want = mu[comps] + np.sqrt(0.3) * rng.standard_normal((500, 2))
    assert np.array_equal(gmm.sample(mu.reshape(-1), 500, np.random.default_rng(11)), want)


def test_gaussian_closed_form():
    fam = GaussianMean(1)
    ev = score_eval(fam, np.array([0.0]), np.array([0.5]))
    assert ev.dl == pytest.approx(-0.5)
    assert ev.lap == pytest.approx(-1.0)
    assert np.allclose(ev.grad_dl, np.eye(1))
    assert np.all(ev.grad_lap == 0.0)


def test_gaussian_translation_consistency(rng):
    fam = GaussianMean(3)
    theta = rng.standard_normal(3)
    x = rng.standard_normal(3)
    v = rng.standard_normal(3)
    a = score_eval(fam, theta, x)
    b = score_eval(fam, theta + v, x + v)
    assert np.allclose(a.dl, b.dl) and np.allclose(a.lap, b.lap)


def test_gmm_k1_matches_gaussian_scaled(rng):
    s2 = 0.7
    gmm = IsotropicGMM(d=2, K=1, sigma2=s2)
    gau = GaussianMean(2)
    theta = rng.standard_normal(2)
    x = rng.standard_normal(2)
    a = score_eval(gmm, theta, x)
    b = score_eval(gau, theta, x)
    assert np.allclose(a.dl, b.dl / s2)
    assert np.allclose(a.lap, b.lap / s2)


def test_gmm_equal_centers_symmetry(rng):
    gmm = IsotropicGMM(d=2, K=2, sigma2=1.0)
    mu = rng.standard_normal(2)
    theta = np.tile(mu, 2)
    X = rng.standard_normal((5, 2))
    W = gmm.responsibilities(theta, X)
    assert np.allclose(W, 0.5)
    dl, lap = gmm.score_batch(theta, X)
    gau = GaussianMean(2)
    gdl, glap = gau.score_batch(mu, X)
    assert np.allclose(dl, gdl) and np.allclose(lap, glap)


def test_gmm_responsibilities_sum_to_one(rng):
    gmm = IsotropicGMM(d=3, K=4, sigma2=0.5)
    theta = 3 * rng.standard_normal(12)
    X = 5 * rng.standard_normal((50, 3))
    W = gmm.responsibilities(theta, X)
    assert W.shape == (50, 4) and W.flags.c_contiguous
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)


def test_gmm_logsumexp_stability():
    gmm = IsotropicGMM(d=2, K=2, sigma2=1.0)
    theta = np.array([100.0, 100.0, -100.0, -100.0])
    x = np.array([100.0, 100.0])
    ev = score_eval(gmm, theta, x)  # must not overflow
    assert np.all(np.isfinite(ev.dl)) and np.isfinite(ev.lap)


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
@example(seed=266, K=1, d=1, gaussian=False)  # terms that nearly cancel
def test_property_score_vjp_matches_dense_jacobians(seed, K, d, gaussian):
    rng = np.random.default_rng(seed)
    fam = GaussianMean(d) if gaussian else IsotropicGMM(d=d, K=K, sigma2=float(rng.uniform(0.3, 3.0)))
    theta = 2 * rng.standard_normal(fam.r)
    n = int(rng.integers(1, 40))
    X = theta[:d] + 2 * rng.standard_normal((n, d))
    c_dl = rng.standard_normal((n, d))
    c_lap = rng.standard_normal(n)
    grad_dl, grad_lap = _dense_score_jacobians(fam, theta, X)
    dense = np.einsum("nd,nrd->r", c_dl, grad_dl) + c_lap @ grad_lap
    vjp = fam.score_grad_batch(theta, X, c_dl, c_lap)
    assert vjp.shape == (fam.r,)
    # the forward-error bound of a sum: relative to the sum of the terms'
    # magnitudes, since random cotangents can make the sum itself nearly cancel
    scale = np.einsum("nd,nrd->r", np.abs(c_dl), np.abs(grad_dl)) + np.abs(c_lap) @ np.abs(grad_lap)
    assert np.linalg.norm(vjp - dense) <= 1e-12 * np.linalg.norm(scale)


def test_sampling_moments(rng):
    gmm = IsotropicGMM(d=2, K=2, sigma2=1.0)
    theta = np.array([2.0, 0.0, -2.0, 0.0])
    X = gmm.sample(theta, 40_000, rng)
    # equal weights: the mean of the mixture is the mean of the centers
    assert np.allclose(X.mean(axis=0), [0.0, 0.0], atol=0.05)


def _rel(approx, exact):
    return np.abs(approx - exact).max() / np.abs(exact).max()


def _dense_score(family, theta, X):
    """dl (n, d) and lap (n,): the dense per-coordinate oracle, d2l summed."""
    dl, d2l = dense_score(family, theta, X)
    return dl, d2l.sum(axis=1)


def _dense_score_jacobians(family, theta, X):
    """The (n, r, d) Jacobian of dl and the (n, r) Jacobian of lap: the dense
    per-coordinate oracles, the one of d2l summed over the coordinates."""
    grad_dl, grad_d2l = dense_score_jacobians(family, theta, X)
    return grad_dl, grad_d2l.sum(axis=2)


@pytest.mark.parametrize("K, d", [(1, 2), (4, 2), (3, 8), (1, 8)])
@pytest.mark.parametrize("scale", sorted(SCALES))
def test_kernel_matches_dense_oracles(scale, K, d):
    # values agree to 1e-12 and VJPs to 1e-10, relative to the largest entry
    offset, spread, s2 = SCALES[scale]
    rng = np.random.default_rng(K * 10 + d)
    fam = IsotropicGMM(d=d, K=K, sigma2=s2)
    offset = np.resize(offset, d)
    theta = (offset + spread * rng.standard_normal((K, d))).reshape(-1)
    n = 2000
    X = offset + 1.5 * spread * rng.standard_normal((n, d))
    c_dl = rng.standard_normal((n, d))
    c_lap = rng.standard_normal(n)
    w = rng.random(n)

    lp, G = dense_logp(fam, theta, X)
    assert _rel(fam.logp_batch(theta, X), lp) <= 1e-12
    assert _rel(fam.grad_logp_batch(theta, X, w), w @ G) <= 1e-10
    for got, want in zip(fam.score_batch(theta, X), _dense_score(fam, theta, X)):
        assert got.shape == want.shape and _rel(got, want) <= 1e-12
    grad_dl, grad_lap = _dense_score_jacobians(fam, theta, X)
    dense = np.einsum("nd,nrd->r", c_dl, grad_dl) + c_lap @ grad_lap
    assert _rel(fam.score_grad_batch(theta, X, c_dl, c_lap), dense) <= 1e-10


@pytest.mark.parametrize("K, d", [(2, 1), (4, 2), (3, 8)])
@pytest.mark.parametrize("scale", sorted(SCALES))
def test_laplacian_vjp_is_the_per_coordinate_vjp_with_repeated_cotangent(scale, K, d):
    # the Laplacian's cotangent c (n,) acts as c on every coordinate's second
    # derivative: the dense per-coordinate VJP with c repeated, to 1e-10
    # (at K = 1 the Laplacian is -d / sigma2 and its VJP 0)
    offset, spread, s2 = SCALES[scale]
    rng = np.random.default_rng(K * 10 + d + 2)
    fam = IsotropicGMM(d=d, K=K, sigma2=s2)
    offset = np.resize(offset, d)
    theta = (offset + spread * rng.standard_normal((K, d))).reshape(-1)
    n = 2000
    X = offset + 1.5 * spread * rng.standard_normal((n, d))
    c = rng.standard_normal(n)
    _, grad_d2l = dense_score_jacobians(fam, theta, X)
    dense = np.einsum("nd,nrd->r", np.repeat(c[:, None], d, axis=1), grad_d2l)
    assert _rel(fam.score_grad_batch(theta, X, np.zeros((n, d)), c), dense) <= 1e-10


@pytest.mark.parametrize("n", [1, 3000])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("K", [1, 2, 4])
def test_kernel_equals_out_of_place_form_bit_for_bit(K, d, n):
    # the logits and softmax are written in place, and logp_batch forms the
    # log-sum-exp from the pass; every bit stays
    rng = np.random.default_rng([K, d, n])
    mu = 2.0 * rng.standard_normal((K, d))
    X = 3.0 * rng.standard_normal((n, d))
    got = models._kernel(mu, X, 0.7)
    Yt, M, W, lse = outofplace_kernel(mu, X, 0.7)
    for name, a, b in zip(("Yt", "M", "W"), got, (Yt, M, W)):
        assert a.shape == b.shape and np.array_equal(a, b), name
    assert not any(a.flags.writeable for a in got)
    const = -0.5 * d * np.log(2.0 * np.pi * 0.7) - np.log(K)
    assert np.array_equal(IsotropicGMM(d, K, 0.7).logp_batch(mu.ravel(), X), lse + const)


@pytest.mark.parametrize("K, d", [(1, 2), (4, 2), (3, 8)])
@pytest.mark.parametrize("scale", sorted(SCALES))
def test_estimate_log_z_matches_dense_log_mean_exp(scale, K, d):
    # log Zhat = log(volume) + log mean over all particles of mask * pbar, and
    # its gradient the softmax-weighted mean of the inside particles' gradients
    offset, spread, s2 = SCALES[scale]
    rng = np.random.default_rng(K * 10 + d + 1)
    fam = IsotropicGMM(d=d, K=K, sigma2=s2)
    offset = np.resize(offset, d)
    theta = (offset + spread * rng.standard_normal((K, d))).reshape(-1)
    U = offset + 1.5 * spread * rng.standard_normal((3000, d))
    mask = rng.random(len(U)) < 0.6
    est = baselines.NormalizerEstimate(particles=U, in_domain_mask=mask,
                                       inside=U[mask], box_volume=7.0)
    log_z, grad = baselines.estimate_log_z(fam, theta, est)

    lp, G = dense_logp(fam, theta, U[mask])
    top = lp.max()
    terms = np.exp(lp - top)
    want = np.log(7.0) + top + np.log(terms.sum()) - np.log(len(U))
    # log-sum-exp rounds relative to the size of its terms
    assert abs(log_z - want) <= 1e-12 * np.abs(lp).max()
    assert _rel(grad, (terms / terms.sum()) @ G) <= 1e-10


def test_grad_logp_batch_checks_weight_length():
    fam = IsotropicGMM(d=2, K=2)
    with pytest.raises(ModelError):
        fam.grad_logp_batch(np.zeros(4), np.zeros((3, 2)), np.ones(2))


@pytest.fixture
def kernel_passes(monkeypatch):
    """Counts the family's kernel passes."""
    calls = []
    kernel = models._kernel

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(models, "_kernel", counted)
    return calls


def _mixture_data(n=300, seed=0):
    fam = IsotropicGMM(d=2, K=4, sigma2=1.0)
    ds = data.sample_truncated(fam, presets.GMM_TRUE_CENTERS.reshape(-1),
                               presets.default_polygon(), n, seed)
    return fam, ds


def test_one_kernel_pass_per_score_matching_evaluation(kernel_passes, monkeypatch):
    fam, ds = _mixture_data()
    evals = []
    objective_and_grad = estimator.objective_and_grad
    monkeypatch.setattr(estimator, "objective_and_grad",
                        lambda *a: evals.append(None) or objective_and_grad(*a))
    rep = estimator.fit(fam, ds, presets.default_polygon(), geometry.WeightSpec(),
                        estimator.FitOptions(restarts=2, seed=0, init_style="kmeans++"))
    assert len(evals) == sum(r.n_evals for r in rep.restarts) > 2
    assert len(kernel_passes) == len(evals)
    assert fam._memo is None


def test_two_kernel_passes_per_rjmle_evaluation(kernel_passes):
    fam, ds = _mixture_data()
    rep = baselines.fit_rjmle(fam, ds, presets.default_polygon(), 2000,
                              estimator.FitOptions(restarts=2, seed=0))
    # the inside particles, then the data
    assert len(kernel_passes) == 2 * rep.normalizer_eval_count > 2
    assert fam._memo is None


def test_no_kernel_outlives_a_failed_fit(monkeypatch):
    fam, ds = _mixture_data()

    def fail(fg, theta0, **kw):
        fg(theta0)  # fills the memo, then the solver fails
        raise RuntimeError("stop")

    monkeypatch.setattr(estimator, "minimize_qn", fail)
    with pytest.raises(RuntimeError):
        estimator.fit(fam, ds, presets.default_polygon(), geometry.WeightSpec())
    assert fam._memo is None


def test_no_memo_outside_a_fit(kernel_passes):
    fam = IsotropicGMM(d=2, K=3, sigma2=0.5)
    theta = np.arange(6.0)
    X = np.random.default_rng(0).standard_normal((50, 2))
    first = fam.logp_batch(theta, X)
    X += 1.0  # same object, new values
    assert np.array_equal(fam.logp_batch(theta, X), fam.logp_batch(theta, X.copy()))
    assert not np.allclose(fam.logp_batch(theta, X), first)
    assert len(kernel_passes) == 4


def test_memo_keys_on_theta_value_and_points_identity(kernel_passes):
    fam = IsotropicGMM(d=2, K=2)
    theta = np.array([0.0, 0.0, 1.0, 1.0])
    X = np.random.default_rng(1).standard_normal((20, 2))
    with fam.memoized():
        lp = fam.logp_batch(theta, X)
        fam.grad_logp_batch(theta.copy(), X, np.ones(20))     # equal value: reused
        fam.logp_batch(theta, X.copy())                       # other points: new pass
        fam.logp_batch(theta + 1e-12, X)                      # other theta: new pass
        assert np.array_equal(fam.logp_batch(theta, X), lp)   # new pass, same value
    assert len(kernel_passes) == 4
    assert fam._memo is None
