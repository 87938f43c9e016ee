import numpy as np
import pytest

from oracles import fd_gradient
from truncsm import baselines, data, presets
from truncsm.baselines import (
    estimate_log_z,
    fit_mle_untruncated,
    fit_rjmle,
    make_normalizer,
)
from truncsm.estimator import EstimatorError, FitOptions
from truncsm.geometry import Box, Polygon, unit_square
from truncsm.models import GaussianMean, IsotropicGMM


class _Const1D:
    """p_bar == 1 on R, d=1 (log p = 0)."""

    d = 1
    r = 1

    def logp_batch(self, theta, X):
        return np.zeros(len(X))

    def grad_logp_batch(self, theta, X):
        return np.zeros((len(X), 1))


class _Exp1D:
    """p_bar(x) = exp(theta * x), d=1."""

    d = 1
    r = 1

    def logp_batch(self, theta, X):
        return theta[0] * X[:, 0]

    def grad_logp_batch(self, theta, X):
        return X[:, :1]


def test_log_z_uniform_exact():
    dom = Box([0.0], [1.0])
    est = make_normalizer(dom, 1000, seed=0)
    assert estimate_log_z(_Const1D(), np.zeros(1), est)[0] == pytest.approx(0.0, abs=1e-14)
    assert est.eval_count == 1


def test_log_z_exponential_analytic():
    # integral of exp(x) over (0,1) is e - 1
    dom = Box([0.0], [1.0])
    vals = []
    for seed in range(20):
        est = make_normalizer(dom, 100_000, seed=seed)
        vals.append(np.exp(estimate_log_z(_Exp1D(), np.ones(1), est)[0]))
    vals = np.array(vals)
    target = np.e - 1.0
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) < 3 * se + 1e-6


def test_log_z_error_scaling():
    # standard error shrinks roughly as 1/sqrt(N)
    dom = Box([0.0], [1.0])
    target = np.log(np.e - 1.0)

    def spread(N):
        errs = [estimate_log_z(_Exp1D(), np.ones(1), make_normalizer(dom, N, seed=s))[0] - target
                for s in range(30)]
        return np.std(errs, ddof=1)

    s_small, s_big = spread(1000), spread(16_000)
    assert s_big < s_small / 2.0  # expect ~1/4, allow slack


def test_log_z_counts_evaluations():
    dom = Box([0.0], [1.0])
    est = make_normalizer(dom, 100, seed=0)
    for _ in range(5):
        estimate_log_z(_Const1D(), np.zeros(1), est)
    assert est.eval_count == 5


def test_normalizer_particle_count_validated():
    with pytest.raises(EstimatorError):
        make_normalizer(Box([0.0], [1.0]), 0)


def test_normalizer_without_inside_particles_fails_fast():
    # a diagonal sliver covering 1e-6 of its bounding box
    sliver = Polygon([(0.0, 0.0), (1e-6, 0.0), (1.0, 1.0), (1.0 - 1e-6, 1.0)])
    with pytest.raises(EstimatorError, match="none of the 5 particles is inside"):
        make_normalizer(sliver, 5, seed=0)


@pytest.mark.parametrize("family", [GaussianMean(2), IsotropicGMM(d=2, K=4, sigma2=0.8)],
                         ids=["gaussian", "gmm"])
def test_log_z_gradient_matches_fd(family):
    est = make_normalizer(presets.default_polygon(), 20_000, seed=3)
    rng = np.random.default_rng(1)
    for _ in range(3):
        theta = 1.5 * rng.standard_normal(family.r)
        _, grad = estimate_log_z(family, theta, est)
        fd = fd_gradient(lambda t: estimate_log_z(family, t, est)[0], theta, h=1e-5)
        assert np.linalg.norm(grad - fd) <= 1e-7 * (1.0 + np.linalg.norm(fd))


def test_rjmle_gaussian_truncated():
    fam = GaussianMean(2)
    ds = data.sample_truncated_n(fam, np.array([0.5, 0.5]), unit_square(),
                                 2000, seed=0)
    rep = fit_rjmle(fam, ds, unit_square(), 50_000, FitOptions(seed=0))
    assert np.linalg.norm(rep.theta_hat - [0.5, 0.5]) < 0.2
    assert rep.normalizer_eval_count > 1  # re-estimated throughout the fit


def test_rjmle_shared_normalizer_counts_per_fit():
    fam = GaussianMean(2)
    ds = data.sample_truncated_n(fam, np.array([0.5, 0.5]), unit_square(),
                                 500, seed=1)
    est = make_normalizer(unit_square(), 10_000, seed=0)
    a = fit_rjmle(fam, ds, unit_square(), 10_000, FitOptions(seed=0), normalizer=est)
    b = fit_rjmle(fam, ds, unit_square(), 10_000, FitOptions(seed=1), normalizer=est)
    assert a.normalizer_eval_count > 1 and b.normalizer_eval_count > 1
    assert a.normalizer_eval_count + b.normalizer_eval_count == est.eval_count


def test_rjmle_deterministic():
    fam = GaussianMean(2)
    ds = data.sample_truncated_n(fam, np.array([0.5, 0.5]), unit_square(),
                                 500, seed=1)
    a = fit_rjmle(fam, ds, unit_square(), 10_000, FitOptions(seed=2))
    b = fit_rjmle(fam, ds, unit_square(), 10_000, FitOptions(seed=2))
    assert np.array_equal(a.theta_hat, b.theta_hat)


def test_rjmle_untruncated_matches_mle():
    # on an effectively untruncated domain the truncated normalizer is the
    # full Gaussian normalizer, so RJ-MLE's maximizer is the sample mean up
    # to the Monte Carlo error of grad log Zhat (~1/sqrt(effective particles))
    rng = np.random.default_rng(0)
    fam = GaussianMean(2)
    X = rng.standard_normal((3000, 2)) + [0.2, -0.1]
    box = Box([-4.0, -4.0], [4.0, 4.0])
    rj = fit_rjmle(fam, X, box, 10_000_000, FitOptions(seed=0, tol=1e-10))
    ml = fit_mle_untruncated(fam, X)
    assert np.linalg.norm(rj.theta_hat - ml.theta_hat) < 1e-3


def test_mle_sample_mean():
    rep = fit_mle_untruncated(GaussianMean(2), np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert np.allclose(rep.theta_hat, [0.5, 0.5])


def test_mle_gmm_k1_degeneracy():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((500, 2)) + 1.0
    rep = fit_mle_untruncated(IsotropicGMM(d=2, K=1, sigma2=1.0), X)
    assert np.allclose(rep.theta_hat, X.mean(axis=0), atol=1e-6)


def test_em_loglik_monotone():
    rng = np.random.default_rng(4)
    fam = IsotropicGMM(d=2, K=2, sigma2=1.0)
    X = np.vstack([rng.standard_normal((200, 2)) + [2, 0],
                   rng.standard_normal((200, 2)) - [2, 0]])
    theta = np.array([0.5, 0.5, -0.5, -0.5])
    ll_prev = float(fam.logp_batch(theta, X).mean())
    for _ in range(25):
        theta, ll, _ = baselines._em_fixed_variance(fam, X, theta, tol=0.0,
                                                    max_iters=1)
        assert ll >= ll_prev - 1e-12
        ll_prev = ll


def test_em_recovers_separated_centers():
    rng = np.random.default_rng(5)
    fam = IsotropicGMM(d=2, K=2, sigma2=1.0)
    X = np.vstack([rng.standard_normal((1000, 2)) + [3, 0],
                   rng.standard_normal((1000, 2)) - [3, 0]])
    rep = fit_mle_untruncated(fam, X, FitOptions(seed=0, restarts=5,
                                                 init_style="kmeans++"))
    centers = np.sort(rep.theta_hat.reshape(2, 2)[:, 0])
    assert np.allclose(centers, [-3, 3], atol=0.15)


def test_empty_dataset_errors():
    with pytest.raises(EstimatorError):
        fit_mle_untruncated(GaussianMean(2), np.empty((0, 2)))
    with pytest.raises(EstimatorError):
        fit_rjmle(GaussianMean(2), np.empty((0, 2)), unit_square(), 100)
