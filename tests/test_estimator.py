import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from truncsm import estimator, geometry, presets
from truncsm.estimator import (
    EstimatorError,
    FitOptions,
    fh_divergence,
    fit,
    ibp_identity_check,
    match_centers,
    objective_and_grad,
)
from truncsm.geometry import (
    L1,
    Euclidean,
    Mahalanobis,
    MetricBall,
    WeightSpec,
    WeightTable,
    template_domain,
    unit_square,
)
from truncsm.models import GaussianMean, IsotropicGMM
from truncsm.optim import minimize_qn

from conftest import interior_points
from oracles import SCALES, fd_gradient
from support import (check_equal_starts_solved_once, counted, objective, objective_grad,
                     pointmajor_objective_and_grad, scaled_weights)

EUCL = WeightSpec(metric=Euclidean())


def table(g, dg):
    return WeightTable(g=np.asarray(g, dtype=float), dg=np.asarray(dg, dtype=float))


# ---------------------------------------------------------------------------
# objective: pinned hand values


def test_objective_hand_value():
    fam = GaussianMean(1)
    X = np.array([[0.5]])
    w = table([[0.5]], [[-1.0]])
    # ((theta-x)^2 - 2) * g + 2 (theta-x) * dg at theta=0, x=0.5
    # = (0.25 - 2)*0.5 + 2*(-0.5)*(-1) = 0.125
    assert objective(fam, np.zeros(1), X, w) == pytest.approx(0.125, abs=1e-15)


def test_objective_constant_weight_at_theta():
    d = 3
    fam = GaussianMean(d)
    theta = np.array([0.3, -0.2, 1.0])
    X = theta[None, :]
    w = table(np.ones((1, 1)), np.zeros((1, d)))
    assert objective(fam, theta, X, w) == pytest.approx(-2.0 * d, abs=1e-15)


def test_objective_weight_scaling_linearity(rng):
    fam = GaussianMean(2)
    X = rng.standard_normal((20, 2))
    w = table(rng.random((20, 1)), rng.standard_normal((20, 2)))
    theta = rng.standard_normal(2)
    base = objective(fam, theta, X, w)
    for alpha in (0.5, 2.0, 10.0):
        scaled = objective(fam, theta, X, scaled_weights(w, alpha))
        assert scaled == pytest.approx(alpha * base, rel=1e-12)


def test_objective_shape_mismatch(rng):
    fam = GaussianMean(2)
    X = rng.standard_normal((5, 2))
    for g_shape, dg_shape in [((4, 1), (4, 2)), ((5, 2), (5, 2)), ((5,), (5, 2)),
                              ((5, 1), (5, 1))]:
        w = table(np.ones(g_shape), np.zeros(dg_shape))
        message = (rf"the \(5, 2\) dataset needs g \(5, 1\) and dg \(5, 2\), "
                   rf"got g {re.escape(str(g_shape))} and dg {re.escape(str(dg_shape))}")
        with pytest.raises(EstimatorError, match=message):
            objective(fam, np.zeros(2), X, w)


# ---------------------------------------------------------------------------
# gradient vs finite differences


def test_grad_constant_weight_closed_form(rng):
    fam = GaussianMean(2)
    X = rng.standard_normal((50, 2))
    w = table(np.ones((50, 1)), np.zeros((50, 2)))
    g = objective_grad(fam, X.mean(axis=0), X, w)
    assert np.allclose(g, 0.0, atol=1e-12)


def test_grad_symmetric_dataset():
    fam = GaussianMean(2)
    a = np.array([0.4, 0.3])
    X = np.vstack([a, -a])
    w = table(np.full((2, 1), 0.2), np.vstack([-a / np.linalg.norm(a),
                                              a / np.linalg.norm(a)]))
    g = objective_grad(fam, np.zeros(2), X, w)
    assert np.allclose(g, 0.0, atol=1e-12)


@pytest.mark.parametrize("family,r", [(GaussianMean(2), 2),
                                      (IsotropicGMM(d=2, K=4, sigma2=1.0), 8)])
def test_grad_vs_fd(family, r, rng):
    X = rng.uniform(0.05, 0.95, size=(30, 2))
    w = geometry.distance_batch(unit_square(), EUCL, X)
    for _ in range(10):
        theta = rng.standard_normal(r)
        grad = objective_grad(family, theta, X, w)
        fd = fd_gradient(lambda t: objective(family, t, X, w), theta, h=1e-6)
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0) < 1e-6


# ---------------------------------------------------------------------------
# fit


def test_fit_gaussian_consistency(monkeypatch):
    from truncsm import data

    fam = GaussianMean(2)
    ds = data.sample_truncated_n(fam, np.array([0.5, 0.5]), unit_square(),
                                 5000, seed=0)
    calls = counted(monkeypatch, estimator, "distance_batch")
    rep = fit(fam, ds, unit_square(), EUCL)
    assert np.linalg.norm(rep.theta_hat - [0.5, 0.5]) < 0.15
    assert len(calls) == 1
    assert rep.status == "converged"


def test_fit_computes_weights_once(monkeypatch):
    calls = counted(monkeypatch, estimator, "distance_batch")
    X = interior_points(unit_square(), 300, seed=4)
    rep = fit(IsotropicGMM(d=2, K=2, sigma2=0.5), X, unit_square(), EUCL,
              FitOptions(restarts=5, seed=0))
    assert len(rep.restarts) == 5
    assert len(calls) == 1


ELLIPSE_SIGMA = np.array([[1.0, -0.9], [-0.9, 1.0]])
K1_CASES = {
    "euclidean": (unit_square(), EUCL),
    "capped": (unit_square(), WeightSpec(metric=Euclidean(), cap=10.0)),
    "constant": (unit_square(), WeightSpec(constant=True)),
    "mahalanobis-ellipse": (MetricBall(Mahalanobis(ELLIPSE_SIGMA), 1.0),
                            WeightSpec(metric=Mahalanobis(ELLIPSE_SIGMA))),
}


@pytest.mark.parametrize("sigma2", [1.0, 0.7])
@pytest.mark.parametrize("case", sorted(K1_CASES))
def test_k1_fit_is_the_closed_form_minimizer(case, sigma2):
    from truncsm import data

    domain, spec = K1_CASES[case]
    fam = IsotropicGMM(d=2, K=1, sigma2=sigma2)
    ds = data.sample_truncated_n(fam, np.array([0.5, 0.5]), domain, 2000, seed=0)
    rep = fit(fam, ds, domain, spec, FitOptions(seed=0, restarts=3))
    w = geometry.distance_batch(domain, spec, ds.points)
    ref = minimize_qn(lambda t: objective_and_grad(fam, t, ds.points, w),
                      ds.points.mean(axis=0), tol=1e-12)
    assert ref.status == "converged"
    assert np.max(np.abs(rep.theta_hat - ref.x)) <= 1e-10
    # the start point is the minimizer: no iteration, one evaluation
    assert rep.status == "converged"
    assert len(rep.restarts) == 1
    assert len(rep.objective_trace) == 1 and rep.diagnostics["n_obj_evals"] == 1
    assert rep.objective_trace[0][2] <= 1e-12


# Every kind of weight: distance, capped and constant; Euclidean, l1 and
# Mahalanobis; on a polytope, a polygon, a ball and a disjoint union.
SIGMA_SPD = np.array([[1.0, 0.3], [0.3, 0.5]])
WEIGHT_KINDS = {
    "polytope-euclidean": (unit_square, EUCL),
    "polytope-l1": (unit_square, WeightSpec(metric=L1())),
    "polytope-mahalanobis": (unit_square, WeightSpec(metric=Mahalanobis(SIGMA_SPD))),
    "polytope-capped": (unit_square, WeightSpec(cap=5.0)),
    "polytope-constant": (unit_square, WeightSpec(constant=True)),
    "polygon-euclidean": (presets.default_polygon, EUCL),
    "polygon-mahalanobis": (presets.default_polygon, WeightSpec(metric=Mahalanobis(SIGMA_SPD))),
    "ball-euclidean": (lambda: MetricBall(Euclidean(), 1.0, dim=2), EUCL),
    "ellipse-mahalanobis": (lambda: MetricBall(Mahalanobis(ELLIPSE_SIGMA), 1.0),
                            WeightSpec(metric=Mahalanobis(ELLIPSE_SIGMA))),
    "union-euclidean": (lambda: template_domain("disjoint", 1.0), EUCL),
    "union-capped": (lambda: template_domain("disjoint", 1.0), WeightSpec(cap=3.0)),
}


# The objective is one sum over n * d terms; summed in another order it may
# differ by a few ulps of the sum of their magnitudes.
SUM_ROUNDING = 4.0 * np.finfo(float).eps


def _objective_within_rounding(got, want, terms):
    return abs(got - want) <= SUM_ROUNDING * np.abs(terms).sum() / len(terms)


@pytest.mark.parametrize("K", [1, 2, 4])
@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("kind", sorted(WEIGHT_KINDS))
def test_feature_major_objective_matches_point_major(kind, scale, K):
    # the weights' gradient is stored feature-major, so the objective reads
    # it without a copy; its gradient is the point-major one bit for bit
    make_domain, spec = WEIGHT_KINDS[kind]
    domain = make_domain()
    U = interior_points(domain, 400, seed=7)
    w = geometry.distance_batch(domain, spec, U)
    assert w.dg.shape == U.shape and w.dg.T.flags.c_contiguous
    offset, spread, s2 = SCALES[scale]
    fam = IsotropicGMM(d=2, K=K, sigma2=s2)
    theta = (offset + spread * np.random.default_rng(K).standard_normal((K, 2))).ravel()
    X = offset + spread * U
    got = objective_and_grad(fam, theta, X, w)
    want, want_grad, terms = pointmajor_objective_and_grad(fam, theta, X, w)
    assert np.array_equal(got[1], want_grad)
    assert _objective_within_rounding(got[0], want, terms)


def repeated_objective_and_grad(family, theta, X, w):
    """The objective with the weight copied into every coordinate of the score
    terms, an (n, d) array that also forms the score's cotangent; returns the
    (n, d + 1) summands too, the Laplacian's last."""
    G = np.repeat(w.g, X.shape[1], axis=1)
    dl, lap = family.score_batch(theta, X)
    terms = np.column_stack(((dl * dl) * G + 2.0 * dl * w.dg, 2.0 * lap * w.g[:, 0]))
    grad = family.score_grad_batch(theta, X, 2.0 * (dl * G + w.dg), 2.0 * w.g[:, 0])
    return float(terms.sum() / len(X)), grad / len(X), terms


@pytest.mark.parametrize("kind", sorted(WEIGHT_KINDS))
def test_weight_column_matches_repeated_weights(kind):
    # g is one column that broadcasts; the gradient is that of the weight
    # repeated over the d coordinates bit for bit, and the objective the same
    # up to the order of its sum
    make_domain, spec = WEIGHT_KINDS[kind]
    domain = make_domain()
    U = interior_points(domain, 400, seed=7)
    w = geometry.distance_batch(domain, spec, U)
    assert w.g.shape == (400, 1) and w.dg.shape == (400, 2)
    assert w.dg.flags.owndata
    for K in (2, 4):
        for scale in sorted(SCALES):
            offset, spread, s2 = SCALES[scale]
            fam = IsotropicGMM(d=2, K=K, sigma2=s2)
            theta = (offset + spread * np.random.default_rng(K).standard_normal((K, 2))).ravel()
            X = offset + spread * U
            got = objective_and_grad(fam, theta, X, w)
            want, want_grad, terms = repeated_objective_and_grad(fam, theta, X, w)
            assert np.array_equal(got[1], want_grad)
            assert _objective_within_rounding(got[0], want, terms)


def test_fit_constant_weight_huge_box(rng):
    fam = GaussianMean(2)
    X = rng.standard_normal((2000, 2)) + 0.3
    box = geometry.Box([-50.0, -50.0], [50.0, 50.0])
    rep = fit(fam, X, box, WeightSpec(constant=True))
    assert np.allclose(rep.theta_hat, X.mean(axis=0), atol=1e-5)


def test_fit_deterministic(rng):
    fam = GaussianMean(2)
    X = rng.uniform(0.1, 0.9, size=(200, 2))
    a = fit(fam, X, unit_square(), EUCL, FitOptions(restarts=1, seed=5))
    b = fit(fam, X, unit_square(), EUCL, FitOptions(restarts=1, seed=5))
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert a.objective_trace == b.objective_trace


def test_unknown_init_style_is_an_error(rng):
    X = rng.uniform(0.1, 0.9, size=(50, 2))
    with pytest.raises(EstimatorError, match=r"mean_jitter.*kmeans\+\+"):
        fit(IsotropicGMM(d=2, K=2, sigma2=1.0), X, unit_square(), EUCL,
            FitOptions(init_style="kmedoids"))


@pytest.mark.parametrize("fitter", ["initial_points", "fit", "fit_mle_untruncated"])
def test_zero_restarts_is_an_error_naming_restarts(rng, fitter):
    from truncsm import baselines

    fam = IsotropicGMM(d=2, K=2, sigma2=1.0)
    X = rng.uniform(0.1, 0.9, size=(50, 2))
    opts = FitOptions(restarts=0)
    call = {"initial_points": lambda: estimator.initial_points(fam, X, opts),
            "fit": lambda: fit(fam, X, unit_square(), EUCL, opts),
            "fit_mle_untruncated": lambda: baselines.fit_mle_untruncated(fam, X, opts)}
    with pytest.raises(EstimatorError, match="restarts must be at least 1, got 0"):
        call[fitter]()


@pytest.mark.parametrize("K", [2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmeanspp_running_minimum_matches_list_minimum(K, seed):
    X = np.random.default_rng(100 + seed).standard_normal((500, 2))

    def list_min(rng):
        centers = [X[rng.integers(len(X))]]
        for _ in range(K - 1):
            d2 = np.min([((X - c) ** 2).sum(axis=1) for c in centers], axis=0)
            centers.append(X[rng.choice(len(X), p=d2 / d2.sum())])
        return np.concatenate(centers)

    rng = np.random.default_rng(seed)
    got = estimator.kmeanspp_init(X, K, rng)
    ref_rng = np.random.default_rng(seed)
    assert np.array_equal(got, list_min(ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _lloyd_reference(X, C, steps):
    """Lloyd steps from centers C with exact squared distances, stopping when
    no label changes."""
    C, labels = C.copy(), None
    for _ in range(steps):
        nearest = np.argmin(((X[:, None, :] - C) ** 2).sum(axis=2), axis=1)
        if labels is not None and np.array_equal(nearest, labels):
            break
        labels = nearest
        for k in range(len(C)):
            if np.any(labels == k):
                C[k] = X[labels == k].mean(axis=0)
    return C.reshape(-1)


@pytest.mark.parametrize("K", [2, 3, 5])
@pytest.mark.parametrize("steps", [1, 100])
def test_kmeans_init_is_lloyd_from_kmeanspp_seeds(K, steps, monkeypatch):
    """k-means starts are Lloyd's centers from the k-means++ seeds, at city-scale
    coordinates, stopped after LLOYD_MAX_ITERS steps or when no label changes."""
    monkeypatch.setattr(estimator, "LLOYD_MAX_ITERS", steps)
    X = np.random.default_rng(K).normal((-65.0, 41.8), 0.1, (600, 2))
    got = estimator.kmeans_init(X, K, np.random.default_rng(1))
    seeds = estimator.kmeanspp_init(X, K, np.random.default_rng(1)).reshape(K, 2)
    assert np.allclose(got, _lloyd_reference(X, seeds, steps), rtol=0, atol=1e-12)


def test_kmeans_style_starts_at_kmeans_centers_and_falls_back_for_one_component(rng):
    X = rng.normal(0.0, 1.0, (300, 2))
    opts = FitOptions(restarts=3, seed=4, init_style="kmeans")
    starts = estimator.initial_points(IsotropicGMM(d=2, K=2, sigma2=1.0), X, opts)
    seeds = np.random.default_rng(4)
    assert all(np.array_equal(s, estimator.kmeans_init(X, 2, seeds)) for s in starts)
    jitter = estimator.initial_points(GaussianMean(2), X, replace(opts, init_style="mean_jitter"))
    assert np.array_equal(estimator.initial_points(GaussianMean(2), X, opts), jitter)


def test_init_rows_are_the_start_points(rng):
    X = rng.normal(0.0, 1.0, (100, 2))
    init = rng.normal(0.0, 1.0, (3, 4))
    opts = FitOptions(restarts=3, init=init, init_style="kmeans")
    starts = estimator.initial_points(IsotropicGMM(d=2, K=2, sigma2=1.0), X, opts)
    assert len(starts) == 3
    assert all(np.array_equal(s, row) for s, row in zip(starts, init))


def _fit_counting_solves(monkeypatch, fam, X):
    """fit_from(init) for check_equal_starts_solved_once: TruncSM fits from the
    rows of init, counting minimize_qn calls and objective evaluations."""
    solves = counted(monkeypatch, estimator, "minimize_qn")
    evals = counted(monkeypatch, estimator, "objective_and_grad")

    def fit_from(init):
        del solves[:], evals[:]
        rep = fit(fam, X, unit_square(), EUCL, FitOptions(restarts=len(init), init=init))
        return rep, len(solves), len(evals)

    return fit_from


def test_equal_start_points_are_solved_once(rng, monkeypatch):
    fam = IsotropicGMM(d=2, K=2, sigma2=0.05)
    X = rng.uniform(0.1, 0.9, size=(200, 2))
    check_equal_starts_solved_once(_fit_counting_solves(monkeypatch, fam, X),
                                   [0.3, 0.3, 0.7, 0.7], [0.2, 0.8, 0.8, 0.2])


def test_start_points_of_opposite_zero_sign_are_solved_apart(rng, monkeypatch):
    # equal as floats, not as bytes: the key is the bytes
    fam = IsotropicGMM(d=2, K=2, sigma2=0.05)
    X = rng.uniform(0.1, 0.9, size=(200, 2))
    rep, solves, _ = _fit_counting_solves(monkeypatch, fam, X)(
        np.array([[0.0, 0.3, 0.7, 0.7], [-0.0, 0.3, 0.7, 0.7]]))
    assert solves == rep.diagnostics["distinct_starts"] == 2
    assert rep.restarts[0] is not rep.restarts[1]


@pytest.mark.parametrize("fitter", ["fit", "fit_rjmle", "fit_mle_untruncated"])
@pytest.mark.parametrize("shape", [(4,), (2, 4), (3, 2)])
def test_init_of_the_wrong_shape_is_an_error_naming_both_shapes(rng, fitter, shape):
    from truncsm import baselines

    fam = IsotropicGMM(d=2, K=2, sigma2=1.0)
    X = rng.uniform(0.1, 0.9, size=(50, 2))
    opts = FitOptions(restarts=3, init=np.zeros(shape))
    call = {"fit": lambda: fit(fam, X, unit_square(), EUCL, opts),
            "fit_rjmle": lambda: baselines.fit_rjmle(fam, X, unit_square(), 100, opts),
            "fit_mle_untruncated": lambda: baselines.fit_mle_untruncated(fam, X, opts)}
    with pytest.raises(EstimatorError, match=re.escape(f"shape (3, 4), got {shape}")):
        call[fitter]()


def test_fit_empty_dataset():
    with pytest.raises(EstimatorError):
        fit(GaussianMean(2), np.empty((0, 2)), unit_square(), EUCL)


def test_fit_point_outside():
    X = np.array([[0.5, 0.5], [1.5, 0.5]])
    with pytest.raises(geometry.OutsideDomainError):
        fit(GaussianMean(2), X, unit_square(), EUCL)


def test_fit_monotone_trace(rng):
    fam = IsotropicGMM(d=2, K=2, sigma2=1.0)
    X = rng.uniform(0.05, 0.95, size=(300, 2))
    rep = fit(fam, X, unit_square(), EUCL, FitOptions(seed=1))
    vals = [v for _, v, _ in rep.objective_trace]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(np.isfinite(v) for v in vals)


def test_fit_converged_means_small_gradient(rng):
    fam = GaussianMean(2)
    X = rng.uniform(0.1, 0.9, size=(100, 2))
    rep = fit(fam, X, unit_square(), EUCL)
    assert rep.status == "converged"
    assert rep.objective_trace[-1][2] <= 1e-6


# ---------------------------------------------------------------------------
# scale invariance


def test_scale_invariance_thetahat(rng):
    fam = IsotropicGMM(d=2, K=2, sigma2=1.0)
    X = np.vstack([rng.uniform(0.05, 0.45, size=(100, 2)),
                   rng.uniform(0.55, 0.95, size=(100, 2))])
    w = geometry.distance_batch(unit_square(), EUCL, X)
    theta0 = np.array([0.3, 0.3, 0.7, 0.7])

    base = minimize_qn(lambda t: objective_and_grad(fam, t, X, w), theta0)
    for alpha in (0.5, 2.0):
        ws = scaled_weights(w, alpha)
        res = minimize_qn(lambda t: objective_and_grad(fam, t, X, ws), theta0,
                          tol=alpha * 1e-6)
        # power-of-two rescaling is exact in floating point
        assert np.array_equal(res.x, base.x)
    ws = scaled_weights(w, 10.0)
    res = minimize_qn(lambda t: objective_and_grad(fam, t, X, ws), theta0,
                      tol=10.0 * 1e-6)
    assert np.allclose(res.x, base.x, atol=1e-9)


# ---------------------------------------------------------------------------
# divergences and identity check


def _truncated_gaussian_sample(n, seed):
    from truncsm import data

    return data.sample_truncated_n(GaussianMean(2), np.zeros(2), unit_square(),
                                   n, seed, batch=50_000).points


def test_fh_nonnegative(rng):
    X = _truncated_gaussian_sample(500, 0)
    w = geometry.distance_batch(unit_square(), EUCL, X)
    fam = GaussianMean(2)
    for _ in range(5):
        val = fh_divergence(fam, rng.standard_normal(2), X, lambda Z: -Z, w)
        assert val >= 0.0


def test_fh_vanishes_at_truth():
    fam = GaussianMean(2)
    X = _truncated_gaussian_sample(20_000, 1)
    w = geometry.distance_batch(unit_square(), EUCL, X)
    val = fh_divergence(fam, np.zeros(2), X, lambda Z: -Z, w)
    assert val == pytest.approx(0.0, abs=1e-12)  # scores identical pointwise


@pytest.mark.parametrize("check", [fh_divergence, ibp_identity_check])
@pytest.mark.parametrize("wrong", [lambda Z: -Z[:, :1], lambda Z: np.ones(2)],
                         ids=["column", "vector"])
def test_true_score_must_be_n_by_d(check, wrong):
    # a score that would broadcast against the (n, d) samples is still refused
    X = _truncated_gaussian_sample(200, 3)
    w = geometry.distance_batch(unit_square(), EUCL, X)
    with pytest.raises(EstimatorError, match=r"\(n, d\) matrix"):
        check(GaussianMean(2), np.zeros(2), X, wrong, w)


def test_fh_agrees_with_objective_identity():
    # FH estimate = M_n(theta) + C_hat where C_hat = mean sum_k g_k (d_k log q)^2
    # and the cross term in M_n is the integration-by-parts replacement;
    # both are Monte Carlo means of per-sample quantities, so compare paired.
    fam = GaussianMean(2)
    theta = np.array([0.3, -0.1])
    X = _truncated_gaussian_sample(50_000, 2)
    w = geometry.distance_batch(unit_square(), EUCL, X)
    fh = fh_divergence(fam, theta, X, lambda Z: -Z, w)
    qs = -X
    c_hat = float((w.g * qs ** 2).sum(axis=1).mean())
    m_n = objective(fam, theta, X, w)
    dl, lap = fam.score_batch(theta, X)
    # per-sample difference between the two cross-term computations
    direct = (w.g * (dl - qs) ** 2).sum(axis=1)
    via_ibp = (dl ** 2 * w.g + 2 * dl * w.dg).sum(axis=1) + 2 * lap * w.g[:, 0] \
        + (w.g * qs ** 2).sum(axis=1)
    se = float((direct - via_ibp).std(ddof=1) / np.sqrt(len(X)))
    assert abs(fh - (m_n + c_hat)) <= 3 * max(se, 1e-12)


def test_ibp_identity_zscore():
    fam = GaussianMean(2)
    X = _truncated_gaussian_sample(100_000, 0)
    w = geometry.distance_batch(unit_square(), EUCL, X)
    lhs, rhs, z = ibp_identity_check(fam, np.array([0.2, 0.2]), X,
                                     lambda Z: -Z, w)
    assert z < 3.0


def test_ibp_zero_weight_table():
    fam = GaussianMean(2)
    X = _truncated_gaussian_sample(100, 3)
    w = WeightTable(g=np.zeros((len(X), 1)), dg=np.zeros_like(X))
    lhs, rhs, z = ibp_identity_check(fam, np.zeros(2), X, lambda Z: -Z, w)
    assert lhs == 0.0 and rhs == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_objective_scaling(seed):
    rng = np.random.default_rng(seed)
    fam = GaussianMean(2)
    X = rng.standard_normal((10, 2))
    w = WeightTable(g=rng.random((10, 1)), dg=rng.standard_normal((10, 2)))
    theta = rng.standard_normal(2)
    alpha = float(rng.uniform(0.1, 20.0))
    a = objective(fam, theta, X, scaled_weights(w, alpha))
    b = alpha * objective(fam, theta, X, w)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# center matching


def test_match_centers_permutation():
    ref = np.array([2.0, 2.0, -2.0, -2.0, -2.0, 2.0, 2.0, -2.0])
    est = np.array([-2.05, 2.0, 2.1, 2.0, 2.0, -1.9, -2.0, -2.0])
    mx, mean, perm = match_centers(est, ref, 2)
    assert mx == pytest.approx(0.1, abs=1e-12)
    assert sorted(perm.tolist()) == [0, 1, 2, 3]


def test_match_centers_shape_check():
    with pytest.raises(EstimatorError):
        match_centers(np.zeros(4), np.zeros(6), 2)
