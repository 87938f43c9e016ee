import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from truncsm import estimator, geometry, presets
from truncsm.geometry import (
    Box,
    ConvexPolytope,
    DimensionMismatchError,
    DisjointUnion,
    Euclidean,
    GeometryError,
    L1,
    Mahalanobis,
    MetricBall,
    OutsideDomainError,
    Polygon,
    UnsupportedPairingError,
    WeightSpec,
    bounding_box,
    contains_batch,
    distance_batch,
    hemi_l1_ball,
    load_polygon,
    template_domain,
    unit_square,
)

from truncsm.models import GaussianMean

from conftest import interior_points
from oracles import (
    brute_ellipsoid_distance,
    brute_polygon_distance,
    brute_polytope_distance,
    ellipsoid_boundary_points,
    fd_gradient,
    rowwise_ellipsoid_distance,
)
from support import contains, distance, scaled_weights

EUCL = WeightSpec(metric=Euclidean())


def random_convex_polytope_3d(seed, n_facets=12):
    """Random bounded polytope: tangent halfspaces of a ball, plus a box."""
    rng = np.random.default_rng(seed)
    A, b = [], []
    for _ in range(n_facets - 6):
        a = rng.standard_normal(3)
        A.append(a / np.linalg.norm(a))
        b.append(-rng.uniform(1.0, 2.0))
    for e in np.eye(3):
        A += [e, -e]
        b += [-2.5, -2.5]
    return ConvexPolytope(A, b)


# ---------------------------------------------------------------------------
# constructors / validation


def test_polygon_needs_three_vertices():
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (1, 0)])


def test_polygon_self_intersection_rejected():
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie


def test_polygon_orientation_normalized():
    cw = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
    ccw = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert np.allclose(cw.vertices, ccw.vertices[::0 + 1]) or \
        set(map(tuple, cw.vertices)) == set(map(tuple, ccw.vertices))
    # both are CCW: positive signed area
    for poly in (cw, ccw):
        V = poly.vertices
        area2 = np.dot(V[:, 0], np.roll(V[:, 1], -1)) - np.dot(np.roll(V[:, 0], -1), V[:, 1])
        assert area2 > 0


def test_box_ordering_validated():
    with pytest.raises(GeometryError):
        Box([0.0, 1.0], [1.0, 0.5])


def test_mahalanobis_requires_spd():
    with pytest.raises(GeometryError):
        Mahalanobis(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(GeometryError):
        Mahalanobis(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric


def test_weight_spec_cap_constant_exclusive():
    with pytest.raises(GeometryError):
        WeightSpec(cap=1.0, constant=True)
    with pytest.raises(GeometryError):
        WeightSpec(cap=-1.0)


def test_metric_ball_radius_positive():
    with pytest.raises(GeometryError):
        MetricBall(Euclidean(), 0.0, dim=2)


def _write(tmp_path, text):
    path = tmp_path / "domain.txt"
    path.write_text(text)
    return path


MALFORMED = {
    "nan vertex": (lambda tmp: load_polygon(_write(tmp, "nan,1\n1,0\n0,1\n")),
                   GeometryError, "finite"),
    "text vertex": (lambda tmp: load_polygon(_write(tmp, "0,0\n1,x\n0,1\n")),
                    GeometryError, "non-numeric"),
    "polytope shape mismatch": (lambda tmp: ConvexPolytope(np.eye(3), np.zeros(2)),
                                DimensionMismatchError, "m offsets"),
    "nan halfspace": (lambda tmp: ConvexPolytope([[np.nan, 1.0], [-1.0, 0.0], [0.0, -1.0]], np.zeros(3)),
                      GeometryError, "finite"),
    "polytope zero normal": (lambda tmp: ConvexPolytope([[1.0, 1.0], [0.0, 0.0], [0.0, -1.0]], np.zeros(3)),
                             GeometryError, "nonzero"),
    "polytope too few facets": (lambda tmp: ConvexPolytope([[1.0, 0.0], [-1.0, 0.0]], [-1.0, 0.0]),
                                GeometryError, "d\\+1 facets"),
    "unknown weight metric": (lambda tmp: WeightSpec(metric="euclid"), GeometryError, "unknown metric str"),
    "positive axis out of range": (lambda tmp: MetricBall(Euclidean(), 1, positive_axes=(5,), dim=2),
                                   GeometryError, "out of range"),
    "zero dim": (lambda tmp: MetricBall(Euclidean(), 1, dim=0), GeometryError, "dimension"),
    "nan radius": (lambda tmp: MetricBall(Euclidean(), np.nan, dim=2), GeometryError, "radius"),
    "dim vs sigma": (lambda tmp: MetricBall(Mahalanobis(np.eye(2)), 1, dim=3),
                     DimensionMismatchError, "disagrees"),
    "hemi d=0": (lambda tmp: hemi_l1_ball(0), GeometryError, "d=0"),
    "nan sigma": (lambda tmp: Mahalanobis(np.array([[np.nan, 0.0], [0.0, 1.0]])),
                  GeometryError, "sigma must be finite"),
    "inf sigma": (lambda tmp: Mahalanobis(np.array([[np.inf, 0.0], [0.0, 1.0]])),
                  GeometryError, "sigma must be finite"),
    "metric vs domain dim": (lambda tmp: distance_batch(unit_square(), WeightSpec(metric=Mahalanobis(np.eye(3))),
                                                        np.full((1, 2), 0.5)),
                             DimensionMismatchError, "3-dimensional metric"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_domain_raises_typed_error(case, tmp_path):
    build, error, message = MALFORMED[case]
    with pytest.raises(error, match=message):
        build(tmp_path)


# ---------------------------------------------------------------------------
# membership


def test_contains_unit_square_center(square):
    assert contains(square, np.array([0.5, 0.5])) is True


def test_contains_unit_square_boundary_open(square):
    assert contains(square, np.array([1.0, 0.5])) is False


def test_contains_triangle_outside_hypotenuse():
    tri = Polygon([(0, 0), (1, 0), (0, 1)])
    assert contains(tri, np.array([0.9, 0.9])) is False
    assert contains(tri, np.array([0.2, 0.2])) is True


def test_contains_polygon_vertex_excluded():
    tri = Polygon([(0, 0), (1, 0), (0, 1)])
    assert contains(tri, np.array([0.0, 0.0])) is False
    assert contains(tri, np.array([0.5, 0.0])) is False  # on an edge


def test_contains_dimension_mismatch(square):
    with pytest.raises(DimensionMismatchError):
        contains(square, np.array([0.5, 0.5, 0.5]))


def test_contains_batch_matches_scalar(polygon_preset, rng):
    X = rng.uniform(-4, 4, size=(200, 2))
    batch = contains_batch(polygon_preset, X)
    single = np.array([contains(polygon_preset, x) for x in X])
    assert np.array_equal(batch, single)


def test_nonconvex_polygon_notch_membership(polygon_preset):
    # the notch cut into the top edge is outside
    assert not contains(polygon_preset, np.array([0.0, 2.9]))
    assert contains(polygon_preset, np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# distance: pinned examples


def test_distance_unit_square_example(square):
    g, grad = distance(square, EUCL, np.array([0.1, 0.4]))
    assert g == pytest.approx(0.1, abs=1e-12)
    assert np.allclose(grad, [1.0, 0.0])


def test_distance_triangle_tie():
    tri = Polygon([(0, 0), (1, 0), (0, 1)])
    g, grad = distance(tri, EUCL, np.array([0.25, 0.25]))
    assert g == pytest.approx(0.25, abs=1e-12)
    # nearest is either the bottom or left edge; gradient points away from it
    assert np.allclose(grad, [0.0, 1.0]) or np.allclose(grad, [1.0, 0.0])


def test_distance_cap_saturated(square):
    # underlying g0 = 0.3 at x=(0.3, 0.5)... use x=(0.3, 0.4): g0=0.3
    spec = WeightSpec(metric=Euclidean(), cap=4.0)
    g, grad = distance(square, spec, np.array([0.3, 0.4]))
    assert g == 1.0
    assert np.all(grad == 0.0)


def test_distance_cap_unsaturated(square):
    spec = WeightSpec(metric=Euclidean(), cap=2.0)
    g, grad = distance(square, spec, np.array([0.1, 0.4]))
    assert g == pytest.approx(0.2, abs=1e-12)
    assert np.allclose(grad, [2.0, 0.0])


def test_distance_mahalanobis_identity_ball():
    ball = MetricBall(Mahalanobis(np.eye(2)), 1.0)
    g, grad = distance(ball, EUCL, np.array([0.3, 0.0]))
    assert g == pytest.approx(0.7, abs=1e-10)
    assert np.allclose(grad, [-1.0, 0.0], atol=1e-9)


def test_distance_outside_raises(square):
    with pytest.raises(OutsideDomainError):
        distance(square, EUCL, np.array([1.5, 0.5]))


def test_distance_constant_weight(square, rng):
    X = interior_points(square, 3)
    table = distance_batch(square, WeightSpec(constant=True), X)
    assert np.all(table.g == 1.0)
    assert np.all(table.dg == 0.0)


def test_distance_batch_unit_gradients(square):
    X = interior_points(square, 3)
    table = distance_batch(square, EUCL, X)
    norms = np.linalg.norm(table.dg, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)
    assert table.g.shape == (len(X), 1) and table.dg.shape == X.shape


def test_l1_unsupported_on_metric_ball():
    ball = MetricBall(Euclidean(), 1.0, dim=2)
    with pytest.raises(UnsupportedPairingError):
        distance_batch(ball, WeightSpec(metric=L1()), np.zeros((1, 2)))


def test_l1_distance_box():
    box = Box([0.0, 0.0], [1.0, 2.0])
    g, grad = distance(box, WeightSpec(metric=L1()), np.array([0.25, 1.0]))
    # nearest facet under l1 point-to-hyperplane distance is x=0
    assert g == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(grad, [1.0, 0.0])


def test_mahalanobis_weight_on_square():
    # Mahalanobis with sigma = (1/4) I doubles all distances
    sq = unit_square()
    m = Mahalanobis(0.25 * np.eye(2))
    g, grad = distance(sq, WeightSpec(metric=m), np.array([0.1, 0.4]))
    assert g == pytest.approx(0.2, abs=1e-10)
    # chain rule: gradient magnitude is 2 along x
    assert np.allclose(grad, [2.0, 0.0], atol=1e-9)


# ---------------------------------------------------------------------------
# distance: brute-force oracles


def test_polygon_distance_vs_brute_oracle(polygon_preset):
    X = interior_points(polygon_preset, 25, seed=3)
    table = distance_batch(polygon_preset, EUCL, X)
    ref = brute_polygon_distance(polygon_preset.vertices, X, n_samples=120_000)
    assert np.all(np.abs(table.g[:, 0] - ref) < 1e-3)


def test_polytope_distance_vs_brute_oracle():
    poly = random_convex_polytope_3d(7)
    X = interior_points(poly, 10, seed=11)
    table = distance_batch(poly, EUCL, X)
    rng = np.random.default_rng(5)
    ref = brute_polytope_distance(poly.A, poly.b, X, rng, n_per_facet=20_000)
    assert np.all(np.abs(table.g[:, 0] - ref) < 1e-3)


def test_ellipsoid_distance_vs_brute_oracle():
    Sigma = np.array([[1.0, -0.6], [-0.6, 1.0]])
    ball = MetricBall(Mahalanobis(Sigma), 1.0)
    X = interior_points(ball, 20, seed=2)
    table = distance_batch(ball, EUCL, X)
    # oracle: dense sampling of the ellipse boundary
    t = np.linspace(0, 2 * np.pi, 200_000, endpoint=False)
    L = np.linalg.cholesky(Sigma)
    boundary = (L @ np.vstack([np.cos(t), np.sin(t)])).T
    for x, g in zip(X, table.g[:, 0]):
        ref = np.linalg.norm(boundary - x, axis=1).min()
        assert abs(g - ref) < 1e-3


# x^2 + 4 y^2 < 1, the rotated rho = 0.9 ellipse of acceptance 06, and a 3-D
# ellipsoid whose top eigenvalue is repeated
SIGMA_1_4 = np.diag([1.0, 0.25])
SIGMA_RHO9 = np.array([[1.0, -0.9], [-0.9, 1.0]])
SIGMA_3D = np.diag([1.0, 0.25, 0.25])
LONG_AXIS, SHORT_AXIS = np.array([1.0, -1.0]) / np.sqrt(2), np.array([1.0, 1.0]) / np.sqrt(2)
AXIS_POINTS = (
    [(SIGMA_1_4, x) for x in [(0.1, 0.0), (0.5, 0.0), (0.1, 1e-9), (0.0, 0.0), (0.0, 0.3)]]
    + [(SIGMA_RHO9, tuple(s * LONG_AXIS)) for s in (0.0, 0.05, 0.3, 0.9, 1.3)]
    + [(SIGMA_RHO9, tuple(s * SHORT_AXIS)) for s in (0.1, 0.25)]
    + [(SIGMA_3D, x) for x in [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.6, 0.0, 0.0),
                               (0.3, 0.0, 0.2), (0.2, 0.1, -0.1)]])


@pytest.mark.parametrize("sigma, x", AXIS_POINTS)
def test_ellipsoid_axis_points_vs_oracle(sigma, x):
    # points on principal axes and at the centre, where the nearest-point
    # equation has its hard case (More & Sorensen 1983)
    ball = MetricBall(Mahalanobis(sigma), 1.0)
    g, grad = distance(ball, EUCL, np.array(x))
    ref = brute_ellipsoid_distance(np.linalg.inv(sigma), 1.0, x, np.random.default_rng(0))
    assert abs(g - ref) < 1e-6
    assert np.linalg.norm(grad) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x, expect", [((0.1, 0.0), 0.496655), ((0.5, 0.0), 0.408248),
                                       ((0.1, 1e-9), 0.496655), ((0.0, 0.0), 0.5)])
def test_ellipse_hard_case_values(x, expect):
    g, _ = distance(MetricBall(Mahalanobis(SIGMA_1_4), 1.0), EUCL, np.array(x))
    assert g == pytest.approx(expect, abs=1e-6)


@pytest.mark.parametrize("maha_weight", [False, True])
def test_ellipsoid_gradient_vs_fd(maha_weight):
    ball = MetricBall(Mahalanobis(SIGMA_RHO9), 1.0)
    spec = WeightSpec(metric=Mahalanobis(SIGMA_RHO9)) if maha_weight else EUCL
    X = interior_points(ball, 20, seed=4)
    table = distance_batch(ball, spec, X)
    checked = 0
    for x, grad in zip(X, table.dg):
        fd = fd_gradient(lambda z: distance(ball, spec, z)[0], x)
        if np.linalg.norm(fd - grad) > 1e-5:
            # near the medial axis FD straddles the kink; skip those points
            continue
        assert np.allclose(grad, fd, atol=1e-6)
        checked += 1
    assert checked >= len(X) - 2


def _random_ellipsoid(rng, d):
    """M = Q diag(a^-2) Q^T with semi-axes a from 1e-2 to 1e2, and a radius."""
    a = 10.0 ** rng.uniform(-2.0, 2.0, size=d)
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return (Q / a ** 2) @ Q.T, Q, a, rng.uniform(0.5, 2.0)


def _ellipsoid_points(rng, Q, a, radius):
    """Interior points, points 1e-12 to 1e-3 of the way in from the boundary,
    the centre, and points on every principal axis (the hard case)."""
    d = len(a)
    U = rng.standard_normal((300, d))
    B = radius * (U / np.linalg.norm(U, axis=1, keepdims=True) * a) @ Q.T
    on_axes = (radius * a * Q)[:, np.arange(40) % d].T * rng.uniform(0.0, 0.99, size=(40, 1))
    return np.concatenate([B * rng.uniform(0.0, 1.0, size=(300, 1)),
                           B * (1.0 - 10.0 ** rng.uniform(-12.0, -3.0, size=(300, 1))),
                           np.zeros((1, d)), on_axes])


def _rowwise(M, radius, X):
    """The row-major solver's g and gradient, and where the gradient is
    defined: its g = 0 rows (points within rounding of a very thin
    ellipsoid's boundary) carry NaN, where `_euclid_ellipsoid` gives the
    inward normal."""
    with np.errstate(invalid="ignore"):
        g, dg = rowwise_ellipsoid_distance(M, radius, X)
    return g, dg, g > 0.0


def test_ellipse_solver_equals_rowwise_form_bit_for_bit():
    # in 2-D every per-point sum has two terms, so the (d, n) layout rounds
    # exactly as the row-major solver in tests/oracles.py did
    rng = np.random.default_rng(22)
    for _ in range(40):
        M, Q, a, radius = _random_ellipsoid(rng, 2)
        X = _ellipsoid_points(rng, Q, a, radius)
        g, dg = geometry._euclid_ellipsoid(M, radius, X, np.eye(2))
        g_ref, dg_ref, ok = _rowwise(M, radius, X)
        assert np.array_equal(g, g_ref) and np.array_equal(dg[ok], dg_ref[ok])


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_ellipsoid_solver_near_rowwise_form(d):
    # from d = 3 on, sums of three or more squares are added in another order:
    # g agrees to a few ulps of the longest semi-axis, and the unit gradient,
    # the direction of a vector of length g, to a few ulps of a_max / g
    eps = np.finfo(float).eps
    rng = np.random.default_rng(d)
    for _ in range(10):
        M, Q, a, radius = _random_ellipsoid(rng, d)
        X = _ellipsoid_points(rng, Q, a, radius)
        g, dg = geometry._euclid_ellipsoid(M, radius, X, np.eye(d))
        g_ref, dg_ref, ok = _rowwise(M, radius, X)
        scale = radius * a.max()
        assert np.all(np.abs(g - g_ref) <= 32 * eps * scale)
        bound = 64 * eps * (1.0 + scale / g_ref[ok])
        assert np.all(np.abs(dg[ok] - dg_ref[ok]) <= bound[:, None])


def test_ellipse_boundary_points_get_the_inward_normal():
    # on x^2 + 4 y^2 = 1 the solve ends at t = 1 exactly, where g = 0
    X = np.array([[1.0, 0.0], [0.0, 0.5], [-1.0, 0.0], [0.0, -0.5], [0.5, 0.0]])
    g, dg = geometry._euclid_ellipsoid(np.diag([1.0, 4.0]), 1.0, X, np.eye(2))
    assert np.array_equal(g[:4], np.zeros(4)) and g[4] > 0.0
    assert np.allclose(dg[:4], -np.sign(X[:4]), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("rho", [0.3, 0.9])
def test_points_a_rounding_inside_the_ellipse_get_finite_weights(rho):
    # a batch (a one-row X @ Q rounds differently) of the floats next to the
    # boundary on the inside: contains_batch accepts them, some solves end at
    # t = 1 with g = 0, and their gradient must still be the inward normal
    sigma = np.array([[1.0, -rho], [-rho, 1.0]])
    ball = MetricBall(Mahalanobis(sigma), 1.0)
    t = np.linspace(0.0, 2.0 * np.pi, 200_000, endpoint=False)
    X = np.nextafter(np.column_stack([np.cos(t), np.sin(t)]) @ np.linalg.cholesky(sigma).T, 0.0)
    X = X[contains_batch(ball, X)]
    for spec in (EUCL, WeightSpec(metric=Mahalanobis(sigma))):
        table = distance_batch(ball, spec, X)
        g, dg = table.g[:, 0], table.dg
        assert np.all(g >= 0.0) and np.all(np.isfinite(dg))
        assert np.all(np.einsum("nd,nd->n", dg, X) < 0.0)  # inward
        if spec is EUCL:
            assert np.allclose(np.linalg.norm(dg, axis=1), 1.0, rtol=0.0, atol=1e-12)
            edge = X[np.argsort(g)[:50]]
    # a fit on an interior sample plus the 50 points nearest the boundary
    rng = np.random.default_rng(0)
    U = rng.standard_normal((400, 2))
    U *= rng.uniform(0.0, 0.95, size=(400, 1)) / np.linalg.norm(U, axis=1, keepdims=True)
    points = np.concatenate([U @ np.linalg.cholesky(sigma).T, edge])
    for spec in (EUCL, WeightSpec(metric=Mahalanobis(sigma))):
        report = estimator.fit(GaussianMean(2), points, ball, spec)
        assert np.all(np.isfinite(report.theta_hat))


def test_distance_gradient_vs_fd(polygon_preset):
    X = interior_points(polygon_preset, 10, seed=9)
    table = distance_batch(polygon_preset, EUCL, X)
    for x, grad in zip(X, table.dg):
        fd = fd_gradient(lambda z: distance(polygon_preset, EUCL, z)[0], x)
        if np.linalg.norm(fd - grad) > 1e-5:
            # near the medial axis FD straddles the kink; skip those points
            continue
        assert np.allclose(grad, fd, atol=1e-5)


def test_positive_axes_tie_rule():
    # the first listed axis among equal facet distances; the sphere on an exact tie
    g, grad = distance(MetricBall(Euclidean(), 1.0, positive_axes=(1, 0), dim=2), EUCL,
                       np.array([0.25, 0.25]))
    assert g == 0.25 and np.array_equal(grad, [0.0, 1.0])
    g, grad = distance(MetricBall(Euclidean(), 1.0, positive_axes=(1,), dim=2), EUCL,
                       np.array([0.0, 0.5]))
    assert g == 0.5 and np.array_equal(grad, [0.0, -1.0])


# a non-diagonal SPD sigma per dimension; Mahalanobis weights equal Euclidean
# distances in y = L x, where the oracles run on the mapped boundary
SIGMA_SPD = {2: np.array([[1.0, 0.35], [0.35, 0.6]]),
             3: np.array([[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 0.5]])}
MAHA_DOMAINS = {
    "box": lambda: Box([0.0, -1.0], [2.0, 3.0]),
    "polytope": lambda: random_convex_polytope_3d(7),
    "polygon": presets.default_polygon,
    "euclidean-ball": lambda: MetricBall(Euclidean(), 1.5, dim=2),
    "positive-ball": lambda: MetricBall(Euclidean(), 1.0, positive_axes=(1,), dim=2),
    "union": lambda: template_domain("disjoint", 1.0),
}


def _mapped_oracle(domain, L, x, rng):
    y = L @ x
    if isinstance(domain, DisjointUnion):
        [comp] = [c for c in domain.components if contains(c, x)]
        return _mapped_oracle(comp, L, x, rng)
    if isinstance(domain, ConvexPolytope):
        return brute_polytope_distance(domain.A @ np.linalg.inv(L), domain.b, y, rng,
                                       n_per_facet=20_000)[0]
    if isinstance(domain, Polygon):
        return brute_polygon_distance(domain.vertices @ L.T, y, n_samples=120_000)
    # a positive axis x_k > 0 is a facet, at x_k / ||L^-T e_k|| in y = L x
    axes = [x[k] / np.linalg.norm(np.linalg.inv(L).T[:, k]) for k in domain.positive_axes]
    return min([brute_ellipsoid_distance(np.linalg.inv(L @ L.T), domain.radius, y, rng)] + axes)


@pytest.mark.parametrize("case", sorted(MAHA_DOMAINS))
def test_mahalanobis_weights_vs_oracles(case, monkeypatch):
    domain = MAHA_DOMAINS[case]()

    def rebuilt(V):
        raise AssertionError("a polygon was rebuilt during a distance evaluation")

    monkeypatch.setattr(geometry, "_check_simple", rebuilt)
    spec = WeightSpec(metric=Mahalanobis(SIGMA_SPD[domain.dim]))
    L = spec.metric.transform
    X = interior_points(domain, 6, seed=8)
    table = distance_batch(domain, spec, X)
    rng = np.random.default_rng(5)
    ref = np.array([_mapped_oracle(domain, L, x, rng) for x in X])
    assert np.all(np.abs(table.g[:, 0] - ref) < 1e-3)
    checked = 0
    for x, grad in zip(X, table.dg):
        fd = fd_gradient(lambda z: distance(domain, spec, z)[0], x)
        if np.linalg.norm(fd - grad) > 1e-5:
            # near the medial axis FD straddles the kink; skip those points
            continue
        assert np.allclose(grad, fd, atol=1e-6)
        checked += 1
    assert checked >= len(X) - 2


PAIRING_DOMAINS = dict(MAHA_DOMAINS, **{
    "mahalanobis-ball": lambda: MetricBall(Mahalanobis(SIGMA_RHO9), 1.0),
    "l1-ball": lambda: MetricBall(L1(), 1.0, dim=2),
})
UNSUPPORTED = ({(name, "l1") for name in PAIRING_DOMAINS if name not in ("box", "polytope")}
               | {("l1-ball", "euclidean"), ("l1-ball", "mahalanobis")})


@pytest.mark.parametrize("metric_name", ["euclidean", "l1", "mahalanobis"])
@pytest.mark.parametrize("domain_name", sorted(PAIRING_DOMAINS))
def test_pairing_matrix(domain_name, metric_name):
    # l1 reaches polytope facets only; every other pairing is exact, and the
    # gradient of a distance function has unit dual norm
    domain = PAIRING_DOMAINS[domain_name]()
    metric = {"euclidean": Euclidean(), "l1": L1(),
              "mahalanobis": Mahalanobis(SIGMA_SPD[domain.dim])}[metric_name]
    X = interior_points(domain, 50, seed=3)
    if (domain_name, metric_name) in UNSUPPORTED:
        with pytest.raises(UnsupportedPairingError):
            distance_batch(domain, WeightSpec(metric=metric), X)
        return
    table = distance_batch(domain, WeightSpec(metric=metric), X)
    assert np.all(np.isfinite(table.g)) and np.all(table.g > 0.0)
    if metric_name == "euclidean":
        dual = np.linalg.norm(table.dg, axis=1)
    elif metric_name == "l1":
        dual = np.abs(table.dg).max(axis=1)
    else:
        dual = np.linalg.norm(np.linalg.solve(metric.transform.T, table.dg.T), axis=0)
    assert np.allclose(dual, 1.0, rtol=0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# hypothesis properties


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_nonneg_lipschitz_unit_grad(seed):
    rng = np.random.default_rng(seed)
    sq = unit_square()
    X = rng.uniform(1e-6, 1 - 1e-6, size=(2, 2))
    table = distance_batch(sq, EUCL, X)
    g = table.g[:, 0]
    assert np.all(g >= 0.0)
    assert abs(g[0] - g[1]) <= np.linalg.norm(X[0] - X[1]) + 1e-12
    assert np.allclose(np.linalg.norm(table.dg, axis=1), 1.0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_boundary_approach(seed):
    rng = np.random.default_rng(seed)
    eps = rng.uniform(1e-6, 1e-3)
    sq = unit_square()
    x = np.array([eps, rng.uniform(0.2, 0.8)])
    g, _ = distance(sq, EUCL, x)
    assert g <= eps + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_concavity_convex_domain(seed):
    rng = np.random.default_rng(seed)
    poly = random_convex_polytope_3d(17)
    X = interior_points(poly, 2, seed=seed)
    x, y = X
    gm, _ = distance(poly, EUCL, 0.5 * (x + y))
    gx, _ = distance(poly, EUCL, x)
    gy, _ = distance(poly, EUCL, y)
    assert gm >= 0.5 * (gx + gy) - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.05, max_value=50.0))
def test_property_cap_consistency(seed, c):
    rng = np.random.default_rng(seed)
    sq = unit_square()
    X = rng.uniform(1e-6, 1 - 1e-6, size=(5, 2))
    raw = distance_batch(sq, EUCL, X)
    capped = distance_batch(sq, WeightSpec(metric=Euclidean(), cap=c), X)
    expect = np.minimum(1.0, c * raw.g)
    assert np.array_equal(capped.g, expect)  # bit-identical composition
    saturated = c * raw.g[:, 0] >= 1.0
    assert np.all(capped.dg[saturated] == 0.0)
    assert np.allclose(np.linalg.norm(capped.dg[~saturated], axis=1), c, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([2, 3]), st.booleans())
def test_property_ellipsoid_nearest_point(seed, d, rotated):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 5.0, size=d)
    if d == 3 and rng.random() < 0.5:
        w[1] = w[2]  # repeated eigenvalue
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0] if rotated else np.eye(d)
    M = (Q * w) @ Q.T
    radius = rng.uniform(0.5, 2.0)
    ball = MetricBall(Mahalanobis(np.linalg.inv(M)), radius)
    # interior points; the first four snapped onto an eigen-axis, the fifth
    # onto the plane orthogonal to the top eigenvector
    U = rng.standard_normal((8, d))
    U *= rng.uniform(0.0, 0.98, size=(8, 1)) / np.linalg.norm(U, axis=1, keepdims=True)
    X = radius * (U / np.sqrt(w)) @ Q.T
    for i in range(4):
        q = Q[:, rng.integers(d)]
        X[i] = (X[i] @ q) * q
    q = Q[:, np.argmax(w)]
    X[4] -= (X[4] @ q) * q
    table = distance_batch(ball, EUCL, X)
    g, dg = table.g[:, 0], table.dg
    Z = X - g[:, None] * dg
    assert np.allclose(np.einsum("ni,ij,nj->n", Z, M, Z), radius ** 2, rtol=0.0, atol=1e-10)
    normal = Z @ M
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    assert np.allclose(dg, -normal, atol=1e-8)  # x - z is parallel to M z
    assert np.allclose(np.linalg.norm(dg, axis=1), 1.0, atol=1e-12)
    B = ellipsoid_boundary_points(M, radius, rng.standard_normal((20_000, d)))
    sampled = np.linalg.norm(X[:, None, :] - B[None, :, :], axis=2).min(axis=1)
    assert np.all(g <= sampled + 1e-9)


# ---------------------------------------------------------------------------
# bounding boxes, templates, file formats


def test_bounding_box_polygon_vertices():
    tri = Polygon([(0, 0), (1, 0), (0, 1)])
    box = bounding_box(tri)
    assert np.allclose(box.lower, [0, 0]) and np.allclose(box.upper, [1, 1])


def test_bounding_box_box_identity():
    b = Box([0.0, -1.0], [2.0, 3.0])
    out = bounding_box(b)
    assert np.allclose(out.lower, b.lower) and np.allclose(out.upper, b.upper)


def test_bounding_box_unit_ball():
    ball = MetricBall(Euclidean(), 1.0, dim=3)
    box = bounding_box(ball)
    assert np.allclose(box.lower, -1.0) and np.allclose(box.upper, 1.0)


def test_bounding_box_polytope_lp(square):
    box = bounding_box(square)
    assert np.allclose(box.lower, [0, 0], atol=1e-9)
    assert np.allclose(box.upper, [1, 1], atol=1e-9)


def test_bounding_box_unbounded_raises():
    with pytest.raises(GeometryError):
        bounding_box(ConvexPolytope([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [-1.0, -1.0, 0.0]))


def test_square_template_b1():
    verts = template_domain("square", 1.0).vertices
    assert set(map(tuple, verts)) == {(-1, -1), (-1, 1), (1, 1), (1, -1)}


def test_disjoint_template_first_rect():
    rect1 = template_domain("disjoint", 0.5).components[0].vertices
    assert set(map(tuple, rect1)) == {(0.5, 0), (0.5, 0.5), (1.5, 0.5), (1.5, 0)}


def test_square_template_linearity():
    v1 = template_domain("square", 1.3).vertices
    v2 = template_domain("square", 2.6).vertices
    assert np.allclose(2 * np.abs(v1), np.abs(v2))


def test_template_domain_disjoint_distance():
    dom = template_domain("disjoint", 1.0)
    assert isinstance(dom, DisjointUnion)
    x = np.array([1.0, 0.25])  # inside the first rectangle
    g, grad = distance(dom, EUCL, x)
    assert g == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(np.linalg.norm(grad), 1.0)


@pytest.mark.parametrize("b", [0.5, 4.0])
def test_union_weights_test_membership_once(b, monkeypatch):
    dom = template_domain("disjoint", b)
    X = interior_points(dom, 2000, seed=1)
    seen = []
    contains = geometry.contains_batch
    monkeypatch.setattr(geometry, "contains_batch",
                        lambda D, P: seen.append(D) or contains(D, P))
    maha = WeightSpec(metric=Mahalanobis([[1.0, 0.3], [0.3, 1.0]]))
    for spec in (EUCL, WeightSpec(cap=2.0), maha):
        seen.clear()
        table = distance_batch(dom, spec, X)
        assert seen == list(dom.components)  # one membership test per component
        # each point's weight is its own component's, bit for bit
        for comp in dom.components:
            m = contains(comp, X)
            part = distance_batch(comp, spec, X[m])
            assert np.array_equal(table.g[m], part.g) and np.array_equal(table.dg[m], part.dg)


def test_load_polygon_roundtrip(tmp_path):
    p = tmp_path / "poly.txt"
    p.write_text("0,0\n1,0\n0,1\n")
    poly = load_polygon(p)
    assert poly.vertices.shape == (3, 2)


def test_hemi_l1_ball_membership_and_facets():
    for d in (2, 3, 4):
        dom = hemi_l1_ball(d)
        assert len(dom.A) == 2 ** (d - 1) + 1
        x = np.zeros(d)
        x[-1] = 0.5
        assert contains(dom, x)
        assert not contains(dom, -x)
        assert not contains(dom, np.full(d, 0.6))
    with pytest.raises(GeometryError):
        hemi_l1_ball(13)


def test_weight_table_scaled():
    t = geometry.WeightTable(g=np.ones((2, 1)), dg=np.full((2, 2), 0.5))
    s = scaled_weights(t, 2.0)
    assert np.all(s.g == 2.0) and np.all(s.dg == 1.0)
