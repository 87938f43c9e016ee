"""Truncation domains, membership tests and boundary-distance weight functions.

A domain V is an open bounded region of R^d.  The weight used by the
estimator is g0(x) = min_{z on the boundary} d(x, z) for a chosen metric,
optionally capped at 1 via g_c = min(1, c * g0).  Every domain object is
immutable after construction; distance evaluation is pure.

One dispatcher, `_raw_distance_batch`, serves every domain x metric pairing:
- every flat boundary piece is a facet {a.z + b = 0}, at distance
  |a.x + b| / ||a||_* in the metric's dual norm (`_dual_norms`): l2 for
  Euclidean, l-infinity for l1, and ||L^-T a|| for Mahalanobis.  A
  `ConvexPolytope(A, b)` holds its facets as the rows of A and b, a `Box` is
  one, and a ball's positive axes x_k > 0 are the facets -x_k < 0;
- a Mahalanobis distance ||L (x - z)|| is Euclidean in y = L x, so a polygon's
  vertices are mapped through L (no domain object is rebuilt), a ball
  {||R x|| < r} becomes the quadric {||R L^-1 y|| < r}, and the gradient is
  pulled back by L;
- a disjoint union takes the distance within the component holding the point.
l1 distances to polygons, balls and unions raise `UnsupportedPairingError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cholesky, eigh
from scipy.optimize import linprog
from scipy.spatial import cKDTree


class GeometryError(ValueError):
    pass


class DimensionMismatchError(GeometryError):
    pass


class OutsideDomainError(GeometryError):
    pass


class UnsupportedPairingError(GeometryError):
    """Raised for metric/domain pairings with no exact algorithm."""


class UnboundedDomainError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class Euclidean:
    pass


class Mahalanobis:
    """Metric d(x, y) = sqrt((x-y)^T sigma^{-1} (x-y)), sigma SPD."""

    def __init__(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise GeometryError("sigma must be a square matrix")
        if not np.isfinite(sigma).all():
            raise GeometryError("sigma must be finite")
        if not np.allclose(sigma, sigma.T):
            raise GeometryError("sigma must be symmetric")
        try:  # upper-triangular L with L^T L = sigma^{-1}
            inv = np.linalg.inv(sigma)
            self._L = cholesky(0.5 * (inv + inv.T), lower=False)
        except np.linalg.LinAlgError as exc:
            raise GeometryError("sigma must be positive definite") from exc
        self.sigma = sigma
        self.sigma.setflags(write=False)

    @property
    def transform(self):
        """Matrix L with L^T L = sigma^{-1}; d(x,y) = ||L(x-y)||."""
        return self._L


@dataclass(frozen=True)
class L1:
    pass


def _check_metric(metric):
    if not isinstance(metric, (Euclidean, L1, Mahalanobis)):
        raise GeometryError(f"unknown metric {type(metric).__name__}")


# ---------------------------------------------------------------------------
# domains


class ConvexPolytope:
    """Intersection of open halfspaces {x : A x + b < 0}: facet j has the
    normal A[j] and the offset b[j]."""

    def __init__(self, A, b):
        A, b = np.array(A, dtype=float), np.array(b, dtype=float)
        if A.ndim != 2 or b.shape != A.shape[:1]:
            raise DimensionMismatchError(
                f"facets need an (m, d) normal array and m offsets, got {A.shape} and {b.shape}")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise GeometryError("facet normals and offsets must be finite")
        if np.any(np.all(A == 0.0, axis=1)):
            raise GeometryError("facet normals must be nonzero")
        if len(A) < A.shape[1] + 1:
            raise GeometryError("bounded polytope needs at least d+1 facets")
        A.setflags(write=False)
        b.setflags(write=False)
        self.A, self.b, self.dim = A, b, A.shape[1]


class Polygon:
    """Simple closed polygon in the plane, normalized counterclockwise."""

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2 or V.shape[0] < 3:
            raise GeometryError("polygon needs >= 3 two-dimensional vertices")
        if not np.all(np.isfinite(V)):
            raise GeometryError("polygon vertices must be finite")
        area2 = _signed_area2(V)
        if area2 == 0.0:
            raise GeometryError("degenerate polygon")
        if area2 < 0.0:
            V = V[::-1].copy()
        _check_simple(V)
        self.vertices = V
        self.vertices.setflags(write=False)
        self.dim = 2


class Box(ConvexPolytope):
    """Open axis-aligned box (lower, upper) componentwise.

    Its facets are every lower face, then every upper face, so a tie in the
    nearest facet goes to a lower face, and then to the lowest axis.
    """

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise GeometryError("lower/upper must be vectors of equal length")
        if not np.all(lower < upper):
            raise GeometryError("box needs lower < upper componentwise")
        eye = np.eye(lower.size)
        super().__init__(np.vstack([-eye, eye]), np.concatenate([lower, -upper]))
        self.lower, self.upper = lower, upper
        lower.setflags(write=False)
        upper.setflags(write=False)


class MetricBall:
    """Open metric ball {x : ||x||_metric < radius}, optionally intersected
    with coordinate positivity constraints x_k > 0."""

    def __init__(self, metric, radius, positive_axes: Sequence[int] = (), dim: Optional[int] = None):
        if not radius > 0:
            raise GeometryError("radius must be positive")
        _check_metric(metric)
        if isinstance(metric, Mahalanobis):
            if dim not in (None, len(metric.sigma)):
                raise DimensionMismatchError(f"dim={dim} disagrees with sigma {metric.sigma.shape}")
            dim = len(metric.sigma)
        elif dim is None:
            raise GeometryError("dim required for Euclidean/L1 balls")
        if dim < 1:
            raise GeometryError(f"ball dimension must be >= 1, got {dim}")
        self.positive_axes = tuple(int(k) for k in positive_axes)
        if not all(0 <= k < dim for k in self.positive_axes):
            raise GeometryError(f"positive_axes {self.positive_axes} out of range for dim {dim}")
        self.metric = metric
        self.radius = float(radius)
        self.dim = int(dim)


class DisjointUnion:
    """Union of pairwise-disjoint component domains (e.g. two rectangles)."""

    def __init__(self, components):
        if not components:
            raise GeometryError("union needs at least one component")
        dims = {c.dim for c in components}
        if len(dims) != 1:
            raise GeometryError("components must share a dimension")
        self.components = tuple(components)
        self.dim = dims.pop()


@dataclass(frozen=True)
class WeightSpec:
    """How to turn boundary distance into the scalar weight g(x).

    cap=c gives g = min(1, c*g0); constant=True gives g == 1 (naive SM).
    """

    metric: object = field(default_factory=Euclidean)
    cap: Optional[float] = None
    constant: bool = False

    def __post_init__(self):
        _check_metric(self.metric)
        if self.cap is not None and self.constant:
            raise GeometryError("cap and constant are mutually exclusive")
        if self.cap is not None and self.cap <= 0:
            raise GeometryError("cap must be positive")


@dataclass
class WeightTable:
    """Precomputed weights g(x_i) and their gradients, dg[:, k] = d_k g."""

    g: np.ndarray   # (n, 1), a column that broadcasts against (n, d) score arrays
    dg: np.ndarray  # (n, d); distance_batch stores it feature-major (Fortran order)


# ---------------------------------------------------------------------------
# polygon helpers


def _signed_area2(V):
    x, y = V[:, 0], V[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


# Below this many vertices the membership and distance kernels test every
# (point, edge) pair; from it on they first cull the pairs that cannot matter.
# On 2 vCPUs both culled forms overtake the dense ones at 18-20 vertices
# (20,000 points tested for membership, distances for 3,000).
_DENSE_MAX_T = 20
_PAIR_BLOCK = 1 << 16  # (owner, position) pairs per block of the culled kernels


def _ranges(start, count):
    """(owner, position) arrays listing positions start[k] .. start[k] + count[k] - 1
    of every owner k, in owner order, about `_PAIR_BLOCK` pairs per yielded block."""
    end = np.cumsum(count)
    k0 = 0
    while k0 < len(count):
        k1 = max(k0 + 1, int(np.searchsorted(end, end[k0] - count[k0] + _PAIR_BLOCK, "right")))
        c = count[k0:k1]
        owner = np.repeat(np.arange(k0, k1), c)
        if owner.size:
            yield owner, np.arange(owner.size) - np.repeat(np.cumsum(c) - c - start[k0:k1], c)
        k0 = k1


def _orient(a, b, c):
    """Sign of the turn a -> b -> c, for arrays of (m, 2) points."""
    return np.sign((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                   - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _check_simple(V):
    """Raise unless no two non-adjacent edges meet.  Only edges whose closed
    bounding boxes overlap can meet: sorted on their left ends, edge order[s]
    overlaps in x the edges at sorted positions s+1 .. end[s]-1."""
    T = len(V)
    P, Q = V, np.roll(V, -1, axis=0)
    lo, hi = np.minimum(P, Q), np.maximum(P, Q)
    order = np.argsort(lo[:, 0], kind="stable")
    end = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    for s, r in _ranges(np.arange(1, T + 1), end - np.arange(1, T + 1)):
        i, j = order[s], order[r]
        i, j = np.minimum(i, j), np.maximum(i, j)
        keep = (np.all(np.maximum(lo[i], lo[j]) <= np.minimum(hi[i], hi[j]), axis=1)
                & (j - i != 1) & ((i != 0) | (j != T - 1)))
        i, j = i[keep], j[keep]
        if np.any((_orient(P[i], Q[i], P[j]) != _orient(P[i], Q[i], Q[j]))
                  & (_orient(P[j], Q[j], P[i]) != _orient(P[j], Q[j], Q[i]))):
            raise GeometryError("polygon is self-intersecting")


# ---------------------------------------------------------------------------
# membership


def contains_batch(domain, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != domain.dim:
        raise DimensionMismatchError("points must be (n, d) matching domain")
    if isinstance(domain, Box):  # no (n, 2d) product for the commonest domain
        return np.all((X > domain.lower) & (X < domain.upper), axis=1)
    if isinstance(domain, ConvexPolytope):
        return np.all(X @ domain.A.T + domain.b < 0.0, axis=1)
    if isinstance(domain, Polygon):
        return _polygon_contains_batch(domain.vertices, X)
    if isinstance(domain, MetricBall):
        nrm = _metric_norm(domain.metric, X)
        inside = nrm < domain.radius
        for k in domain.positive_axes:
            inside &= X[:, k] > 0.0
        return inside
    if isinstance(domain, DisjointUnion):
        return _union_labels(domain, X) >= 0
    raise GeometryError(f"unknown domain type {type(domain).__name__}")


def _union_labels(union, X):
    """Index of the component that holds each point, -1 outside all of them."""
    label = np.full(len(X), -1)
    for i, comp in enumerate(union.components):
        label[contains_batch(comp, X)] = i
    return label


def _metric_norm(metric, X):
    if isinstance(metric, Euclidean):
        return np.linalg.norm(X, axis=1)
    if isinstance(metric, Mahalanobis):
        return np.linalg.norm(X @ metric.transform.T, axis=1)
    return np.abs(X).sum(axis=1)


def _edge_tests(x, y, px, py, qy, ax, ay, seg2):
    """For (point, edge) pairs, broadcast, the edge running from (px, py) to
    (px + ax, qy) with squared length seg2: whether a rightward ray from the point
    crosses the edge, and whether the point lies exactly on it."""
    wx, wy = x - px, y - py
    on = ax * wy - ay * wx == 0.0
    if np.any(on):  # rare: on the edge's line
        dot = wx * ax + wy * ay
        on &= (dot >= 0.0) & (dot <= seg2)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = ax * wy / ay + px
    return ((py > y) != (qy > y)) & (x < xint), on


def _polygon_contains_batch(V, X):
    """Even-odd ray test, open: a point on an edge is outside.

    A ray can only cross an edge whose half-open y-range [min, max) holds the
    point's y.  A point can only lie on an edge (`cross == 0` and
    `0 <= dot <= seg2` in floating point) within a few ulps of the edge's length
    from its closed y-range.  So from `_DENSE_MAX_T` vertices on, the points are
    sorted by y once and each edge tests the points of its y-range widened by a
    margin 2^-40 of its coordinates (all points for a near-degenerate edge).
    """
    px, py = V[:, 0], V[:, 1]
    qx, qy = np.roll(px, 1), np.roll(py, 1)  # edge i runs from vertex i to vertex i-1
    ax, ay = qx - px, qy - py
    seg2 = ax * ax + ay * ay
    edges = (px, py, qy, ax, ay, seg2)
    n, T = len(X), len(V)
    if T < _DENSE_MAX_T:  # one pass per edge over every point: fastest for few edges
        inside, on = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        for e in range(T):
            flip, hit = _edge_tests(X[:, 0], X[:, 1], *(c[e] for c in edges))
            inside ^= flip
            on |= hit
        return inside & ~on
    order = np.argsort(X[:, 1], kind="stable")
    x, y = X[order, 0], X[order, 1]
    span = np.abs(ax) + np.abs(ay)
    margin = 2.0 ** -40 * (span + np.abs(py) + np.abs(qy)) + 2.0 ** -500
    first = np.searchsorted(y, np.minimum(py, qy) - margin, side="left")
    stop = np.searchsorted(y, np.maximum(py, qy) + margin, side="right")
    tiny = span < 2.0 ** -500
    first[tiny], stop[tiny] = 0, n
    nflips = np.zeros(n, dtype=np.intp)
    on = np.zeros(n, dtype=bool)
    for e, i in _ranges(first, stop - first):
        flip, hit = _edge_tests(x[i], y[i], *(c[e] for c in edges))
        lo, hi = i.min(), i.max() + 1
        nflips[lo:hi] += np.bincount(i[flip] - lo, minlength=hi - lo)
        on[i[hit]] = True
    inside = np.empty(n, dtype=bool)
    inside[order] = (nflips % 2 == 1) & ~on
    return inside


# ---------------------------------------------------------------------------
# distance kernels (points assumed inside; all but the polytope one Euclidean)


def _polytope_distance(A, b, norms, X):
    """Distance to the nearest facet of {Ax + b < 0}; norms[j] is the metric's
    dual norm of facet normal A[j]."""
    resid = -(X @ A.T + b) / norms  # positive inside
    jstar = np.argmin(resid, axis=1)
    g = resid[np.arange(len(X)), jstar]
    grad = -A[jstar] / norms[jstar, None]
    return g, grad


def _dual_norms(A, metric):
    """The metric's dual norm of each facet normal A[j]; the rows of A L^-1
    are the L^-T a whose length is the Mahalanobis dual norm."""
    if isinstance(metric, L1):
        return np.abs(A).max(axis=1)
    if isinstance(metric, Mahalanobis):
        A = A @ np.linalg.inv(metric.transform)
    return np.linalg.norm(A, axis=1)


def _edge_offsets(X, P1, P2, edge, len2):
    """Offsets from points to their nearest points on edges P1-P2, and their
    lengths, for broadcast (point, edge) pairs."""
    alpha = np.clip(np.einsum("...k,...k->...", X - P2, edge) / len2, 0.0, 1.0)
    dvec = X - (alpha[..., None] * P1 + (1.0 - alpha)[..., None] * P2)
    return dvec, np.linalg.norm(dvec, axis=-1)


def _euclid_polygon(V, X):
    """Distance to the nearest edge, the lowest-numbered one on ties.

    From `_DENSE_MAX_T` vertices on, each point tests only the edges whose
    midpoint lies within U + L/2 of it, with U its distance to the nearest vertex
    (a boundary point) and L the longest edge: every other edge is farther than U
    by more than the slack, which is far above rounding.
    """
    n, T = len(X), len(V)
    P1, P2 = V, np.roll(V, -1, axis=0)
    edge = P1 - P2
    len2 = (edge ** 2).sum(axis=1)
    if T < _DENSE_MAX_T or not np.all(len2 > 0.0):
        dvec, dist = _edge_offsets(X[:, None, :], P1, P2, edge, len2)
        t = np.argmin(dist, axis=1)
        idx = np.arange(n)
        dvec, g = dvec[idx, t], dist[idx, t]
    else:
        dvec, g = np.empty_like(X), np.empty(n)
        half = 0.5 * np.sqrt(len2.max())
        mids = cKDTree(0.5 * (P1 + P2))
        U = cKDTree(V).query(X)[0]
        slack = 2.0 ** -30 * (U + half + np.abs(X).max(axis=1) + np.abs(V).max())
        step = 1024  # points per ball query, whose results are Python lists
        for s in range(0, n, step):
            near = mids.query_ball_point(X[s:s + step], (U + half + slack)[s:s + step],
                                         return_sorted=True)
            count = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
            t = np.fromiter(chain.from_iterable(near), dtype=np.intp, count=count.sum())
            i = np.repeat(np.arange(s, s + len(near)), count)
            dv, dist = _edge_offsets(X[i], P1[t], P2[t], edge[t], len2[t])
            # the first pair of each point that reaches its least distance
            least = np.repeat(np.minimum.reduceat(dist, np.cumsum(count) - count), count)
            hit = np.flatnonzero(dist == least)
            hit = hit[np.r_[True, i[hit[1:]] != i[hit[:-1]]]]
            dvec[s:s + step], g[s:s + step] = dv[hit], dist[hit]
    with np.errstate(invalid="ignore", divide="ignore"):
        grad = np.where(g[:, None] > 0.0, dvec / np.where(g[:, None] > 0, g[:, None], 1.0), 0.0)
    return g, grad


def _euclid_sphere(radius, X):
    nrm = np.linalg.norm(X, axis=1)
    g = radius - nrm
    grad = np.zeros_like(X)
    ok = nrm > 0.0
    grad[ok] = -X[ok] / nrm[ok, None]
    grad[~ok, 0] = -1.0  # center: any unit direction is a valid selection
    return g, grad


# step cap and stopping tolerance of the ellipsoid Newton/bisection
_ELLIPSOID_MAX_ITER, _ELLIPSOID_RTOL = 100, 16 * np.finfo(float).eps


def _euclid_ellipsoid(M, radius, X, L):
    """Euclidean distance in y = L x from interior points x to the quadric
    {y : y^T M y = radius^2}, and its gradient in x.

    In the eigenbasis u = Q^T L x of M (eigenvalues w, rho = w / max w), the
    nearest point is z = u / (1 - rho + t rho) with t in [0, 1) solving
    ||z||_M = ||c / (e + t)|| = radius, where c = sqrt(w) u / rho and
    e = 1 / rho - 1.  1 / ||z||_M is concave in t (More & Sorensen 1983), so
    batched Newton from the lower bound max(|c| / radius - e) rises to the
    root; bisection replaces a step that leaves the bracket.  Hard case
    (Eberly 2013; includes the centre): zero top-eigenspace coordinates and
    ||z(0)||_M <= radius give t = 0, with the remaining length placed on the
    first top eigenvector.
    """
    w, Q = eigh(0.5 * (M + M.T))
    P = L.T @ Q  # x -> u in one product; P = Q exactly when L = I
    rho = w / w.max()
    e = ((1.0 - rho) / rho)[:, None]
    # feature-major: C is (d, n), so every per-point sum runs over axis 0
    C = np.ascontiguousarray((np.sqrt(w) / rho * (X @ P)).T)
    nonzero = C != 0.0

    def m_norm(t):
        q = np.divide(C, e + t, out=np.zeros_like(C), where=nonzero)
        return q, np.sqrt((q * q).sum(axis=0))

    t = np.maximum(0.0, np.max(np.abs(C) / radius - e, axis=0))
    q, N = m_norm(t)
    hard = (t == 0.0) & (N <= radius)
    lo, hi = t.copy(), np.ones_like(t)
    for _ in range(_ELLIPSOID_MAX_ITER):
        active = ~hard & (np.abs(N - radius) > _ELLIPSOID_RTOL * radius)
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            tn = t + N * N * (N - radius) / (radius * (q * (q / (e + t))).sum(axis=0))
        tn = np.where((lo <= tn) & (tn <= hi), tn, 0.5 * (lo + hi))
        t = np.where(active, tn, t)
        q, N = m_norm(t)
        lo = np.where(N >= radius, t, lo)
        hi = np.where(N < radius, t, hi)
    Z = q / np.sqrt(w)[:, None]  # q = sqrt(w) z at the final t
    top = int(np.argmax(w))
    rest = radius ** 2 - (w[:, None] * Z[:, hard] ** 2).sum(axis=0)
    Z[top, hard] = np.sqrt(np.maximum(rest, 0.0) / w[top])
    dvec = -(1.0 - t) * rho[:, None] * Z  # y - z, parallel to M z
    g = np.sqrt((dvec * dvec).sum(axis=0))
    # a point within rounding of the boundary can end at t = 1, where g = 0:
    # its gradient is the inward unit normal there
    normal = -rho[:, None] * Z
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = np.where(g > 0.0, dvec / g, normal / np.sqrt((normal * normal).sum(axis=0)))
    return g, unit.T @ P.T


# ---------------------------------------------------------------------------
# metric dispatch


def _raw_distance_batch(domain, metric, X, label=None):
    """Boundary distance and its gradient in `metric` at interior points X;
    for a union, `label` may give each point's component (`_union_labels`)."""
    L = metric.transform if isinstance(metric, Mahalanobis) else None
    if isinstance(domain, ConvexPolytope):
        return _polytope_distance(domain.A, domain.b, _dual_norms(domain.A, metric), X)
    if isinstance(metric, L1):
        raise UnsupportedPairingError(
            "L1 metric distance is implemented for Box and ConvexPolytope only")
    if isinstance(domain, DisjointUnion):
        if label is None:
            label = _union_labels(domain, X)
        g = np.full(len(X), np.inf)
        grad = np.zeros_like(X)
        for i, comp in enumerate(domain.components):
            mask = label == i
            if np.any(mask):
                g[mask], grad[mask] = _raw_distance_batch(comp, metric, X[mask])
        return g, grad
    if isinstance(domain, Polygon):
        if L is None:
            return _euclid_polygon(domain.vertices, X)
        g, grad = _euclid_polygon(domain.vertices @ L.T, X @ L.T)
        return g, grad @ L
    if isinstance(domain, MetricBall):
        return _ball_distance(domain, metric, X)
    raise GeometryError(f"unknown domain type {type(domain).__name__}")


def _ball_distance(ball: MetricBall, metric, X):
    """Distance in the Euclidean or Mahalanobis `metric` to a ball's boundary:
    its sphere or quadric, or the nearer facet -x_k < 0 of a positive axis
    (the first such axis among equal distances, the quadric on exact ties)."""
    if isinstance(ball.metric, L1):
        raise UnsupportedPairingError(
            "distance to an L1 ball boundary is not implemented; "
            "represent the domain as a ConvexPolytope instead")
    if isinstance(ball.metric, Euclidean) and isinstance(metric, Euclidean):
        g, grad = _euclid_sphere(ball.radius, X)
    else:
        # {x : ||R x|| < r} is {y : ||B y|| < r} in y = L x, with B = R L^-1
        eye = np.eye(ball.dim)
        R, L = (m.transform if isinstance(m, Mahalanobis) else eye for m in (ball.metric, metric))
        B = R @ np.linalg.inv(L)
        g, grad = _euclid_ellipsoid(B.T @ B, ball.radius, X, L)
    if ball.positive_axes:
        A = -np.eye(ball.dim)[list(ball.positive_axes)]
        gk, gradk = _polytope_distance(A, np.zeros(len(A)), _dual_norms(A, metric), X)
        closer = gk < g
        g = np.where(closer, gk, g)
        grad[closer] = gradk[closer]
    return g, grad


def distance_batch(domain, weight: WeightSpec, X) -> WeightTable:
    """The weight g(x) as an (n, 1) column and its (n, d) gradient, for
    every point, evaluated once."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != domain.dim:
        raise DimensionMismatchError("points must be (n, d) matching domain")
    n, d = X.shape
    if isinstance(weight.metric, Mahalanobis) and len(weight.metric.sigma) != d:
        raise DimensionMismatchError(
            f"{len(weight.metric.sigma)}-dimensional metric on a {d}-dimensional domain")
    # a union's membership test labels each point with its component once
    label = _union_labels(domain, X) if isinstance(domain, DisjointUnion) else None
    inside = contains_batch(domain, X) if label is None else label >= 0
    if not np.all(inside):
        raise OutsideDomainError(f"point {int(np.argmin(inside))} is outside the domain")
    if weight.constant:
        return WeightTable(g=np.ones((n, 1)), dg=np.zeros((n, d), order="F"))
    g, grad = _raw_distance_batch(domain, weight.metric, X, label)
    if weight.cap is not None:
        c = weight.cap
        capped = c * g >= 1.0  # the kink itself takes the capped (zero-grad) branch
        g = np.where(capped, 1.0, c * g)
        grad = np.where(capped[:, None], 0.0, c * grad)
    return WeightTable(g=g[:, None], dg=np.asfortranarray(grad))


# ---------------------------------------------------------------------------
# bounding boxes


def bounding_box(domain) -> Box:
    if isinstance(domain, Box):
        return Box(domain.lower.copy(), domain.upper.copy())
    if isinstance(domain, Polygon):
        V = domain.vertices
        return Box(V.min(axis=0), V.max(axis=0))
    if isinstance(domain, MetricBall):
        half = np.full(domain.dim, domain.radius)
        if isinstance(domain.metric, Mahalanobis):
            half = domain.radius * np.sqrt(np.diag(domain.metric.sigma))
        lower = -half
        lower[list(domain.positive_axes)] = 0.0
        return Box(lower, half)
    if isinstance(domain, ConvexPolytope):
        return _polytope_bbox(domain)
    if isinstance(domain, DisjointUnion):
        boxes = [bounding_box(c) for c in domain.components]
        lower = np.min([b.lower for b in boxes], axis=0)
        upper = np.max([b.upper for b in boxes], axis=0)
        return Box(lower, upper)
    raise GeometryError(f"unknown domain type {type(domain).__name__}")


def _polytope_bbox(poly: ConvexPolytope) -> Box:
    d = poly.dim
    lower, upper = np.empty(d), np.empty(d)
    for k, c in enumerate(np.eye(d)):
        for sign, out in ((1.0, lower), (-1.0, upper)):
            res = linprog(sign * c, A_ub=poly.A, b_ub=-poly.b,
                          bounds=[(None, None)] * d, method="highs")
            if res.status == 3:
                raise UnboundedDomainError("polytope is unbounded")
            if not res.success:
                raise GeometryError(f"bounding-box LP failed: {res.message}")
            out[k] = sign * res.fun
    return Box(lower, upper)


# ---------------------------------------------------------------------------
# vertex templates for the boundary-scaling experiments


def template_domain(name: str, b: float):
    """The scalable truncation regions.

    "square": one square with corners at +-b.
    "disjoint": two rectangles that stay separated by a fixed middle gap.
    """
    if b <= 0:
        raise GeometryError("scale factor b must be positive")
    if name == "square":
        return Polygon([(-b, -b), (-b, b), (b, b), (b, -b)])
    if name == "disjoint":
        return DisjointUnion([
            Polygon([(1 - b, 0.5 - b), (1 - b, 0.5), (1 + b, 0.5), (1 + b, 0.5 - b)]),
            Polygon([(1 - b, 1.5), (1 - b, 1.5 + b), (1 + b, 1.5 + b), (1 + b, 1.5)])])
    raise GeometryError(f"unknown template {name!r}")


# ---------------------------------------------------------------------------
# file format: one vertex per line


def load_polygon(path) -> Polygon:
    """The polygon of a comma-separated 'x,y' file; blank and '#' lines are skipped."""
    verts = []
    with open(path) as fh:
        for line in map(str.strip, fh):
            if not line or line.startswith("#"):
                continue
            try:
                parts = [float(p) for p in line.split(",")]
            except ValueError:
                raise GeometryError(f"non-numeric line {line!r} in {path}") from None
            if len(parts) != 2:
                raise GeometryError(f"polygon line needs 'x,y': {line!r}")
            verts.append(parts)
    return Polygon(np.array(verts))


def unit_square() -> ConvexPolytope:
    return ConvexPolytope([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]],
                          [0.0, -1.0, 0.0, -1.0])


def hemi_l1_ball(d: int) -> ConvexPolytope:
    """{x : ||x||_1 < 1, x_d > 0} as a polytope with 2^(d-1)+1 facets."""
    if not 1 <= d <= 12:
        raise GeometryError(f"hemi_l1_ball takes 1 <= d <= 12 (2^(d-1)+1 facets), got d={d}")
    signs = 1.0 - 2.0 * (np.arange(2 ** (d - 1))[:, None] >> np.arange(d - 1) & 1)
    A = np.vstack([np.column_stack([signs, np.ones(len(signs))]),  # <s, x> < 1
                   np.append(np.zeros(d - 1), -1.0)])              # x_d > 0
    return ConvexPolytope(A, np.append(np.full(len(signs), -1.0), 0.0))
