"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately avoid the analytic shortcuts in the library: boundary
distance is computed by densely sampling the boundary and taking the minimum
pointwise distance, so agreement is evidence the closed forms are right.
"""

import numpy as np
from scipy.linalg import eigh


def polygon_boundary_samples(vertices, n_samples):
    """Points spread along the polygon perimeter, proportional to edge length."""
    V = np.asarray(vertices, dtype=float)
    T = len(V)
    edges = [(V[i], V[(i + 1) % T]) for i in range(T)]
    lengths = np.array([np.linalg.norm(b - a) for a, b in edges])
    total = lengths.sum()
    out = []
    for (a, b), L in zip(edges, lengths):
        m = max(2, int(round(n_samples * L / total)))
        t = np.linspace(0.0, 1.0, m, endpoint=False)[:, None]
        out.append(a + t * (b - a))
    return np.concatenate(out)


def brute_polygon_distance(vertices, x, n_samples=100_000):
    """Distance from the point x, or from each row of an (m, d) array x, to the
    sampled boundary; the samples are built once per call, so pass every
    point of a polygon in one call."""
    B = polygon_boundary_samples(vertices, n_samples)
    x = np.asarray(x, dtype=float)
    dist = [float(np.linalg.norm(B - p, axis=1).min()) for p in np.atleast_2d(x)]
    return dist[0] if x.ndim == 1 else np.array(dist)


# Reference forms of the polygon kernels in `truncsm.geometry`: one pass per edge
# or per pair of edges, over every point.  The library's kernels cull the pairs
# first and must still equal these bit for bit.


def loop_polygon_is_simple(V):
    """False if two non-adjacent edges meet by the orientation-sign test."""
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return int(np.sign(v))

    V = np.asarray(V, dtype=float)
    T = len(V)
    for i in range(T):
        p1, p2 = V[i], V[(i + 1) % T]
        for j in range(i + 1, T):
            if (j + 1) % T == i or (i + 1) % T == j:
                continue
            q1, q2 = V[j], V[(j + 1) % T]
            if (orient(p1, p2, q1) != orient(p1, p2, q2)
                    and orient(q1, q2, p1) != orient(q1, q2, p2)):
                return False
    return True


def loop_polygon_contains(V, X):
    """Even-odd ray test with the exact on-boundary exclusion, edge by edge."""
    T = len(V)
    x, y = X[:, 0], X[:, 1]
    inside = np.zeros(len(X), dtype=bool)
    on_boundary = np.zeros(len(X), dtype=bool)
    j = T - 1
    for i in range(T):
        px, py = V[i]
        qx, qy = V[j]
        ax, ay = qx - px, qy - py
        cross = ax * (y - py) - ay * (x - px)
        dot = (x - px) * ax + (y - py) * ay
        seg2 = ax * ax + ay * ay
        on_boundary |= (cross == 0.0) & (dot >= 0.0) & (dot <= seg2)
        crosses = ((py > y) != (qy > y))
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (qx - px) * (y - py) / (qy - py) + px
        inside ^= crosses & (x < xint)
        j = i
    return inside & ~on_boundary


def dense_polygon_distance(V, X):
    """Distance to the nearest edge and its gradient, from (n, T, 2) arrays of
    every point against every edge; ties go to the lowest-numbered edge."""
    P1 = V
    P2 = np.roll(V, -1, axis=0)
    edge = P1 - P2
    len2 = (edge ** 2).sum(axis=1)
    diff = X[:, None, :] - P2[None, :, :]
    alpha = np.clip(np.einsum("ntk,tk->nt", diff, edge) / len2, 0.0, 1.0)
    proj = alpha[:, :, None] * P1[None, :, :] + (1.0 - alpha)[:, :, None] * P2[None, :, :]
    dvec = X[:, None, :] - proj
    dist = np.linalg.norm(dvec, axis=2)
    tstar = np.argmin(dist, axis=1)
    idx = np.arange(len(X))
    g = dist[idx, tstar]
    n = dvec[idx, tstar]
    with np.errstate(invalid="ignore", divide="ignore"):
        grad = np.where(g[:, None] > 0.0, n / np.where(g[:, None] > 0, g[:, None], 1.0), 0.0)
    return g, grad


def polytope_facet_samples(A, b, rng, n_per_facet):
    """Sample points on each active facet of {Ax + b < 0} (3-D polytopes).

    For facet j, draw points in the facet plane around a feasible anchor and
    keep those satisfying the remaining inequalities; the union of kept
    samples covers the full boundary.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    d = A.shape[1]
    samples, labels = [], []
    for j in range(len(A)):
        a = A[j]
        na = np.linalg.norm(a)
        # orthonormal basis of the facet plane
        Q = np.linalg.qr(np.column_stack([a / na] + [rng.standard_normal(d)
                                                     for _ in range(d - 1)]))[0]
        basis = Q[:, 1:]
        anchor = -b[j] * a / na ** 2  # point on the hyperplane <a,x>+b=0
        local = rng.uniform(-10.0, 10.0, size=(n_per_facet, d - 1))
        P = anchor + local @ basis.T
        ok = np.all(P @ A.T + b <= 1e-9, axis=1)
        if ok.any():
            samples.append(P[ok])
            labels.append(np.full(int(ok.sum()), j))
    return np.concatenate(samples), np.concatenate(labels)


def brute_polytope_distance(A, b, X, rng, n_per_facet=40_000, refine=True):
    """Min distance from each row of X to sampled boundary, locally refined.

    The coarse pass finds the nearest sampled boundary point per facet; a
    fine pass resamples a shrinking neighborhood of each competitive facet's
    best point within that facet plane. On a flat facet the distance is
    convex in the facet coordinates, so local refinement converges to the
    true minimum; refining every facet close to the coarse optimum guards
    against the coarse pass picking the wrong facet.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    B, facet = polytope_facet_samples(A, b, rng, n_per_facet)
    norms = np.linalg.norm(A, axis=1)
    bases = []
    for j in range(len(A)):
        a = A[j]
        Q = np.linalg.qr(np.column_stack(
            [a / norms[j]] + [rng.standard_normal(len(a))
                              for _ in range(len(a) - 1)]))[0]
        bases.append(Q[:, 1:])
    X = np.atleast_2d(X)
    out = np.empty(len(X))
    for i, x in enumerate(X):
        dist = np.linalg.norm(B - x, axis=1)
        best = float(dist.min())
        if refine:
            for j in range(len(A)):
                on_j = facet == j
                if not on_j.any():
                    continue
                dj = dist[on_j]
                if dj.min() > 2.0 * best + 0.5:
                    continue
                z = B[on_j][int(dj.argmin())]
                width = 2.0
                for _ in range(12):
                    local = rng.uniform(-width, width, size=(4000, A.shape[1] - 1))
                    P = z + local @ bases[j].T
                    ok = np.all(P @ A.T + b <= 1e-9, axis=1)
                    if ok.any():
                        dd = np.linalg.norm(P[ok] - x, axis=1)
                        if dd.min() < best:
                            best = float(dd.min())
                        if dd.min() < np.linalg.norm(z - x):
                            z = P[ok][int(dd.argmin())]
                    width *= 0.5
        out[i] = best
    return out


def fd_gradient(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def ellipsoid_boundary_points(M, radius, U):
    """Map directions U (rows, any nonzero length) onto {z : z^T M z = radius^2}."""
    w, Q = np.linalg.eigh(M)
    U = U / np.linalg.norm(U, axis=1, keepdims=True)
    return radius * (U / np.sqrt(w)) @ Q.T


def brute_ellipsoid_distance(M, radius, x, rng, n_samples=200_000, rounds=60):
    """Min distance from x to the sampled ellipsoid boundary, locally refined.

    The coarse pass takes the nearest of n_samples boundary points; each
    refinement round perturbs the best direction within a shrinking width and
    keeps any nearer boundary point, so the result is always the distance to
    an actual boundary point.
    """
    x = np.asarray(x, dtype=float)
    U = rng.standard_normal((n_samples, len(x)))
    dist = np.linalg.norm(ellipsoid_boundary_points(M, radius, U) - x, axis=1)
    u, best = U[int(dist.argmin())], float(dist.min())
    width = 0.05
    for _ in range(rounds):
        U = u / np.linalg.norm(u) + width * rng.standard_normal((2000, len(x)))
        dist = np.linalg.norm(ellipsoid_boundary_points(M, radius, U) - x, axis=1)
        if dist.min() < best:
            u, best = U[int(dist.argmin())], float(dist.min())
        width *= 0.7
    return best


# The row-major (n, d) form of geometry._euclid_ellipsoid, kept as the
# reference its feature-major rewrite is checked against: the same cap,
# tolerance, bracket and hard-case rule.  A point whose solve ends at t = 1
# gets g = 0 and a NaN gradient here.
_ROWWISE_MAX_ITER, _ROWWISE_RTOL = 100, 16 * np.finfo(float).eps


def rowwise_ellipsoid_distance(M, radius, X):
    """Euclidean distance from interior points to {z : z^T M z = radius^2}.

    In the eigenbasis y = Q^T x of M (eigenvalues w, rho = w / max w), the
    nearest point is z = y / (1 - rho + t rho) with t in [0, 1) solving
    ||z||_M = ||c / (e + t)|| = radius, where c = sqrt(w) y / rho and
    e = 1 / rho - 1.  1 / ||z||_M is concave in t (More & Sorensen 1983), so
    batched Newton from the lower bound max(|c| / radius - e) rises to the
    root; bisection replaces a step that leaves the bracket.  Hard case
    (Eberly 2013; includes the centre): zero top-eigenspace coordinates and
    ||z(0)||_M <= radius give t = 0, with the remaining length placed on the
    first top eigenvector.
    """
    w, Q = eigh(0.5 * (M + M.T))
    rho = w / w.max()
    e = (1.0 - rho) / rho
    C = np.sqrt(w) / rho * (X @ Q)

    def m_norm(t):
        q = np.divide(C, e + t[:, None], out=np.zeros_like(C), where=C != 0.0)
        return q, np.linalg.norm(q, axis=1)

    t = np.maximum(0.0, np.max(np.abs(C) / radius - e, axis=1))
    q, N = m_norm(t)
    hard = (t == 0.0) & (N <= radius)
    lo, hi = t.copy(), np.ones_like(t)
    for _ in range(_ROWWISE_MAX_ITER):
        active = ~hard & (np.abs(N - radius) > _ROWWISE_RTOL * radius)
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            tn = t + N * N * (N - radius) / (radius * np.einsum("ij,ij->i", q, q / (e + t[:, None])))
        tn = np.where((lo <= tn) & (tn <= hi), tn, 0.5 * (lo + hi))
        t = np.where(active, tn, t)
        q, N = m_norm(t)
        lo = np.where(N >= radius, t, lo)
        hi = np.where(N < radius, t, hi)
    Z = q / np.sqrt(w)  # q = sqrt(w) z at the final t
    top = int(np.argmax(w))
    rest = radius ** 2 - np.sum(w * Z[hard] ** 2, axis=1)
    Z[hard, top] = np.sqrt(np.maximum(rest, 0.0) / w[top])
    dvec = -(1.0 - t)[:, None] * rho * Z  # y - z, parallel to M z
    g = np.linalg.norm(dvec, axis=1)
    return g, (dvec / g[:, None]) @ Q.T


# Model scales as (offset, spread, sigma2): unit spread at the origin;
# longitude/latitude scale (-66, 42) with sigma2 = 0.0064; spread 20
SCALES = {"unit": (0.0, 1.0, 1.0), "chicago": (np.array([-66.0, 42.0]), 0.08, 0.0064),
          "spread20": (0.0, 20.0, 1.0)}


def _dense_mixture(family, theta, X):
    """Responsibilities (n, K), log-sum-exp (n,) and differences x - mu_j
    (n, K, d) of an isotropic mixture, from the differences themselves."""
    theta = np.asarray(theta, dtype=float)
    X = np.asarray(X, dtype=float)
    diff = X[:, None, :] - theta.reshape(family.K, X.shape[1])[None, :, :]
    a = -0.5 * (diff ** 2).sum(axis=2) / family.sigma2
    amax = a.max(axis=1, keepdims=True)
    e = np.exp(a - amax)
    s = e.sum(axis=1, keepdims=True)
    return e / s, np.log(s[:, 0]) + amax[:, 0], diff


def dense_logp(family, theta, X):
    """log p (n,) and its per-sample theta-gradient (n, r), from the (n, K, d)
    differences: the reference for logp_batch and grad_logp_batch."""
    W, lse, diff = _dense_mixture(family, theta, X)
    d = diff.shape[2]
    lp = lse - 0.5 * d * np.log(2.0 * np.pi * family.sigma2) - np.log(family.K)
    # d log p / d mu_j = W_j (x - mu_j) / sigma2
    return lp, (W[:, :, None] * diff / family.sigma2).reshape(len(diff), family.r)


def dense_score(family, theta, X):
    """dl and d2l (n, d) from the (n, K, d) differences."""
    W, _, diff = _dense_mixture(family, theta, X)
    S = -diff / family.sigma2
    dl = np.einsum("nk,nkd->nd", W, S)
    return dl, np.einsum("nk,nkd->nd", W, S ** 2) - dl ** 2 - 1.0 / family.sigma2


def dense_score_jacobians(family, theta, X):
    """Per-sample (n, r, d) theta-Jacobians of dl and d2l, materialized in full.

    Reference for the family's vector-Jacobian products: contracting these
    with per-sample cotangents must give score_grad_batch.
    """
    W, _, diff = _dense_mixture(family, theta, X)
    n, _, d = diff.shape
    eye = np.eye(d)
    s2 = family.sigma2
    S = -diff / s2
    dl = np.einsum("nk,nkd->nd", W, S)
    sq = np.einsum("nk,nkd->nd", W, S ** 2)
    # d(dl_k)/d mu_{j,m} = -w_j S_{j,m} (S_{j,k} - dl_k) + w_j delta_{km}/sigma2
    WS = W[:, :, None] * S                                      # (n, K, m)
    dev = S[:, :, None, :] - dl[:, None, None, :]               # (n, K, 1, k)
    grad_dl = -WS[:, :, :, None] * dev + W[:, :, None, None] * eye / s2
    # d(sum_i w_i S_{i,k}^2)/d mu_{j,m}, then d2l = sq - dl^2 - 1/sigma2
    dev2 = S[:, :, None, :] ** 2 - sq[:, None, None, :]
    grad_sq = -WS[:, :, :, None] * dev2 + 2.0 * W[:, :, None, None] * S[:, :, None, :] * eye / s2
    grad_d2l = grad_sq - 2.0 * dl[:, None, None, :] * grad_dl
    return grad_dl.reshape(n, family.r, d), grad_d2l.reshape(n, family.r, d)
