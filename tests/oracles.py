"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately avoid the analytic shortcuts in the library: boundary
distance is computed by densely sampling the boundary and taking the minimum
pointwise distance, so agreement is evidence the closed forms are right.
"""

import numpy as np


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
    B = polygon_boundary_samples(vertices, n_samples)
    return float(np.linalg.norm(B - np.asarray(x), axis=1).min())


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


def dense_score_jacobians(family, theta, X):
    """Per-sample (n, r, d) theta-Jacobians of dl and d2l, materialized in full.

    Reference for the families' O(n K d) vector-Jacobian products: contracting
    these with per-sample cotangents must give score_grad_batch.
    """
    theta = np.asarray(theta, dtype=float)
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    eye = np.eye(d)
    if not hasattr(family, "K"):  # GaussianMean: dl = theta - x, d2l = -1
        return np.broadcast_to(eye, (n, d, d)).copy(), np.zeros((n, d, d))
    s2 = family.sigma2
    W = family.responsibilities(theta, X)                       # (n, K)
    S = (theta.reshape(family.K, d)[None, :, :] - X[:, None, :]) / s2
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
