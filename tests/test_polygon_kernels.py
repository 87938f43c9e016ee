"""The culled polygon kernels against their per-edge reference forms.

`geometry._check_simple`, `_polygon_contains_batch` and `_euclid_polygon` must
give the same decision, masks, distances and gradients, bit for bit, as the
loops in `oracles.py`, in both of their forms: the dense one below
`geometry._DENSE_MAX_T` vertices and the culled one from it on.
"""

import time

import numpy as np
import pytest

from truncsm import geometry, presets
from truncsm.geometry import GeometryError, Mahalanobis, Polygon, WeightSpec

from oracles import dense_polygon_distance, loop_polygon_contains, loop_polygon_is_simple

# the culled kernels take every polygon here under "culled", the dense ones under "dense"
FORMS = {"dense": 10 ** 9, "culled": 3}


@pytest.fixture(params=sorted(FORMS))
def form(request, monkeypatch):
    monkeypatch.setattr(geometry, "_DENSE_MAX_T", FORMS[request.param])
    return request.param


def star(T, seed, center=(-68.9, 41.8), radius=0.3):
    """Counterclockwise star with a three-lobed radius and 3% vertex jitter, the
    shape of the city benchmark's boundary."""
    rng = np.random.default_rng(seed)
    phi = 2.0 * np.pi * (np.arange(T) + 0.5 * rng.random(T)) / T
    r = radius * (1.0 + 0.15 * np.sin(3.0 * phi + rng.uniform(0.0, 2.0 * np.pi))) \
        * (1.0 + 0.03 * rng.uniform(-1.0, 1.0, T))
    return np.asarray(center) + np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def staircase(steps=12):
    """Rectilinear polygon: horizontal edges, integer vertices, many distance ties."""
    xs = np.repeat(np.arange(steps + 1), 2)[1:-1].astype(float)
    ys = np.repeat(np.arange(steps), 2).astype(float)
    V = np.vstack([np.column_stack([xs, ys]), [[steps, steps + 3.0], [0.0, steps + 3.0]]])
    return Polygon(V).vertices


def probes(V, rng, n_random=2000):
    """Every vertex and its 8 neighbours 1 ulp away, every float edge midpoint,
    points 1 ulp off each midpoint in x and in y, points level with each vertex on
    either side, a 33 x 33 lattice over the bounding box, and random points."""
    mids = 0.5 * (V + np.roll(V, -1, axis=0))
    step = 0.01 * np.ptp(V, axis=0)
    ulp = [np.column_stack([np.nextafter(V[:, 0], sx * np.inf), np.nextafter(V[:, 1], sy * np.inf)])
           for sx in (-1, 1) for sy in (-1, 1)]
    ulp += [np.column_stack([np.nextafter(V[:, k], s * np.inf) if k == axis else V[:, k]
                             for k in (0, 1)]) for axis in (0, 1) for s in (-1, 1)]
    lattice = V.min(axis=0) + np.ptp(V, axis=0) * np.stack(
        np.meshgrid(np.linspace(0, 1, 33), np.linspace(0, 1, 33)), axis=-1).reshape(-1, 2)
    return np.concatenate([
        V, *ulp, mids, lattice,
        np.column_stack([np.nextafter(mids[:, 0], np.inf), mids[:, 1]]),
        np.column_stack([np.nextafter(mids[:, 0], -np.inf), mids[:, 1]]),
        np.column_stack([mids[:, 0], np.nextafter(mids[:, 1], np.inf)]),
        np.column_stack([mids[:, 0], np.nextafter(mids[:, 1], -np.inf)]),
        V + step * [1.0, 0.0], V - step * [1.0, 0.0],
        V.min(axis=0) + np.ptp(V, axis=0) * rng.uniform(-0.05, 1.05, (n_random, 2)),
    ])


POLYGONS = {f"star T={T}": (lambda T=T: Polygon(star(T, T)).vertices)
            for T in (3, 4, 7, 50, 400, 1000)}
POLYGONS["preset"] = lambda: presets.default_polygon().vertices
POLYGONS["staircase"] = staircase


@pytest.mark.parametrize("case", sorted(POLYGONS))
def test_kernels_equal_reference_bit_for_bit(case, form):
    V = POLYGONS[case]()
    X = probes(V, np.random.default_rng(len(V)))
    inside = geometry._polygon_contains_batch(V, X)
    assert np.array_equal(inside, loop_polygon_contains(V, X))
    assert inside.any() and not inside.all()
    for Y in np.array_split(X[inside], -(-inside.sum() // 1000)):  # (1000, T, 2) at most
        g, grad = geometry._euclid_polygon(V, Y)
        g_ref, grad_ref = dense_polygon_distance(V, Y)
        assert np.array_equal(g, g_ref) and np.array_equal(grad, grad_ref)


def ulp_grid(V, k):
    """Every point within k ulps of a vertex in x and in y."""
    steps = np.arange(-k, k + 1)
    return np.concatenate([V + np.spacing(V) * (dx, dy) for dx in steps for dy in steps])


def unit_polygon(seed):
    """Random polygon of 3-5 vertices at unit scale, star-shaped around a shifted
    origin, so its edges span much of its coordinates' range."""
    rng = np.random.default_rng(seed)
    T = 3 + seed % 3
    phi = np.sort(rng.uniform(0.0, 2.0 * np.pi, T))
    V = rng.uniform(-1.0, 1.0, 2) + rng.uniform(0.5, 1.0, (T, 1)) * np.column_stack(
        [np.cos(phi), np.sin(phi)])
    return Polygon(V).vertices


# its far vertices have ulp-near points whose on-edge decision turns on the last
# bit of the squared edge lengths: libm pow and x * x differ there, so kernel and
# loop must square the same way (x * x, correctly rounded on every platform)
POW_WITNESS = [[0.4888307601229725, 0.24645150304013486], [-0.2560446325962844, -0.407565477884959],
               [-0.3778723346971694, -1.1100866283955177], [0.38964340569941236, -1.5644143624078586]]


def test_points_ulps_from_vertices_equal_reference(form):
    """On-boundary decisions at rounding level: an edge test can put a point
    just beyond the edge's y-range on the edge."""
    cases = [(Polygon(POW_WITNESS).vertices, 12)] + [(unit_polygon(s), 3) for s in range(30)]
    for V, k in cases:
        X = ulp_grid(V, k)
        assert np.array_equal(geometry._polygon_contains_batch(V, X), loop_polygon_contains(V, X))


@pytest.mark.parametrize("T", [7, 400])
def test_mahalanobis_mapped_polygon_equals_reference(T, form):
    """A Mahalanobis weight maps vertices and points through L: the mapped
    polygon's distances and the pulled-back gradient match the reference."""
    domain = Polygon(star(T, 3, center=(0.0, 0.0), radius=1.0))
    spec = WeightSpec(metric=Mahalanobis(np.array([[1.0, 0.6], [0.6, 0.8]])))
    L = spec.metric.transform
    X = probes(domain.vertices, np.random.default_rng(1))
    X = X[loop_polygon_contains(domain.vertices, X)]
    table = geometry.distance_batch(domain, spec, X)
    g_ref, grad_ref = dense_polygon_distance(domain.vertices @ L.T, X @ L.T)
    assert np.array_equal(table.g[:, 0], g_ref)
    assert np.array_equal(table.dg, grad_ref @ L)


# Simplicity decisions, before orientation: each vertex list against the loop's
SIMPLICITY = {
    "triangle": [(0, 0), (1, 0), (0, 1)],
    "collinear triangle": [(0, 0), (1, 1), (2, 2)],
    "bowtie": [(0, 0), (1, 1), (1, 0), (0, 1)],
    "collinear overlap": [(0, 0), (4, 0), (4, 1), (2, 1), (2, 0), (1, 0), (1, -1), (0, -1)],
    "touching vertex": [(0, 0), (4, 0), (4, 4), (2, 0.0), (0, 4)],
    "pinched": [(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)],
    "closing edge crosses": [(0, 0), (4, 0), (4, 4), (1, 4), (5, 2)],
    "square": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "star 400": star(400, 0).tolist(),
}


@pytest.mark.parametrize("case", sorted(SIMPLICITY))
def test_simplicity_decision_equals_reference(case):
    V = np.array(SIMPLICITY[case], dtype=float)
    try:
        geometry._check_simple(V)
        simple = True
    except GeometryError:
        simple = False
    assert simple == loop_polygon_is_simple(V)
    assert simple == (case in ("triangle", "collinear triangle", "square", "star 400"))


def test_far_apart_collinear_edges_are_not_a_crossing():
    """A triangle whose base is split at collinear points is simple.  The
    per-pair loop rejects it: the orientation signs of disjoint, nearly collinear
    edges are rounding noise.  Edges whose bounding boxes are disjoint are never
    tested."""
    base = [[-94.48817735138633, -187.60014209310808], [7.628662643855648, 13.183577942018857],
            [9.918737534611893, 17.68635883248217], [50.702621734961326, 97.87626666364443]]
    V = np.array(base + [[-60.0, 50.0]])
    assert not loop_polygon_is_simple(V)
    Polygon(V)


def test_scale_star_of_ten_thousand_vertices():
    """T = 10,000: build, membership of 500,000 points and distances for 10,000
    fit a budget the per-edge forms exceed by minutes; subsets match them."""
    V = star(10_000, 7, center=(0.0, 0.0), radius=1.0)
    X = np.random.default_rng(7).uniform(-1.3, 1.3, (500_000, 2))
    t0 = time.perf_counter()
    domain = Polygon(V)
    inside = geometry.contains_batch(domain, X)
    table = geometry.distance_batch(domain, WeightSpec(), X[inside][:10_000])
    assert time.perf_counter() - t0 < 15.0
    assert np.array_equal(inside[:1000], loop_polygon_contains(domain.vertices, X[:1000]))
    g_ref, grad_ref = dense_polygon_distance(domain.vertices, X[inside][:100])
    assert np.array_equal(table.g[:100, 0], g_ref) and np.array_equal(table.dg[:100], grad_ref)
