import numpy as np
import pytest
from scipy.stats import norm

from truncsm import data
from truncsm.data import (
    DataError,
    Dataset,
    clip_to_domain,
    load_points_csv,
    sample_gaussian_in_l1_hemiball,
    sample_truncated,
    sample_truncated_n,
)
from truncsm.geometry import Box, Polygon, contains_batch, hemi_l1_ball, unit_square
from truncsm.models import GaussianMean


def test_kept_fraction_matches_orthant_probability():
    fam = GaussianMean(2)
    n_gen = 10_000
    ds = sample_truncated(fam, np.array([0.5, 0.5]), unit_square(), n_gen, seed=0)
    p = (norm.cdf(0.5) - norm.cdf(-0.5)) ** 2  # ~0.1468
    se = np.sqrt(p * (1 - p) / n_gen)
    assert abs(ds.n / n_gen - p) < 3 * se
    assert ds.meta["n_generated"] == n_gen and ds.meta["n_kept"] == ds.n


def test_huge_box_keeps_everything():
    fam = GaussianMean(2)
    box = Box([-10.0, -10.0], [10.0, 10.0])
    ds = sample_truncated(fam, np.zeros(2), box, 5000, seed=1)
    assert ds.n == 5000


def test_sampling_deterministic():
    fam = GaussianMean(2)
    a = sample_truncated(fam, np.array([0.5, 0.5]), unit_square(), 2000, seed=7)
    b = sample_truncated(fam, np.array([0.5, 0.5]), unit_square(), 2000, seed=7)
    assert np.array_equal(a.points, b.points)


def test_sample_truncated_n_exact_count():
    fam = GaussianMean(2)
    ds = sample_truncated_n(fam, np.array([0.5, 0.5]), unit_square(), 1234, seed=0)
    assert ds.n == 1234
    assert np.all(contains_batch(unit_square(), ds.points))


def test_sample_validation():
    with pytest.raises(DataError):
        sample_truncated(GaussianMean(2), np.zeros(2), unit_square(), 0, seed=0)
    with pytest.raises(DataError):
        sample_truncated_n(GaussianMean(2), np.zeros(2), unit_square(), 0, seed=0)


def test_load_points_csv_skips_malformed(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("longitude,latitude\n-87.6,41.8\nbad,41.9\n-87.7,41.9\n")
    ds = load_points_csv(p, "longitude", "latitude")
    assert ds.n == 2
    assert ds.meta["skipped"] == 1
    assert ds.meta["projection"] == "equirectangular"


def test_load_points_csv_skips_non_finite(tmp_path):
    # float() parses both; one nan latitude would make lat0, and so every x, nan
    p = tmp_path / "pts.csv"
    p.write_text("longitude,latitude\n-87.6,41.8\n-87.65,nan\ninf,41.85\n-87.7,41.9\n")
    ds = load_points_csv(p, "longitude", "latitude")
    assert ds.n == 2
    assert ds.meta["skipped"] == 2
    assert ds.meta["lat0"] == pytest.approx(41.85)
    assert np.all(np.isfinite(ds.points))


def test_load_points_csv_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("longitude,latitude\n")
    with pytest.raises(DataError, match="zero valid rows"):
        load_points_csv(p, "longitude", "latitude")


def test_load_points_csv_missing_columns(tmp_path):
    p = tmp_path / "cols.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DataError):
        load_points_csv(p, "longitude", "latitude")


def test_clip_identity_when_inside():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.05, 0.95, size=(100, 2))
    ds = clip_to_domain(Dataset(points=pts), unit_square())
    assert ds.n == 100 and ds.meta["n_removed_by_clip"] == 0


def test_clip_vertex_point_removed():
    tri = Polygon([(0, 0), (1, 0), (0, 1)])
    pts = np.array([[0.0, 0.0], [0.2, 0.2]])
    ds = clip_to_domain(Dataset(points=pts), tri)
    assert ds.n == 1 and ds.meta["n_removed_by_clip"] == 1


def test_clip_half_in_half_out():
    pts = np.vstack([np.full((10, 2), 0.5), np.full((10, 2), 1.5)])
    ds = clip_to_domain(Dataset(points=pts), unit_square())
    assert ds.n == 10


def test_clip_all_removed_errors():
    with pytest.raises(DataError):
        clip_to_domain(Dataset(points=np.full((5, 2), 2.0)), unit_square())


def test_hemiball_sampler_inside_and_deterministic():
    for d in (2, 4, 8):
        ds = sample_gaussian_in_l1_hemiball(np.full(d, 0.5), 200, seed=0)
        assert ds.n == 200
        assert np.all(contains_batch(hemi_l1_ball(d), ds.points))
        again = sample_gaussian_in_l1_hemiball(np.full(d, 0.5), 200, seed=0)
        assert np.array_equal(ds.points, again.points)


def test_hemiball_sampler_is_bounded_for_a_far_mean():
    with pytest.raises(DataError, match=r"acceptance rate .* in 3 batches of 1000"):
        sample_gaussian_in_l1_hemiball(np.full(2, 1e6), 10, seed=0, max_batches=3)


def test_truncated_n_sampler_is_bounded_for_a_far_mean():
    with pytest.raises(DataError, match=r"acceptance rate .* in 3 batches of 1000"):
        sample_truncated_n(GaussianMean(2), np.full(2, 1e6), unit_square(), 10, seed=0,
                           batch=1000, max_batches=3)


def test_batch_samplers_repeat_points_and_meta_for_a_seed():
    draws = [lambda: sample_truncated_n(GaussianMean(2), np.array([0.5, 0.5]), unit_square(),
                                        300, seed=3, batch=100),
             lambda: sample_gaussian_in_l1_hemiball(np.full(3, 0.5), 300, seed=3)]
    for draw in draws:
        a, b = draw(), draw()
        assert np.array_equal(a.points, b.points) and a.meta == b.meta
        assert a.meta["n_kept"] == a.n == 300 and a.meta["seed"] == 3


def test_hemiball_sampler_matches_direct_rejection():
    # at d=2 direct rejection from the Gaussian is feasible; compare moments
    d = 2
    mean = np.full(d, 0.5)
    ds = sample_gaussian_in_l1_hemiball(mean, 20_000, seed=0)
    rng = np.random.default_rng(1)
    dom = hemi_l1_ball(d)
    direct = []
    while sum(len(a) for a in direct) < 20_000:
        Z = mean + rng.standard_normal((200_000, d))
        keep = contains_batch(dom, Z)
        direct.append(Z[keep])
    D = np.concatenate(direct)[:20_000]
    # mean within 4 combined standard errors per coordinate
    se = np.sqrt(ds.points.var(axis=0) / ds.n + D.var(axis=0) / len(D))
    assert np.all(np.abs(ds.points.mean(axis=0) - D.mean(axis=0)) < 4 * se)
    se2 = np.sqrt(ds.points.var(axis=0) ** 2 / ds.n + D.var(axis=0) ** 2 / len(D)) * np.sqrt(2)
    assert np.all(np.abs(ds.points.var(axis=0) - D.var(axis=0)) < 4 * se2)


def _hemiball_grid(d, steps):
    """Grid points of the closed hemi-l1-ball, spacing 2 / steps."""
    axes = [np.linspace(-1.0, 1.0, steps + 1)] * (d - 1) + [np.linspace(0.0, 1.0, steps // 2 + 1)]
    P = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, d)
    return P[np.abs(P).sum(axis=1) <= 1.0]


@pytest.mark.parametrize("d, steps, above", [(2, 1000, (0.6, 2.5)), (3, 100, (0.4, 0.4, 2.0))],
                         ids=["d2", "d3"])
def test_hemiball_sampler_bound_vs_grid(d, steps, above):
    # the rejection bound is the squared distance from the mean to the closed
    # hemi-ball; above the true minimum, acceptance probabilities exceed one
    P = _hemiball_grid(d, steps)
    h = 2.0 / steps
    inside = np.append(np.full(d - 1, 0.1), 0.3)
    beside = np.append(np.full(d - 1, 1.2), 0.4)     # outside the l1 ball, x_d > 0
    below = np.append(np.full(d - 1, 0.3), -0.8)     # x_d < 0
    deep = np.append(np.full(d - 1, -1.5), -2.0)
    above = np.array(above)                          # nearest point is the apex e_d
    for mean in (inside, beside, below, deep, above):
        bound = data._dist2_to_hemiball(mean)
        grid = float(((P - mean) ** 2).sum(axis=1).min())
        assert bound <= grid + 1e-12
        assert np.sqrt(grid) - np.sqrt(bound) <= 2.0 * h * np.sqrt(d)
    assert data._dist2_to_hemiball(inside) == 0.0
    apex = np.append(np.zeros(d - 1), 1.0)
    assert data._dist2_to_hemiball(above) == pytest.approx(((above - apex) ** 2).sum(), abs=1e-14)
