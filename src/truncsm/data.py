"""Dataset construction: synthetic truncated draws and point-CSV ingestion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import contains_batch


class DataError(ValueError):
    pass


@dataclass
class Dataset:
    points: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return len(self.points)


def sample_truncated(family, theta_true, domain, n_generated: int, seed: int) -> Dataset:
    """Draw from the untruncated family, keep the points inside the domain."""
    if n_generated < 1:
        raise DataError("n_generated must be >= 1")
    rng = np.random.default_rng(seed)
    X = family.sample(theta_true, n_generated, rng)
    keep = contains_batch(domain, X)
    pts = X[keep]
    if len(pts) == 0:
        raise DataError("no generated points fell inside the domain")
    meta = {"seed": seed, "generator": type(family).__name__,
            "n_generated": int(n_generated), "n_kept": int(len(pts))}
    return Dataset(points=pts, meta=meta)


def sample_truncated_n(family, theta_true, domain, n_keep: int, seed: int,
                       batch: int = 20000, max_batches: int = 10000) -> Dataset:
    """Like sample_truncated but resamples until n_keep points are retained."""
    def draw(rng):
        X = family.sample(theta_true, batch, rng)
        return X, contains_batch(domain, X)

    return _collect(draw, n_keep, batch, max_batches, seed, type(family).__name__)


def _collect(draw, n_keep, batch, max_batches, seed, generator) -> Dataset:
    """Rows kept by draw(rng) -> (X, mask), batch after batch, until n_keep are
    collected; at most max_batches batches are drawn."""
    if n_keep < 1:
        raise DataError("n_keep must be >= 1")
    rng = np.random.default_rng(seed)
    kept, total, generated = [], 0, 0
    for _ in range(max_batches):
        X, mask = draw(rng)
        generated += batch
        kept.append(X[mask])
        total += len(kept[-1])
        if total >= n_keep:
            break
    else:
        raise DataError(f"acceptance rate {total / generated:.3g} too low to collect "
                        f"{n_keep} points in {max_batches} batches of {batch}")
    meta = {"seed": seed, "generator": generator, "n_generated": generated, "n_kept": n_keep}
    return Dataset(points=np.concatenate(kept)[:n_keep], meta=meta)


def load_points_csv(path, lon_col: str, lat_col: str) -> Dataset:
    """Read (lon, lat) columns and project to planar coordinates.

    Equirectangular about the data centroid: x = lon * cos(lat0), y = lat.
    Rows with missing, non-numeric or non-finite coordinates are skipped and
    counted.
    """
    path = Path(path)
    raw = []
    skipped = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or lon_col not in reader.fieldnames \
                or lat_col not in reader.fieldnames:
            raise DataError(f"columns {lon_col!r}/{lat_col!r} not found in {path}")
        for row in reader:
            try:
                lon = float(row[lon_col])
                lat = float(row[lat_col])
            except (TypeError, ValueError):
                skipped += 1
                continue
            if not (math.isfinite(lon) and math.isfinite(lat)):
                skipped += 1  # float() parses nan and inf
                continue
            raw.append((lon, lat))
    if not raw:
        raise DataError(f"zero valid rows in {path}")
    ll = np.array(raw)
    lat0 = float(ll[:, 1].mean())
    pts = np.column_stack([ll[:, 0] * math.cos(math.radians(lat0)), ll[:, 1]])
    meta = {"seed": None, "generator": f"csv:{path.name}", "skipped": skipped,
            "projection": "equirectangular", "lat0": lat0,
            "n_generated": len(raw) + skipped, "n_kept": len(raw)}
    return Dataset(points=pts, meta=meta)


def clip_to_domain(dataset: Dataset, domain) -> Dataset:
    keep = contains_batch(domain, dataset.points)
    pts = dataset.points[keep]
    if len(pts) == 0:
        raise DataError("all points removed by domain clipping")
    meta = dict(dataset.meta)
    meta["n_removed_by_clip"] = int((~keep).sum())
    meta["n_kept"] = int(len(pts))
    return Dataset(points=pts, meta=meta)


def sample_gaussian_in_l1_hemiball(mean, n_keep: int, seed: int,
                                   max_batches: int = 10000) -> Dataset:
    """Exact draws from N(mean, I) truncated to {||x||_1 < 1, x_d > 0}.

    Rejection with a uniform proposal on the hemi-ball; direct rejection from
    the Gaussian is hopeless in higher dimensions because the retention rate
    collapses.  A mean far from the domain accepts almost nothing, so at most
    max_batches proposal batches are drawn.
    """
    mean = np.asarray(mean, dtype=float)
    d = mean.size
    # the acceptance bound is the Gaussian density at the domain's closest
    # point to the mean; distance from mean to the closed hemi-ball
    m2 = _dist2_to_hemiball(mean)
    batch = max(4 * n_keep, 1000)

    def draw(rng):
        U = _uniform_l1_ball(d, batch, rng)
        U[:, -1] = np.abs(U[:, -1])  # fold onto x_d > 0, still uniform
        r2 = ((U - mean) ** 2).sum(axis=1)
        acc = rng.random(batch) < np.exp(-0.5 * (r2 - m2))
        interior = (np.abs(U).sum(axis=1) < 1.0) & (U[:, -1] > 0.0)
        return U, acc & interior

    return _collect(draw, n_keep, batch, max_batches, seed, "gaussian_l1_hemiball")


def _uniform_l1_ball(d: int, n: int, rng) -> np.ndarray:
    g = rng.standard_exponential((n, d))
    e = rng.standard_exponential(n)
    signs = rng.integers(0, 2, size=(n, d)) * 2 - 1
    return signs * g / (g.sum(axis=1) + e)[:, None]


def _dist2_to_hemiball(mean: np.ndarray) -> float:
    """Squared Euclidean distance from a point to the closed hemi-l1-ball.

    Clipping m_d at 0 and projecting onto the l1 ball gives the nearest point
    of the hemi-ball (m - m' lies in the normal cone of {z_d >= 0}); the
    projection is the sort-based soft threshold of Duchi et al. (ICML 2008).
    """
    clipped = mean.copy()
    clipped[-1] = max(clipped[-1], 0.0)
    a = np.abs(clipped)
    if a.sum() <= 1.0:
        proj = clipped
    else:
        u = np.sort(a)[::-1]
        css = np.cumsum(u) - 1.0
        rho = np.nonzero(u * np.arange(1, a.size + 1) > css)[0][-1]
        proj = np.sign(clipped) * np.maximum(a - css[rho] / (rho + 1), 0.0)
    return float(((mean - proj) ** 2).sum())
