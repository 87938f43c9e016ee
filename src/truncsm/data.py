"""Dataset construction: synthetic truncated draws and point-CSV ingestion."""

from __future__ import annotations

import csv
import json
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
    if n_keep < 1:
        raise DataError("n_keep must be >= 1")
    rng = np.random.default_rng(seed)
    kept = []
    generated = 0
    total = 0
    for _ in range(max_batches):
        X = family.sample(theta_true, batch, rng)
        generated += batch
        mask = contains_batch(domain, X)
        if mask.any():
            kept.append(X[mask])
            total += int(mask.sum())
        if total >= n_keep:
            break
    else:
        raise DataError("retention rate too low to collect the requested sample")
    pts = np.concatenate(kept)[:n_keep]
    meta = {"seed": seed, "generator": type(family).__name__,
            "n_generated": generated, "n_kept": n_keep}
    return Dataset(points=pts, meta=meta)


def load_points_csv(path, lon_col: str, lat_col: str) -> Dataset:
    """Read (lon, lat) columns and project to planar coordinates.

    Equirectangular about the data centroid: x = lon * cos(lat0), y = lat.
    Rows with missing or non-numeric coordinates are skipped and counted.
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


def write_dataset(dataset: Dataset, path) -> None:
    """Points as CSV plus a JSON metadata sidecar."""
    path = Path(path)
    d = dataset.points.shape[1]
    header = ",".join(f"x{k}" for k in range(d))
    np.savetxt(path, dataset.points, delimiter=",", header=header,
               comments="", fmt="%.17g")
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    with open(sidecar, "w") as fh:
        json.dump(dataset.meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def read_dataset(path) -> Dataset:
    path = Path(path)
    pts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    meta = {}
    if sidecar.exists():
        with open(sidecar) as fh:
            meta = json.load(fh)
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
    rng = np.random.default_rng(seed)
    # the acceptance bound is the Gaussian density at the domain's closest
    # point to the mean; distance from mean to the closed hemi-ball
    m2 = _dist2_to_hemiball(mean)
    kept = []
    total = 0
    generated = 0
    batch = max(4 * n_keep, 1000)
    for _ in range(max_batches):
        U = _uniform_l1_ball(d, batch, rng)
        U[:, -1] = np.abs(U[:, -1])  # fold onto x_d > 0, still uniform
        generated += batch
        r2 = ((U - mean) ** 2).sum(axis=1)
        acc = rng.random(batch) < np.exp(-0.5 * (r2 - m2))
        interior = (np.abs(U).sum(axis=1) < 1.0) & (U[:, -1] > 0.0)
        mask = acc & interior
        if mask.any():
            kept.append(U[mask])
            total += int(mask.sum())
        if total >= n_keep:
            break
    else:
        raise DataError(f"acceptance rate {total / generated:.3g} too low to collect "
                        f"{n_keep} points in {max_batches} batches of {batch}")
    pts = np.concatenate(kept)[:n_keep]
    meta = {"seed": seed, "generator": "gaussian_l1_hemiball",
            "n_generated": generated, "n_kept": n_keep}
    return Dataset(points=pts, meta=meta)


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
