"""Truncated-density estimation by boundary-distance-weighted score matching."""

from .baselines import (
    NormalizerEstimate,
    estimate_log_z,
    fit_mle_untruncated,
    fit_rjmle,
    make_normalizer,
)
from .data import (
    DataError,
    Dataset,
    clip_to_domain,
    load_points_csv,
    sample_truncated,
    sample_truncated_n,
)
from .estimator import (
    EstimatorError,
    FitOptions,
    FitReport,
    fh_divergence,
    fit,
    ibp_identity_check,
    match_centers,
)
from .geometry import (
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
    UnboundedDomainError,
    UnsupportedPairingError,
    WeightSpec,
    WeightTable,
    bounding_box,
    contains_batch,
    distance_batch,
    hemi_l1_ball,
    load_polygon,
    template_domain,
    unit_square,
)
from .models import GaussianMean, IsotropicGMM
from .optim import MinimizeResult, minimize_qn

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
