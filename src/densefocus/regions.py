"""Density-guided region selection.

A density map is thresholded into a binary mask, the active pixels are
split by a fixed two-centroid k-means (centroids initialized at opposite
grid corners), and each cluster's bounding rectangle is filled to produce
the refined mask that ``dafm_forward`` pools into its agent bank.
Selection is a hard, non-differentiable routing decision: graph nodes are
rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .density import density_values
from .errors import InvalidArgumentError, UnsupportedOperationError
from .ops import require_finite


def _selection_map(m, who: str) -> np.ndarray:
    """``density_values(m)`` for a concrete map; a graph node is refused."""
    if isinstance(m, ad.Var):
        raise UnsupportedOperationError(f"{who}: region selection is not differentiable")
    return density_values(m)


def threshold_mask(density, mode: str = "quantile", value: float = 0.10) -> np.ndarray:
    """Binarize a density map into a [1,H,W] {0,1} float mask.

    mode="absolute": keep pixels with density >= value (value must be >= 0).
    mode="quantile": keep the top ceil(value * H * W) pixels by density,
    ties included, for value in (0, 1], but never a pixel whose density is
    not positive: a sparse map keeps only its support, and an all-zero map
    yields an empty mask.  A NaN or infinite density raises NumericError.
    """
    d = require_finite(_selection_map(density, "threshold_mask"), "threshold_mask")
    if mode == "absolute":
        if not (value >= 0.0 and math.isfinite(value)):
            raise InvalidArgumentError(f"threshold_mask: bad absolute threshold {value}")
        return (d >= value).astype(np.float64)
    if mode == "quantile":
        if not (0.0 < value <= 1.0):
            raise InvalidArgumentError(
                f"threshold_mask: quantile must be in (0, 1], got {value}")
        flat = d.reshape(-1)
        m = math.ceil(value * flat.size)
        tau = np.partition(flat, flat.size - m)[flat.size - m]
        return ((d >= tau) & (d > 0)).astype(np.float64)
    raise InvalidArgumentError(f"threshold_mask: unknown mode {mode!r}")


_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-6


def _squares(values, center):
    # Python's float ** 2 is libm pow, which rounds unlike numpy's square on some inputs.
    return np.array([(v - center) ** 2 for v in values.tolist()])


def _in_cluster2(pts, h: int, w: int) -> np.ndarray:
    """Lloyd iteration over an [N,2] float point array; True marks cluster 2."""
    if not len(pts):
        raise InvalidArgumentError("kmeans2: empty point set")
    rows, row_of = np.unique(pts[:, 0], return_inverse=True)
    cols, col_of = np.unique(pts[:, 1], return_inverse=True)
    cents = [(1.0, 1.0), (float(h), float(w))]
    for _ in range(_KMEANS_MAX_ITER):
        d1, d2 = (_squares(rows, r)[row_of] + _squares(cols, c)[col_of] for r, c in cents)
        in2 = ~(d1 <= d2)  # ties to cluster 1
        new = [tuple((pts[sel].sum(axis=0) / sel.sum()).tolist()) if sel.any() else old
               for sel, old in zip((~in2, in2), cents)]
        move = max(math.hypot(n[0] - o[0], n[1] - o[1]) for n, o in zip(new, cents))
        cents = new
        if move <= _KMEANS_TOL:
            break
    return in2


def kmeans2(points, h: int, w: int):
    """Two-cluster Lloyd iteration over (row, col) points on an h x w grid.

    Centroids start at the opposite corners (1,1) and (h,w) in the 1-based
    convention the points use.  Distance ties assign to cluster 1; an empty
    cluster keeps its centroid.  Returns a label (1 or 2) per point.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return np.where(_in_cluster2(pts, h, w), 2, 1).tolist()


@dataclass
class RegionSet:
    """Cluster bounding rectangles, stored 0-based inclusive
    (row_min, row_max, col_min, col_max)."""
    rectangles: list = field(default_factory=list)
    shape: tuple = (0, 0)

    def __post_init__(self):
        h, w = self.shape
        for rect in self.rectangles:
            r0, r1, c0, c1 = rect
            if not (0 <= r0 <= r1 < h and 0 <= c0 <= c1 < w):
                raise InvalidArgumentError(f"RegionSet: rectangle {rect} out of {h}x{w}")

    def to_json_dict(self) -> dict:
        """1-based inclusive bounds, matching the clustering convention."""
        return {
            "shape": [int(self.shape[0]), int(self.shape[1])],
            "rectangles": [
                {"row_min": r0 + 1, "row_max": r1 + 1,
                 "col_min": c0 + 1, "col_max": c1 + 1}
                for r0, r1, c0, c1 in self.rectangles
            ],
        }


def refine_mask(mask) -> tuple[np.ndarray, RegionSet]:
    """Replace a binary mask by the union of its two cluster rectangles.

    Active pixels are enumerated row-major, clustered as in :func:`kmeans2`
    (1-based coordinates), and each non-empty cluster contributes its
    bounding rectangle.  An empty mask maps to an empty mask and no regions.
    """
    m2 = _selection_map(mask, "refine_mask")[0]
    if not np.all((m2 == 0.0) | (m2 == 1.0)):
        raise InvalidArgumentError("refine_mask: mask entries must be 0 or 1")
    h, w = m2.shape

    rows, cols = np.nonzero(m2)
    if rows.size == 0:
        return np.zeros((1, h, w)), RegionSet([], (h, w))

    in2 = _in_cluster2(np.stack([rows + 1, cols + 1], axis=1).astype(np.float64), h, w)
    rectangles = [(int(rows[sel].min()), int(rows[sel].max()),
                   int(cols[sel].min()), int(cols[sel].max()))
                  for sel in (~in2, in2) if sel.any()]

    out = np.zeros((1, h, w))
    for r0, r1, c0, c1 in rectangles:
        out[0, r0:r1 + 1, c0:c1 + 1] = 1.0
    return out, RegionSet(rectangles, (h, w))
