"""Density-guided region selection.

A density map is thresholded into a binary mask, the active pixels are
split by a fixed two-centroid k-means (centroids initialized at opposite
grid corners), and each cluster's bounding rectangle is filled to produce
the refined mask that gates the focused-attention stage.  Selection is a
hard, non-differentiable routing decision: graph nodes are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .density import density_values
from .errors import InvalidArgumentError, UnsupportedOperationError
from .ops import as_tensor


def threshold_mask(density, mode: str = "quantile", value: float = 0.10) -> np.ndarray:
    """Binarize a density map into a [1,H,W] {0,1} float mask.

    mode="absolute": keep pixels with density >= value (value must be >= 0).
    mode="quantile": keep the top ceil(value * H * W) pixels by density,
    ties included, for value in (0, 1].  An all-zero map yields an empty
    mask in quantile mode (there is nothing to rank).
    """
    if isinstance(density, ad.Var):
        raise UnsupportedOperationError(
            "threshold_mask: region selection is not differentiable")
    d = density_values(density)
    if mode == "absolute":
        if not (value >= 0.0 and math.isfinite(value)):
            raise InvalidArgumentError(f"threshold_mask: bad absolute threshold {value}")
        return (d >= value).astype(np.float64)
    if mode == "quantile":
        if not (0.0 < value <= 1.0):
            raise InvalidArgumentError(
                f"threshold_mask: quantile must be in (0, 1], got {value}")
        if not d.any():
            return np.zeros_like(d)
        flat = d.reshape(-1)
        m = math.ceil(value * flat.size)
        tau = np.partition(flat, flat.size - m)[flat.size - m]
        return (d >= tau).astype(np.float64)
    raise InvalidArgumentError(f"threshold_mask: unknown mode {mode!r}")


def kmeans2(points, h: int, w: int, max_iter: int = 100, tol: float = 1e-6):
    """Two-cluster Lloyd iteration over (row, col) points on an h x w grid.

    Centroids start at the opposite corners (1,1) and (h,w) in the 1-based
    convention the points use.  Distance ties assign to cluster 1; an empty
    cluster keeps its centroid.  Returns a label (1 or 2) per point.
    """
    pts = [(float(r), float(c)) for r, c in points]
    if not pts:
        raise InvalidArgumentError("kmeans2: empty point set")
    c1 = (1.0, 1.0)
    c2 = (float(h), float(w))
    labels = [1] * len(pts)
    for _ in range(max_iter):
        for i, (r, c) in enumerate(pts):
            d1 = (r - c1[0]) ** 2 + (c - c1[1]) ** 2
            d2 = (r - c2[0]) ** 2 + (c - c2[1]) ** 2
            labels[i] = 1 if d1 <= d2 else 2
        sums = {1: [0.0, 0.0, 0], 2: [0.0, 0.0, 0]}
        for (r, c), lab in zip(pts, labels):
            acc = sums[lab]
            acc[0] += r
            acc[1] += c
            acc[2] += 1
        new1 = (sums[1][0] / sums[1][2], sums[1][1] / sums[1][2]) if sums[1][2] else c1
        new2 = (sums[2][0] / sums[2][2], sums[2][1] / sums[2][2]) if sums[2][2] else c2
        move = max(math.hypot(new1[0] - c1[0], new1[1] - c1[1]),
                   math.hypot(new2[0] - c2[0], new2[1] - c2[1]))
        c1, c2 = new1, new2
        if move <= tol:
            break
    return labels


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

    Active pixels are enumerated row-major, clustered with :func:`kmeans2`
    (1-based coordinates), and each non-empty cluster contributes its
    bounding rectangle.  An empty mask maps to an empty mask and no regions.
    """
    m = as_tensor(mask, "mask")
    if m.ndim == 3:
        if m.shape[0] != 1:
            raise InvalidArgumentError(f"refine_mask: mask must be [1,H,W], got {m.shape}")
        m2 = m[0]
    elif m.ndim == 2:
        m2 = m
    else:
        raise InvalidArgumentError(f"refine_mask: bad mask rank {m.ndim}")
    if not np.all((m2 == 0.0) | (m2 == 1.0)):
        raise InvalidArgumentError("refine_mask: mask entries must be 0 or 1")
    h, w = m2.shape

    rows, cols = np.nonzero(m2)
    if rows.size == 0:
        return np.zeros((1, h, w)), RegionSet([], (h, w))

    points = [(int(r) + 1, int(c) + 1) for r, c in zip(rows, cols)]
    labels = kmeans2(points, h, w)

    rectangles = []
    for lab in (1, 2):
        member_rows = [p[0] for p, l in zip(points, labels) if l == lab]
        member_cols = [p[1] for p, l in zip(points, labels) if l == lab]
        if not member_rows:
            continue
        rectangles.append((min(member_rows) - 1, max(member_rows) - 1,
                           min(member_cols) - 1, max(member_cols) - 1))

    out = np.zeros((1, h, w))
    for r0, r1, c0, c1 in rectangles:
        out[0, r0:r1 + 1, c0:c1 + 1] = 1.0
    return out, RegionSet(rectangles, (h, w))


def focus_bank(x, mask, weight, bias, kernel: int = 7):
    """Pool the masked feature map into a coarse agent bank.

    The refined mask gates the features, a kernel x kernel average pool
    (stride = kernel) coarsens them to ceil(H/kernel) x ceil(W/kernel), and
    a 1x1 conv mixes channels.  Cells whose window lies fully outside the
    rectangles are exactly zero before the conv bias.
    """
    if isinstance(mask, ad.Var):
        raise UnsupportedOperationError("focus_bank: mask must be a concrete array")
    xv = ad.value_of(x, "focus input")
    mv = as_tensor(mask, "focus mask")
    if mv.ndim == 2:
        mv = mv[None]
    if mv.shape != (1,) + xv.shape[1:]:
        raise InvalidArgumentError(
            f"focus_bank: mask shape {mv.shape} does not match features {xv.shape}")
    if kernel < 1:
        raise InvalidArgumentError(f"focus_bank: kernel must be >= 1, got {kernel}")
    masked = ad.multiply(x, mv)
    pooled = ad.avg_pool(masked, kernel, kernel)
    return ad.conv2d(pooled, weight, bias, stride=1, pad=0)
