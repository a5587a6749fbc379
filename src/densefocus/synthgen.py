"""Deterministic synthetic scenes of clustered tiny rectangles.

All randomness flows through the library's SplitMix64 stream, so a seed
pins every pixel and annotation for one numpy build and CPU (see :mod:`.rng`).
Scenes mimic the dense-tiny regime: a few cluster centers, Gaussian scatter
of small boxes around each, unit-intensity rectangles on a noisy background.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .density import BBoxAnnotation
from .errors import InvalidArgumentError
from .evalkit import Detection
from .ops import zero_map
from .rng import Rng


@dataclass
class SceneSpec:
    width: int
    height: int
    n_clusters: int
    objects_per_cluster: tuple = (4, 10)
    object_size: tuple = (4, 16)
    cluster_spread: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvalidArgumentError(
                f"SceneSpec: bad extent {self.width}x{self.height}")
        if self.n_clusters < 0:
            raise InvalidArgumentError(
                f"SceneSpec: n_clusters must be >= 0, got {self.n_clusters}")
        lo, hi = self.objects_per_cluster
        if not (0 <= lo <= hi):
            raise InvalidArgumentError(
                f"SceneSpec: bad objects_per_cluster range {self.objects_per_cluster}")
        slo, shi = self.object_size
        if not (1 <= slo <= shi):
            raise InvalidArgumentError(
                f"SceneSpec: bad object_size range {self.object_size}")
        if not 0 <= self.cluster_spread < math.inf:
            raise InvalidArgumentError(
                f"SceneSpec: bad cluster_spread {self.cluster_spread}")
        if shi >= self.width or shi >= self.height:
            raise InvalidArgumentError(
                f"SceneSpec: objects up to {shi}px do not fit in "
                f"{self.width}x{self.height}")


NOISE_SIGMA = 0.05
_MAX_MAGNITUDE = sys.float_info.max / 2


def generate_scene(spec: SceneSpec, image_id: int = 1):
    """Render one scene.  Returns (image [1,H,W], annotations).

    Cluster centers are drawn uniformly inside a margin that keeps typical
    scatter interior; object boxes snap to integer pixel rectangles, are
    clamped fully inside the image, and are filled with intensity 1.0.
    Gaussian pixel noise (sigma 0.05) is added after all rectangles so the
    annotation stream does not depend on the image size.
    """
    rng = Rng(spec.seed)
    w, h = spec.width, spec.height
    size_lo, size_hi = spec.object_size
    margin = min(spec.cluster_spread + size_hi, (min(w, h) - 1) / 2.0)

    image = zero_map(h, w, "generate_scene")
    annotations: list[BBoxAnnotation] = []
    for _ in range(spec.n_clusters):
        ccx = rng.uniform(margin, w - 1 - margin)
        ccy = rng.uniform(margin, h - 1 - margin)
        count = rng.randint(spec.objects_per_cluster[0], spec.objects_per_cluster[1])
        for _ in range(count):
            ox = ccx + rng.normal(0.0, spec.cluster_spread)
            oy = ccy + rng.normal(0.0, spec.cluster_spread)
            bw = rng.randint(size_lo, size_hi)
            bh = rng.randint(size_lo, size_hi)
            # clamped before rounding, which gives the same integer for a
            # finite offset and keeps an overflowed (infinite) one in the image
            left = int(round(min(max(ox - bw / 2.0, 0), w - bw)))
            top = int(round(min(max(oy - bh / 2.0, 0), h - bh)))
            image[0, top:top + bh, left:left + bw] = 1.0
            annotations.append(BBoxAnnotation(
                image_id=image_id, category_id=1,
                cx=left + bw / 2.0, cy=top + bh / 2.0,
                width=float(bw), height=float(bh)))
    rows = max(1, 1024 // w)   # a few rows per draw: a whole-image one holds 2HW floats
    for i in range(0, h, rows):
        r = min(rows, h - i)
        image[0, i:i + r] += NOISE_SIGMA * rng.normals(r * w).reshape(r, w)
    return image, annotations


def perturb_detections(gts, jitter_px: float = 0.0, drop_rate: float = 0.0,
                       score_noise: float = 0.0, seed: int = 0):
    """Turn ground truth into imperfect detections.

    Per annotation, in fixed draw order: one drop draw (dropped annotations
    consume nothing further), four uniform jitter draws in [-jitter_px,
    +jitter_px] for center x/y and width/height, one uniform score-noise
    draw in [-score_noise, +score_noise].  The score starts at 1 minus the
    mean absolute jitter normalized by jitter_px, plus the noise, clamped
    to [0,1].  Extents are floored at 1 pixel.  A jitter_px that gives a box
    the evaluator cannot score raises InvalidArgumentError.
    """
    if not (0.0 <= drop_rate <= 1.0):
        raise InvalidArgumentError(f"perturb_detections: bad drop_rate {drop_rate}")
    for name, value in (("jitter_px", jitter_px), ("score_noise", score_noise)):
        # the span 2*value of a uniform draw must be finite too
        if not 0 <= value <= _MAX_MAGNITUDE:
            raise InvalidArgumentError(
                f"perturb_detections: {name} must be in [0, {_MAX_MAGNITUDE:g}], got {value!r}")
    rng = Rng(seed)
    dets: list[Detection] = []
    for gt in gts:
        if rng.random() < drop_rate:
            continue
        jitters = [rng.uniform(-jitter_px, jitter_px) for _ in range(4)]
        dx, dy, dw, dh = jitters
        noise = rng.uniform(-score_noise, score_noise)
        w = max(1.0, gt.width + dw)
        h = max(1.0, gt.height + dh)
        cx, cy = gt.cx + dx, gt.cy + dy
        penalty = 0.0
        if jitter_px > 0:
            penalty = sum(abs(j) for j in jitters) / (4.0 * jitter_px)
        score = min(1.0, max(0.0, 1.0 - penalty + noise))
        bbox = (cx - w / 2.0, cy - h / 2.0, w, h)
        try:
            dets.append(Detection(gt.image_id, gt.category_id, bbox, score))
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(
                f"perturb_detections: jitter_px {jitter_px!r}: {exc}") from None
    return dets
