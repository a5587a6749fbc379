"""Density-map ground truth, the density loss, and the density branch.

The ground-truth prior places one isotropic Gaussian per annotated box,
sized by the box diagonal (sigma = half the diagonal), truncated at radius
ceil(3*sigma), and never renormalized, so each object contributes just
under unit mass.  Stamps are evaluated in object-local coordinates, which
makes integer translations of the input reproduce bit-identical maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .errors import InvalidArgumentError
from .ops import as_tensor, require_box, require_chw, zero_map
from .params import seeded_uniform


@dataclass
class BBoxAnnotation:
    """One ground-truth box, stored center-size in pixel coordinates."""
    image_id: int
    category_id: int
    cx: float
    cy: float
    width: float
    height: float
    score: Optional[float] = None

    def __post_init__(self):
        require_box(*self.to_xywh(), f"annotation (image {self.image_id})")

    @classmethod
    def from_xywh(cls, image_id, category_id, x, y, w, h, score=None):
        return cls(image_id, category_id, x + w / 2.0, y + h / 2.0, w, h, score)

    def to_xywh(self) -> tuple[float, float, float, float]:
        return (self.cx - self.width / 2.0, self.cy - self.height / 2.0,
                self.width, self.height)


@dataclass
class DensityMap:
    """A [1,H,W] non-negative map plus the count of annotations that were
    skipped because their center fell outside the grid."""
    values: np.ndarray
    skipped: int = 0

    def __post_init__(self):
        self.values = require_chw(as_tensor(self.values, "density values"), "density values")
        if self.values.shape[0] != 1:
            raise InvalidArgumentError(
                f"density map must be [1,H,W], got shape {self.values.shape}")

    def mass(self) -> float:
        return float(self.values.sum())


def density_values(d):
    """The one rule for density and mask inputs: a DensityMap, or a [1,H,W] or
    [H,W] array or graph node, as [1,H,W].  A graph node stays on the tape (an
    [H,W] one is lifted with ``ad.reshape``), so gradient reaches its producer."""
    if isinstance(d, DensityMap):
        return d.values
    arr = d if isinstance(d, ad.Var) else as_tensor(d, "map")
    if len(ad.shape_of(arr)) == 2:
        arr = ad.reshape(arr, (1,) + ad.shape_of(arr))
    shape = require_chw(ad.value_of(arr), "map").shape
    if shape[0] != 1:
        raise InvalidArgumentError(f"map must be [1,H,W] or [H,W], got shape {shape}")
    return arr


def object_sigma(width: float, height: float) -> float:
    """Gaussian scale for a box: half its diagonal."""
    return 0.5 * math.sqrt(width * width + height * height)


def gt_density(annotations: Sequence[BBoxAnnotation], height: int, width: int) -> DensityMap:
    """Render the ground-truth density prior for one image.

    Each annotation adds coef * exp(-(u^2+v^2) / (2 sigma^2)) over the pixel
    disk u^2+v^2 <= r^2 with r = ceil(3 sigma) and coef = 1/(2 pi sigma^2).
    Only the disk's window inside the image is evaluated, with r capped at
    width + height (no window pixel lies farther), so memory scales with the
    image, not the box.  Offsets come from the center's integer part, so an
    integer shift of every center shifts the map bit-exactly.
    """
    if height < 1 or width < 1:
        raise InvalidArgumentError(f"gt_density: bad extent {height}x{width}")
    out = zero_map(height, width, "gt_density")
    skipped = 0
    for ann in annotations:
        cx, cy = float(ann.cx), float(ann.cy)
        if not (0.0 <= cx <= width - 1 and 0.0 <= cy <= height - 1):
            skipped += 1
            continue
        sigma = object_sigma(ann.width, ann.height)
        r = math.ceil(min(3.0 * sigma, width + height))
        ax, ay = math.floor(cx), math.floor(cy)
        x_lo, x_hi = max(0, ax - r), min(width - 1, ax + r)
        y_lo, y_hi = max(0, ay - r), min(height - 1, ay + r)

        u = np.arange(x_lo - ax, x_hi - ax + 1, dtype=np.float64) - (cx - ax)
        v = np.arange(y_lo - ay, y_hi - ay + 1, dtype=np.float64) - (cy - ay)
        uu = u[None, :] ** 2
        vv = v[:, None] ** 2
        coef = 1.0 / (2.0 * math.pi * sigma * sigma)
        patch = coef * np.exp(-(uu + vv) / (2.0 * sigma * sigma))
        patch[uu + vv > r * r] = 0.0
        out[0, y_lo:y_hi + 1, x_lo:x_hi + 1] += patch
    return DensityMap(out, skipped)


# ---------------------------------------------------------------------------
# losses

def density_loss(pred, gt):
    """Mean squared error between two equal-shape density maps, each taken
    by :func:`density_values` ([1,H,W] or [H,W]).  Returns a scalar (0-d
    array, or Var when either side is a graph node)."""
    p, g = density_values(pred), density_values(gt)
    p_shape, g_shape = ad.shape_of(p), ad.shape_of(g)
    if p_shape != g_shape:
        raise InvalidArgumentError(
            f"density_loss: shape mismatch {p_shape} vs {g_shape}")
    diff = ad.subtract(p, g)
    return ad.mean_all(ad.multiply(diff, diff))


# ---------------------------------------------------------------------------
# density generation branch (strided encoder, upsampling decoder, regressor)

@dataclass
class DgbConfig:
    """``stages`` strided encoder stages, mirrored by as many decoder stages."""
    stages: int = 3
    base_channels: int = 8

    def __post_init__(self):
        if self.stages < 1:
            raise InvalidArgumentError(f"DgbConfig: stages must be >= 1, got {self.stages}")
        if self.base_channels < 1:
            raise InvalidArgumentError(
                f"DgbConfig: base_channels must be >= 1, got {self.base_channels}")


def dgb_channel_plan(cfg: DgbConfig, in_channels: int):
    """(enc_in, enc_out) and (dec_in, dec_out) channel ladders."""
    enc = []
    cur = in_channels
    for i in range(cfg.stages):
        nxt = cfg.base_channels * (2 ** i)
        enc.append((cur, nxt))
        cur = nxt
    dec = []
    for _ in range(cfg.stages):
        nxt = max(cfg.base_channels, cur // 2)
        dec.append((cur, nxt))
        cur = nxt
    return enc, dec


def dgb_params(cfg: DgbConfig, in_channels: int, seed: int) -> dict:
    """Name -> array mapping of the density branch, in layer order."""
    if in_channels < 1:
        raise InvalidArgumentError(f"dgb_params: in_channels must be >= 1, got {in_channels}")
    enc, dec = dgb_channel_plan(cfg, in_channels)
    layers = [(f"enc{i}", ci, co) for i, (ci, co) in enumerate(enc)]
    layers += [(f"dec{i}", ci, co) for i, (ci, co) in enumerate(dec)]
    layers.append(("reg", cfg.base_channels, 1))
    params = {}
    for name, ci, co in layers:
        params[f"{name}.w"] = seeded_uniform(seed, f"{name}.w", (co, ci, 3, 3), ci * 9)
        params[f"{name}.b"] = seeded_uniform(seed, f"{name}.b", (co,), ci * 9)
    return params


def dgb_forward(x, params, cfg: DgbConfig):
    """Predict a non-negative density map from [C,H,W] features.

    Encoder: strided 3x3 convs (stride 2, pad 1) + ReLU.
    Decoder: bilinear x2 upsample + 3x3 conv + ReLU per stage.
    Regressor: 3x3 conv to one channel + ReLU.
    H and W must be divisible by 2**stages.  Returns the [1,H,W] map: an
    array for concrete inputs, a graph node when differentiating.
    """
    _, h, w = require_chw(ad.value_of(x, "dgb input"), "dgb input").shape
    factor = 2 ** cfg.stages
    if h % factor or w % factor:
        raise InvalidArgumentError(
            f"dgb_forward: {h}x{w} not divisible by 2^{cfg.stages}")
    cur = x
    for i in range(cfg.stages):
        cur = ad.relu(ad.conv2d(cur, params[f"enc{i}.w"], params[f"enc{i}.b"],
                                stride=2, pad=1))
    for i in range(cfg.stages):
        shape = ad.shape_of(cur)
        cur = ad.bilinear_resize(cur, shape[1] * 2, shape[2] * 2)
        cur = ad.relu(ad.conv2d(cur, params[f"dec{i}.w"], params[f"dec{i}.b"],
                                stride=1, pad=1))
    return ad.relu(ad.conv2d(cur, params["reg.w"], params["reg.b"], stride=1, pad=1))


# ---------------------------------------------------------------------------
# density calibration: sigmoid(conv1x1(relu(conv3x3(D))))

@dataclass
class CalibParams:
    w1: object
    b1: object
    w2: object
    b2: object


def calib_params(seed: int, c_mid: int = 4) -> CalibParams:
    if c_mid < 1:
        raise InvalidArgumentError(f"calib_params: c_mid must be >= 1, got {c_mid}")
    return CalibParams(
        w1=seeded_uniform(seed, "calib.w1", (c_mid, 1, 3, 3), 9),
        b1=seeded_uniform(seed, "calib.b1", (c_mid,), 9),
        w2=seeded_uniform(seed, "calib.w2", (1, c_mid, 1, 1), c_mid),
        b2=seeded_uniform(seed, "calib.b2", (1,), c_mid),
    )


def calibrate_density(d, params: CalibParams):
    """Map a raw density prior to a calibrated (0,1) [1,H,W] map of the same
    size: an array for concrete inputs, a graph node otherwise."""
    hidden = ad.relu(ad.conv2d(density_values(d), params.w1, params.b1, stride=1, pad=1))
    return ad.sigmoid(ad.conv2d(hidden, params.w2, params.b2, stride=1, pad=0))
