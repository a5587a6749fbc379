"""Dual-frequency feature fusion.

Each configured pooling kernel opens one path: the features are average-
pooled, split into low/high DCT bands by a density-derived sigmoid mask,
each band is enhanced (channel attention on the low band, spatial attention
on the high band), and a density-gated channel-affinity matrix recombines
them with the pooled features.  Paths are resized back and summed in a
fixed order with a plain 3x3 conv path, then mixed by a 1x1 conv.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import autodiff as ad
from .density import CalibParams, calib_params, calibrate_density, density_values
from .errors import InvalidArgumentError
from .ops import require_chw
from .params import seeded_uniform


@dataclass
class FrequencyPair:
    """Complementary DCT-domain components: low + high == dct2(source)."""
    low: object
    high: object


@dataclass
class EdhParams:
    """Per-path parameters: the mask projector, both attention blocks, and
    the two cross-frequency projectors."""
    mask_w: object
    mask_b: object
    ca_reduce: object
    ca_expand: object
    sa_w: object
    mix_high: object
    mix_low: object


def edh_params(channels: int, seed: int, tag: str = "0", ca_reduction: int = 4,
               sa_kernel: int = 7) -> EdhParams:
    if channels < 1:
        raise InvalidArgumentError(f"edh_params: channels must be >= 1, got {channels}")
    if sa_kernel < 1 or sa_kernel % 2 == 0:
        raise InvalidArgumentError(f"edh_params: sa_kernel must be odd, got {sa_kernel}")
    if ca_reduction < 1:
        raise InvalidArgumentError(
            f"edh_params: ca_reduction must be >= 1, got {ca_reduction}")
    mid = max(1, channels // ca_reduction)
    pre = f"edh{tag}."
    return EdhParams(
        mask_w=seeded_uniform(seed, pre + "mask_w", (1, channels, 1, 1), channels),
        mask_b=seeded_uniform(seed, pre + "mask_b", (1,), channels),
        ca_reduce=seeded_uniform(seed, pre + "ca_reduce", (mid, channels), channels),
        ca_expand=seeded_uniform(seed, pre + "ca_expand", (channels, mid), mid),
        sa_w=seeded_uniform(seed, pre + "sa_w", (1, 2, sa_kernel, sa_kernel),
                            2 * sa_kernel * sa_kernel),
        mix_high=seeded_uniform(seed, pre + "mix_high", (channels, channels), channels),
        mix_low=seeded_uniform(seed, pre + "mix_low", (channels, channels), channels),
    )


def frequency_masks(p, density, mask_w, mask_b):
    """Density-coupled band masks: M_low = sigmoid(1x1conv(P * D)),
    M_high = 1 - M_low (exact complement)."""
    p_shape = ad.shape_of(p)
    d_shape = ad.shape_of(density)
    if d_shape != (1,) + tuple(p_shape[1:]):
        raise InvalidArgumentError(
            f"frequency_masks: density shape {d_shape} does not match features {p_shape}")
    gated = ad.multiply(p, density)
    m_low = ad.sigmoid(ad.conv2d(gated, mask_w, mask_b, stride=1, pad=0))
    m_high = ad.subtract(1.0, m_low)
    return m_low, m_high


def frequency_split(f, m_low, m_high) -> FrequencyPair:
    """Split a feature map's DCT spectrum into complementary bands; the
    masks index frequency coordinates and broadcast over channels."""
    spectrum = ad.dct2(f)
    return FrequencyPair(low=ad.multiply(spectrum, m_low),
                         high=ad.multiply(spectrum, m_high))


def edh(freq: FrequencyPair, pooled, density_cal, params: EdhParams):
    """Enhance and recombine the two frequency bands.

    The low band (back in the spatial domain) passes channel attention, the
    high band spatial attention; a C x C affinity A = row-softmax of the
    density-gated cross product mixes the pooled features; the calibrated
    density is added back, broadcast over channels.
    """
    c, h, w = ad.shape_of(pooled)
    l = h * w
    f_low = ad.channel_attention(ad.idct2(freq.low), params.ca_reduce, params.ca_expand)
    f_high = ad.spatial_attention(ad.idct2(freq.high), params.sa_w)

    fl = ad.reshape(f_low, (c, l))
    fh = ad.reshape(f_high, (c, l))
    d_flat = ad.reshape(density_cal, (1, l))
    gated_high = ad.multiply(ad.matmul(params.mix_high, fh), d_flat)
    gated_low = ad.multiply(ad.matmul(params.mix_low, fl), ad.subtract(1.0, d_flat))
    affinity = ad.softmax(ad.matmul(gated_high, ad.transpose2d(gated_low)), axis=1)

    mixed = ad.reshape(ad.matmul(affinity, ad.reshape(pooled, (c, l))), (c, h, w))
    return ad.add(mixed, density_cal)


@dataclass
class DffmParams:
    """Calibration block, one EdhParams per pooled path, the 3x3 conv path,
    and the output 1x1 mixer."""
    calib: CalibParams
    paths: list
    conv_w: object
    conv_b: object
    out_w: object
    out_b: object


def dffm_params(channels: int, kernel_set: Sequence[int], seed: int,
                ca_reduction: int = 4, sa_kernel: int = 7) -> DffmParams:
    return DffmParams(
        calib=calib_params(seed),
        paths=[edh_params(channels, seed, tag=str(i), ca_reduction=ca_reduction,
                          sa_kernel=sa_kernel)
               for i in range(len(kernel_set))],
        conv_w=seeded_uniform(seed, "dffm.conv_w", (channels, channels, 3, 3),
                              channels * 9),
        conv_b=seeded_uniform(seed, "dffm.conv_b", (channels,), channels * 9),
        out_w=seeded_uniform(seed, "dffm.out_w", (channels, channels, 1, 1), channels),
        out_b=seeded_uniform(seed, "dffm.out_b", (channels,), channels),
    )


DEFAULT_KERNEL_SET = (3, 6, 9)


def dffm_forward(p, density, params: DffmParams,
                 kernel_set: Sequence[int] = DEFAULT_KERNEL_SET):
    """Multi-kernel dual-frequency fusion of [C,H,W] features.

    Per kernel k: avg_pool(P, k) -> band masks from the resized raw density
    -> frequency split -> band enhancement -> resize back to (H, W).  The
    resized paths, plus a 3x3 conv path, are summed in configuration order
    and mixed by a 1x1 conv; an empty kernel_set leaves the conv path only.
    A graph-node density gets gradient through P * D and the D, 1 - D gates.
    """
    _, h, w = require_chw(ad.value_of(p, "dffm input"), "dffm input").shape
    kernel_set = tuple(int(k) for k in kernel_set)
    for k in kernel_set:
        if k > min(h, w):
            raise InvalidArgumentError(
                f"dffm_forward: kernel {k} exceeds min extent {min(h, w)}")
    if len(params.paths) != len(kernel_set):
        raise InvalidArgumentError(
            f"dffm_forward: {len(params.paths)} path params for "
            f"{len(kernel_set)} kernels")

    d_raw = density_values(density)
    d_cal = calibrate_density(d_raw, params.calib)

    total = None
    for k, path in zip(kernel_set, params.paths):
        pooled = ad.avg_pool(p, k)
        _, ph, pw = ad.shape_of(pooled)
        d_k = ad.bilinear_resize(d_raw, ph, pw)
        dc_k = ad.bilinear_resize(d_cal, ph, pw)
        m_low, m_high = frequency_masks(pooled, d_k, path.mask_w, path.mask_b)
        pair = frequency_split(pooled, m_low, m_high)
        enhanced = edh(pair, pooled, dc_k, path)
        back = ad.bilinear_resize(enhanced, h, w)
        total = back if total is None else ad.add(total, back)

    conv_path = ad.conv2d(p, params.conv_w, params.conv_b, stride=1, pad=1)
    total = conv_path if total is None else ad.add(total, conv_path)
    return ad.conv2d(total, params.out_w, params.out_b, stride=1, pad=0)
