"""Density-guided focused attention.

Instead of full pairwise attention over all H*W pixels, a small bank of
agent vectors mediates two sigmoid-gated stages: agents gather from all
pixels (forward stage), then pixels read back from the agents (backward
stage).  Cost is linear in the pixel count because the bank size is fixed:
:func:`dafm_forward` masks the features by the density-selected
rectangles, average-pools them to a grid of at most ``AGENT_GRID`` x
``AGENT_GRID`` cells at any image size and mixes channels with a 1x1 conv,
so there are at most 49 agents.  :func:`ifam_forward` holds both stages
and the agent-count rule.  Each stage is one ``gated_mix``, which builds
its gates one 64-row block at a time and recomputes them block by block in
the backward.  Stage 2 has one gate row per pixel, so its L x n gate matrix
is never held whole; stage 1 has one row per agent, so its whole [n, L]
gate matrix is one block.  Either way the memory is linear in the pixel
count too.  A local branch (depthwise conv, then 1x1 conv) is always
added, so an empty region selection degrades to exactly that branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .density import density_values
from .errors import InvalidArgumentError
from .ops import pool_output_extent, require_chw, require_finite
from .params import seeded_uniform
from .regions import RegionSet, refine_mask, threshold_mask

AGENT_GRID = 7


@dataclass
class IfamParams:
    """Projections and per-agent biases for the two attention stages.

    w_query/w_key/w_value are [d, C]; w_out is [C, d]; bias_fwd and
    bias_bwd hold one scalar per agent, broadcast across the other axis of
    their stage's score matrix.
    """
    w_query: object
    w_key: object
    w_value: object
    w_out: object
    bias_fwd: object
    bias_bwd: object


def ifam_params(channels: int, embed: int, n_agents: int, seed: int) -> IfamParams:
    """Seeded attention parameters; the output projection starts as the
    identity when the embedding width matches the channel count."""
    if min(channels, embed, n_agents) < 1:
        raise InvalidArgumentError(
            f"ifam_params: bad sizes C={channels} d={embed} n={n_agents}")
    if embed == channels:
        w_out = np.eye(channels)
    else:
        w_out = seeded_uniform(seed, "ifam.w_out", (channels, embed), embed)
    return IfamParams(
        w_query=seeded_uniform(seed, "ifam.w_query", (embed, channels), channels),
        w_key=seeded_uniform(seed, "ifam.w_key", (embed, channels), channels),
        w_value=seeded_uniform(seed, "ifam.w_value", (embed, channels), channels),
        w_out=w_out,
        bias_fwd=seeded_uniform(seed, "ifam.bias_fwd", (n_agents,), embed),
        bias_bwd=seeded_uniform(seed, "ifam.bias_bwd", (n_agents,), embed),
    )


def ifam_forward(x, bank_rows, params: IfamParams):
    """One two-stage attention pass of [C,H,W] features through an [n,C]
    agent bank.  With bank = bank_rows @ w_query^T and q, k, v the pixel
    rows projected by w_query, w_key and w_value:

      gathered = sigmoid(bank @ k^T / sqrt(d) + bias_fwd[:, None]) @ v  [n,d]
      y = sigmoid(q @ bank^T / sqrt(d) + bias_bwd[None, :]) @ gathered  [L,d]

    The agent-count rule: both biases, one scalar per agent (bias_fwd per
    score row, bias_bwd per score column), have shape (n,); else
    InvalidArgumentError.  Returns (y @ w_out^T [L,C], gathered)."""
    n = ad.shape_of(bank_rows)[0]
    if not ad.shape_of(params.bias_fwd) == ad.shape_of(params.bias_bwd) == (n,):
        raise InvalidArgumentError(
            f"ifam_forward: bias_fwd {ad.shape_of(params.bias_fwd)} and bias_bwd "
            f"{ad.shape_of(params.bias_bwd)} must both be one per agent, ({n},)")
    bank = ad.matmul(bank_rows, ad.transpose2d(params.w_query))
    rows = ad.chw_to_rows(x)
    q = ad.matmul(rows, ad.transpose2d(params.w_query))
    k = ad.matmul(rows, ad.transpose2d(params.w_key))
    v = ad.matmul(rows, ad.transpose2d(params.w_value))
    del rows  # the stages read only q, k and v: keep the [L,C] rows out of their peak
    gathered = ad.gated_mix(bank, k, ad.reshape(params.bias_fwd, (n, 1)), v)
    y_rows = ad.gated_mix(q, bank, ad.reshape(params.bias_bwd, (1, n)), gathered)
    return ad.matmul(y_rows, ad.transpose2d(params.w_out)), gathered


@dataclass
class DafmParams:
    """Bank mixer (1x1 conv), attention projections, and the local
    depthwise-separable branch."""
    bank_w: object
    bank_b: object
    ifam: IfamParams
    dw_w: object
    pw_w: object
    pw_b: object


def dafm_params(channels: int, embed: int, n_agents: int, seed: int,
                dw_kernel: int = 3) -> DafmParams:
    if dw_kernel < 1 or dw_kernel % 2 == 0:
        raise InvalidArgumentError(f"dafm_params: dw_kernel must be odd, got {dw_kernel}")
    return DafmParams(
        bank_w=seeded_uniform(seed, "dafm.bank_w", (channels, channels, 1, 1), channels),
        bank_b=seeded_uniform(seed, "dafm.bank_b", (channels,), channels),
        ifam=ifam_params(channels, embed, n_agents, seed),
        dw_w=seeded_uniform(seed, "dafm.dw_w", (channels, 1, dw_kernel, dw_kernel),
                            dw_kernel * dw_kernel),
        pw_w=seeded_uniform(seed, "dafm.pw_w", (channels, channels, 1, 1), channels),
        pw_b=seeded_uniform(seed, "dafm.pw_b", (channels,), channels),
    )


def bank_kernel(h: int, w: int) -> int:
    """Pool kernel that gives an H x W map at most AGENT_GRID cells a side."""
    if min(h, w) < 1:
        raise InvalidArgumentError(f"bank_kernel: bad size {h}x{w}")
    return pool_output_extent(max(h, w), AGENT_GRID)


def expected_agents(h: int, w: int) -> int:
    """Bank size produced by :func:`dafm_forward` for an H x W input."""
    k = bank_kernel(h, w)
    return pool_output_extent(h, k) * pool_output_extent(w, k)


@dataclass
class DafmIntermediates:
    raw_mask: np.ndarray
    refined_mask: np.ndarray
    regions: RegionSet
    bank: Optional[object] = None
    gathered: Optional[object] = None


def dafm_forward(x, density, params: DafmParams, thresh_mode: str = "quantile",
                 thresh_value: float = 0.10, return_intermediates: bool = False):
    """Full focused-attention block on [C,H,W] features.

    The density prior (any resolution) is resized to the feature grid,
    thresholded, and refined into cluster rectangles.  The bank is the
    masked features pooled by bank_kernel(H, W), then mixed by bank_w, so a
    cell wholly outside the rectangles is bank_b.  The two attention stages
    produce the global branch, added to the always-on local branch (dw_w
    depthwise, then pw_w 1x1).  With no selected regions the output is
    exactly the local branch.  A NaN or infinite density raises
    NumericError.  A graph-node density is read by value: the mask path is
    piecewise constant, so it has no gradient.
    """
    c, h, w = require_chw(ad.value_of(x, "dafm input"), "dafm input").shape

    d = require_finite(ad.value_of(density_values(density)), "dafm_forward")
    if d.shape[1:] != (h, w):
        d = ad.bilinear_resize(d, h, w)
    raw_mask = threshold_mask(d, thresh_mode, thresh_value)
    refined, regions = refine_mask(raw_mask)

    local = ad.conv2d(ad.depthwise_conv(x, params.dw_w), params.pw_w, params.pw_b, 1, 0)
    out, bank, gathered = local, None, None
    if regions.rectangles:
        bank = ad.conv2d(ad.avg_pool(ad.multiply(x, refined), bank_kernel(h, w)),
                         params.bank_w, params.bank_b, 1, 0)
        y_rows, gathered = ifam_forward(x, ad.chw_to_rows(bank), params.ifam)
        out = ad.add(ad.rows_to_chw(y_rows, (c, h, w)), local)
    if return_intermediates:
        return out, DafmIntermediates(raw_mask, refined, regions, bank, gathered)
    return out
