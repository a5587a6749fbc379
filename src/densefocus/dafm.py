"""Density-guided focused attention.

Instead of full pairwise attention over all H*W pixels, a small bank of
agent vectors (pooled from the density-selected regions) mediates two
sigmoid-gated stages: agents gather from all pixels (forward stage), then
pixels read back from the agents (backward stage).  Cost is linear in the
pixel count because the bank size is fixed: the masked features are pooled
to a grid of at most ``AGENT_GRID`` x ``AGENT_GRID`` cells at any image
size, so there are at most 49 agents.  Each stage is one ``gated_mix``, which
builds its gates one fixed row block at a time and recomputes them block by
block in the backward, so no L x n gate matrix is ever held whole and the
memory is linear in the pixel count too.  A depthwise-separable local branch
is always added, so an empty region selection degrades to exactly that
branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .density import density_values
from .errors import InvalidArgumentError
from .ops import pool_output_extent, require_chw, require_finite
from .params import seeded_uniform
from .regions import RegionSet, focus_bank, refine_mask, threshold_mask

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

    @property
    def n_agents(self) -> int:
        return ad.shape_of(self.bias_fwd)[0]

    @property
    def embed(self) -> int:
        return ad.shape_of(self.w_query)[0]

    @property
    def channels(self) -> int:
        return ad.shape_of(self.w_query)[1]


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


def project_qkv(x, params: IfamParams):
    """Project a [C,H,W] map into per-pixel query/key/value rows [H*W, d]."""
    c = ad.shape_of(x)[0]
    if params.channels != c:
        raise InvalidArgumentError(
            f"project_qkv: params expect C={params.channels}, input has C={c}")
    rows = ad.chw_to_rows(x)
    q = ad.matmul(rows, ad.transpose2d(params.w_query))
    k = ad.matmul(rows, ad.transpose2d(params.w_key))
    v = ad.matmul(rows, ad.transpose2d(params.w_value))
    return q, k, v


def ifam_stage1(bank, keys, values, bias_fwd):
    """Agents gather from pixels: sigmoid(bank @ keys^T / sqrt(d) + b) @ values.

    bank is [n,d], keys/values are [L,d], bias_fwd is one scalar per agent
    added to that agent's whole score row.  Returns [n,d].
    """
    n, d = ad.shape_of(bank)
    ln, dk = ad.shape_of(keys)
    if dk != d or ad.shape_of(values) != (ln, d):
        raise InvalidArgumentError(
            f"ifam_stage1: incompatible shapes bank{(n, d)} keys{(ln, dk)} "
            f"values{ad.shape_of(values)}")
    if ad.shape_of(bias_fwd) != (n,):
        raise InvalidArgumentError(
            f"ifam_stage1: bias shape {ad.shape_of(bias_fwd)} != ({n},)")
    return ad.gated_mix(bank, keys, ad.reshape(bias_fwd, (n, 1)), values)


def ifam_stage2(queries, bank, gathered, bias_bwd):
    """Pixels read back from agents: sigmoid(Q @ bank^T / sqrt(d) + b) @ gathered.

    queries is [L,d], bank/gathered are [n,d], bias_bwd is one scalar per
    agent added to that agent's score column.  Returns [L,d].
    """
    ln, d = ad.shape_of(queries)
    n, db = ad.shape_of(bank)
    if db != d or ad.shape_of(gathered) != (n, d):
        raise InvalidArgumentError(
            f"ifam_stage2: incompatible shapes queries{(ln, d)} bank{(n, db)} "
            f"gathered{ad.shape_of(gathered)}")
    if ad.shape_of(bias_bwd) != (n,):
        raise InvalidArgumentError(
            f"ifam_stage2: bias shape {ad.shape_of(bias_bwd)} != ({n},)")
    return ad.gated_mix(queries, bank, ad.reshape(bias_bwd, (1, n)), gathered)


def ifam_forward(x, bank_rows, params: IfamParams):
    """One two-stage attention pass of [C,H,W] features through an [n,C]
    agent bank: bank and pixel projections, both gated stages and the
    output projection.  Returns (y_rows [H*W, C], gathered [n,d])."""
    bank = ad.matmul(bank_rows, ad.transpose2d(params.w_query))
    q, k, v = project_qkv(x, params)
    gathered = ifam_stage1(bank, k, v, params.bias_fwd)
    y_rows = ifam_stage2(q, bank, gathered, params.bias_bwd)
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
    thresholded, and refined into cluster rectangles.  Pixels inside the
    rectangles feed the agent bank; the two attention stages produce the
    global branch, added to the always-on depthwise local branch.  With no
    selected regions the output is exactly the local branch.  A NaN or
    infinite density raises NumericError.  A graph-node density is read by
    value: the mask path is piecewise constant, so it has no gradient.
    """
    c, h, w = require_chw(ad.value_of(x, "dafm input"), "dafm input").shape

    d = require_finite(ad.value_of(density_values(density)), "dafm_forward")
    if d.shape[1:] != (h, w):
        d = ad.bilinear_resize(d, h, w)
    raw_mask = threshold_mask(d, thresh_mode, thresh_value)
    refined, regions = refine_mask(raw_mask)

    local = ad.depthwise_separable_conv(x, params.dw_w, params.pw_w, params.pw_b)
    if not regions.rectangles:
        if return_intermediates:
            return local, DafmIntermediates(raw_mask, refined, regions)
        return local

    bank = focus_bank(x, refined, params.bank_w, params.bank_b, kernel=bank_kernel(h, w))
    n = math.prod(ad.shape_of(bank)[1:])
    if params.ifam.n_agents != n:
        raise InvalidArgumentError(
            f"dafm_forward: params built for {params.ifam.n_agents} agents, "
            f"input yields {n}")

    y_rows, gathered = ifam_forward(x, ad.chw_to_rows(bank), params.ifam)
    out = ad.add(ad.rows_to_chw(y_rows, (c, h, w)), local)
    if return_intermediates:
        return out, DafmIntermediates(raw_mask, refined, regions, bank, gathered)
    return out
