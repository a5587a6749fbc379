"""Measured multiply-accumulate costs for the attention variants.

These helpers run the real forward code under the op counter rather than
evaluating closed-form formulas, so the reported numbers are the work the
library actually performs.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .dafm import ifam_forward, ifam_params
from .errors import InvalidArgumentError
from .params import seeded_uniform


def measured_ifam_macs(h: int, w: int, channels: int, embed: int,
                       n_agents: int, seed: int = 0) -> int:
    """Multiply-adds of :func:`.dafm.ifam_forward`, the attention pass that
    ``dafm_forward`` runs, at the given size: pixel q/k/v projections, bank
    projection, both gated stages, and the output projection."""
    if min(h, w, channels, embed, n_agents) < 1:
        raise InvalidArgumentError("measured_ifam_macs: all sizes must be >= 1")
    x = seeded_uniform(seed, "complexity.map", (channels, h, w), 1)
    params = ifam_params(channels, embed, n_agents, seed)
    bank_rows = seeded_uniform(seed, "complexity.bank", (n_agents, channels), channels)
    with ops.count_macs() as counter:
        ifam_forward(x, bank_rows, params)
    return counter.macs


def measured_global_attention_macs(h: int, w: int, channels: int, embed: int,
                                   seed: int = 0) -> int:
    """Multiply-adds for a reference single-head global self-attention at
    the same size: q/k/v projections, the full L x L softmax attention, and
    the output projection."""
    if min(h, w, channels, embed) < 1:
        raise InvalidArgumentError("measured_global_attention_macs: sizes must be >= 1")
    x = seeded_uniform(seed, "complexity.map", (channels, h, w), 1)
    w_q = seeded_uniform(seed, "global.w_q", (embed, channels), channels)
    w_k = seeded_uniform(seed, "global.w_k", (embed, channels), channels)
    w_v = seeded_uniform(seed, "global.w_v", (embed, channels), channels)
    w_o = seeded_uniform(seed, "global.w_o", (channels, embed), embed)
    rows = np.ascontiguousarray(x.reshape(channels, h * w).T)
    with ops.count_macs() as counter:
        q = ops.matmul(rows, w_q.T)
        k = ops.matmul(rows, w_k.T)
        v = ops.matmul(rows, w_v.T)
        scores = ops.matmul(q, k.T) * (1.0 / np.sqrt(embed))
        attn = ops.softmax(scores, axis=1)
        out = ops.matmul(attn, v)
        ops.matmul(out, w_o.T)
    return counter.macs
