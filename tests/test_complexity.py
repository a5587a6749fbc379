"""MAC counts of the code that runs, against hand counts."""

import numpy as np
import pytest

import oracles
from densefocus import (Var, count_macs, dafm_forward, dafm_params, dffm_forward,
                        dffm_params, expected_agents, ifam_forward, ifam_params, ops)
from densefocus.params import seeded_uniform


def ifam_formula(h, w, c, d, n):
    # q/k/v projections (3 L·C·d) + bank projection (n·C·d) + stage 1
    # (2 n·L·d) + stage 2 (2 n·L·d) + output projection (L·d·C).
    length = h * w
    return 4 * length * c * d + n * c * d + 4 * n * length * d


def ifam_macs(h, w, c, d, n, seed=0):
    x = seeded_uniform(seed, "macs.ifam.x", (c, h, w), 1)
    bank_rows = seeded_uniform(seed, "macs.ifam.bank", (n, c), c)
    params = ifam_params(c, d, n, seed)
    with count_macs() as counter:
        ifam_forward(x, bank_rows, params)
    return counter.macs


def test_ifam_macs_match_hand_count():
    assert ifam_macs(64, 64, 32, 32, 100) == ifam_formula(64, 64, 32, 32, 100)
    assert ifam_macs(64, 64, 32, 32, 100) == 69_308_416
    assert ifam_macs(16, 16, 8, 4, 9) == ifam_formula(16, 16, 8, 4, 9)


def test_global_macs_match_hand_count():
    # global attention built from the library's ops at sizes small enough to
    # run; the 64x64 baseline is the hand count alone (a 4096 x 4096 matrix)
    for h, w, c, d in ((16, 16, 8, 4), (12, 20, 6, 10)):
        rows = seeded_uniform(1, "macs.global.rows", (h * w, c), 1)
        w_q, w_k, w_v = (seeded_uniform(1, f"macs.global.{n}", (c, d), c) for n in "qkv")
        w_o = seeded_uniform(1, "macs.global.o", (d, c), d)
        with count_macs() as counter:
            q, k, v = ops.matmul(rows, w_q), ops.matmul(rows, w_k), ops.matmul(rows, w_v)
            attn = ops.softmax(ops.matmul(q, k.T) / np.sqrt(d), axis=1)
            ops.matmul(ops.matmul(attn, v), w_o)
        assert counter.macs == oracles.global_attention_macs(h, w, c, d)
    assert oracles.global_attention_macs(64, 64, 32, 32) == 1_090_519_040


def test_focused_attention_is_far_cheaper():
    focused = ifam_macs(64, 64, 32, 32, 100)
    assert focused < 0.25 * oracles.global_attention_macs(64, 64, 32, 32)


def test_counts_are_deterministic():
    assert ifam_macs(32, 32, 8, 8, 25) == ifam_macs(32, 32, 8, 8, 25)


@pytest.mark.parametrize("forward", [
    lambda x, d: dffm_forward(x, d, dffm_params(8, (3, 6, 9), 1), (3, 6, 9)),
    lambda x, d: dafm_forward(x, d, dafm_params(8, 8, expected_agents(40, 40), 1)),
], ids=["dffm", "dafm"])
def test_mac_count_does_not_depend_on_input_type(forward):
    # a graph forward does the same multiply-adds as an inference forward
    x = seeded_uniform(1, "macs.x", (8, 40, 40), 4)
    d = abs(seeded_uniform(1, "macs.d", (1, 40, 40), 1))
    counts = []
    for inp in (x, Var(x)):
        with count_macs() as counter:
            forward(inp, d)
        counts.append(counter.macs)
    assert counts[0] == counts[1] > 0


def test_dafm_macs_per_pixel_stay_flat_from_32_to_256():
    # the agent bank is pooled to a 7x7 grid at every one of these sizes, so
    # the whole block, not only its attention pass, costs the same per pixel
    per_px = []
    for s in (32, 64, 128, 256):
        x = seeded_uniform(1, "macs.flat.x", (16, s, s), 16)
        d = np.zeros((1, s, s))
        d[0, s // 4:s // 2, s // 8:3 * s // 4] = 1.0
        with count_macs() as counter:
            dafm_forward(x, d, dafm_params(16, 16, expected_agents(s, s), 1))
        per_px.append(counter.macs / (s * s))
    assert max(per_px) <= 1.02 * min(per_px), per_px
