"""Focused attention: agent bank projections, the two gated stages, and the
full block with its density-driven routing."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from densefocus import autodiff as ad
from densefocus import ops
from densefocus.dafm import (
    AGENT_GRID, DafmParams, IfamParams, dafm_forward, dafm_params, expected_agents,
    ifam_forward, ifam_params,
)
from densefocus.errors import InvalidArgumentError, NumericError
from densefocus.params import seeded_uniform
from densefocus.regions import refine_mask, threshold_mask

import oracles


def u(seed, name, shape, fan=4):
    return seeded_uniform(seed, name, shape, fan)


# ---------------------------------------------------------------------------
# sizing helpers and parameter construction

def test_expected_agents():
    # the bank kernel is ceil(max(H, W) / 7), so every side has at most 7 cells
    assert expected_agents(7, 7) == 49
    assert expected_agents(8, 8) == 16
    assert expected_agents(14, 14) == 49
    assert expected_agents(16, 16) == 36
    assert expected_agents(36, 36) == 36
    assert expected_agents(8, 3) == 8
    for s in (32, 64, 112, 128, 256):
        assert expected_agents(s, s) == 49


def test_expected_agents_is_at_most_the_grid():
    for h in range(1, 301):
        for w in range(1, 301):
            assert expected_agents(h, w) <= AGENT_GRID ** 2, (h, w)


def test_expected_agents_rejects_non_positive_size():
    for h, w in ((0, 8), (8, 0), (-1, 8)):
        with pytest.raises(InvalidArgumentError, match="bad size"):
            expected_agents(h, w)


def test_ifam_params_shapes_and_identity_out():
    p = ifam_params(channels=6, embed=6, n_agents=3, seed=2)
    assert p.w_query.shape == (6, 6)
    assert np.array_equal(p.w_out, np.eye(6))
    assert p.w_key.shape == p.w_value.shape == (6, 6)
    assert p.bias_fwd.shape == p.bias_bwd.shape == (3,)
    q = ifam_params(channels=6, embed=4, n_agents=3, seed=2)
    assert q.w_out.shape == (6, 4)
    assert not np.array_equal(q.w_out, np.eye(6, 4))
    with pytest.raises(InvalidArgumentError):
        ifam_params(0, 4, 3, seed=2)
    with pytest.raises(InvalidArgumentError):
        ifam_params(4, 4, 0, seed=2)


def test_dafm_params_validation():
    p = dafm_params(channels=4, embed=3, n_agents=5, seed=1)
    assert p.bank_w.shape == (4, 4, 1, 1)
    assert p.dw_w.shape == (4, 1, 3, 3)
    assert p.ifam.bias_fwd.shape == p.ifam.bias_bwd.shape == (5,)
    with pytest.raises(InvalidArgumentError):
        dafm_params(4, 3, 5, seed=1, dw_kernel=4)
    with pytest.raises(InvalidArgumentError):
        dafm_params(4, 3, 5, seed=1, dw_kernel=0)


# ---------------------------------------------------------------------------
# the attention pass

def ifam_point(seed=3):
    """Params, [C,H,W] features and [n,C] bank rows with n=4, L=6, d=2 and
    C=3 all different, so a bias read along the wrong axis cannot broadcast."""
    params = ifam_params(channels=3, embed=2, n_agents=4, seed=seed)
    return params, u(seed, "if.x", (3, 2, 3)), u(seed, "if.bank", (4, 3))


def test_ifam_forward_matches_hand():
    p, x, bank_rows = ifam_point()
    y_rows, gathered = ifam_forward(x, bank_rows, p)
    rows = x.reshape(3, 6).T
    bank = bank_rows @ p.w_query.T
    q, k, v = rows @ p.w_query.T, rows @ p.w_key.T, rows @ p.w_value.T
    g_ref = oracles.hand_sigmoid(bank @ k.T / math.sqrt(2) + p.bias_fwd[:, None]) @ v
    y_ref = oracles.hand_sigmoid(q @ bank.T / math.sqrt(2) + p.bias_bwd[None, :]) @ g_ref
    assert gathered.shape == (4, 2) and y_rows.shape == (6, 3)
    assert np.allclose(gathered, g_ref, rtol=1e-13, atol=1e-15)
    assert np.allclose(y_rows, y_ref @ p.w_out.T, rtol=1e-13, atol=1e-15)


def test_ifam_forward_validation():
    p, x, bank_rows = ifam_point()
    # matmul owns the channel rule: the pixel rows meet w_query^T
    with pytest.raises(InvalidArgumentError, match="inner dims differ"):
        ifam_forward(x[:2], bank_rows, p)
    for name in ("bias_fwd", "bias_bwd"):
        short = dataclasses.replace(p, **{name: getattr(p, name)[:3]})
        with pytest.raises(InvalidArgumentError, match=r"both be one per agent, \(4,\)"):
            ifam_forward(x, bank_rows, short)


def test_project_qkv_matches_matmul():
    # q, k and v are projected pixel by pixel, in row-major pixel order, by
    # w_query, w_key and w_value; the bank rows are projected by w_query
    p, x, bank_rows = ifam_point()
    y_rows, gathered = ifam_forward(x, bank_rows, p)
    pix = [x[:, i, j] for i in range(2) for j in range(3)]
    q, k, v = (np.array([w @ px for px in pix]) for w in (p.w_query, p.w_key, p.w_value))
    bank = np.array([p.w_query @ b for b in bank_rows])
    g_ref = oracles.hand_sigmoid(bank @ k.T / math.sqrt(2) + p.bias_fwd[:, None]) @ v
    y_ref = oracles.hand_sigmoid(q @ bank.T / math.sqrt(2) + p.bias_bwd[None, :]) @ g_ref
    assert np.allclose(gathered, g_ref, rtol=1e-13, atol=1e-15)
    assert np.allclose(y_rows, y_ref @ p.w_out.T, rtol=1e-13, atol=1e-15)
    with pytest.raises(InvalidArgumentError):
        ifam_forward(np.zeros((2, 4, 5)), bank_rows, p)


def test_ifam_stage1_matches_hand():
    # stage 1 alone: n=2 agents gather from L=5 pixels with d=3, bias per agent row
    c, n, ln, d = 4, 2, 5, 3
    p = ifam_params(channels=c, embed=d, n_agents=n, seed=4)
    x, bank_rows = u(4, "s1.x", (c, 1, ln)), u(4, "s1.bank", (n, c))
    _, got = ifam_forward(x, bank_rows, p)
    rows = x.reshape(c, ln).T
    bank, keys, values = bank_rows @ p.w_query.T, rows @ p.w_key.T, rows @ p.w_value.T
    scores = bank @ keys.T / math.sqrt(d) + p.bias_fwd[:, None]
    ref = oracles.hand_sigmoid(scores) @ values
    assert got.shape == (n, d)
    assert np.allclose(got, ref, rtol=1e-13, atol=1e-15)


def test_ifam_stage2_matches_hand():
    # stage 2 alone, fed the gathered rows ifam_forward returns: L=6 pixels
    # read n=3 agents with d=2, bias per agent column
    c, n, ln, d = 5, 3, 6, 2
    p = ifam_params(channels=c, embed=d, n_agents=n, seed=5)
    x, bank_rows = u(5, "s2.x", (c, 2, 3)), u(5, "s2.bank", (n, c))
    y_rows, gathered = ifam_forward(x, bank_rows, p)
    queries = x.reshape(c, ln).T @ p.w_query.T
    bank = bank_rows @ p.w_query.T
    scores = queries @ bank.T / math.sqrt(d) + p.bias_bwd[None, :]
    ref = oracles.hand_sigmoid(scores) @ gathered
    assert y_rows.shape == (ln, c)
    assert np.allclose(y_rows, ref @ p.w_out.T, rtol=1e-13, atol=1e-15)


def test_ifam_forward_peak_is_qkv_and_one_gate_block():
    # the peak falls in stage 1, whose left operand is the n-row bank, so its
    # one gate block is [n, L]; q, k, v and gated_mix's copy of k^T are alive
    # beside it, and the [L,C] pixel rows they were projected from are not
    c, s, n = 16, 128, 49
    p = ifam_params(channels=c, embed=c, n_agents=n, seed=4)
    x, bank_rows = u(4, "ifm.x", (c, s, s)), u(4, "ifm.bank", (n, c))
    tracemalloc.start()
    try:
        ifam_forward(x, bank_rows, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * (4 * c + n) * s * s * 8


# ---------------------------------------------------------------------------
# the sigmoid gates behind both stages

def composed_mix(a, b, bias, v):
    """The unfused composition that ad.gated_mix stands for."""
    return ad.matmul(ad.sigmoid(ad.add(ad.scale(ad.matmul(a, ad.transpose2d(b)),
                                                1.0 / math.sqrt(np.shape(a)[1])), bias)), v)


def mix_point(seed, tag, m, n, d, bias_shape):
    """a, b, bias and v of one gated_mix call, plus a weight for its output."""
    bias = {"row": (m, 1), "column": (1, n), "full": (m, n)}[bias_shape]
    return ([u(seed, f"{tag}.a", (m, d), 1), u(seed, f"{tag}.b", (n, d), 1),
             u(seed, f"{tag}.bias", bias, 1), u(seed, f"{tag}.v", (n, d), 1)],
            u(seed, f"{tag}.w", (m, d), 1))


def weighted_grads(mix, args, w):
    """The output and the cotangent of each Var in ``args``, for
    sum(mix(*args) * w)."""
    out = ad.sum_all(ad.multiply(mix(*args), w))
    ad.backward(out)
    return [out.value] + [arg.grad for arg in args if isinstance(arg, ad.Var)]


@pytest.mark.parametrize("bias_shape", ["row", "column"])
def test_sigmoid_gates_grad_check(bias_shape):
    for seed in (1, 2, 3):
        point, w = mix_point(seed, "gg", 5, 3, 4, bias_shape)
        point[0] *= 3.0
        point[1] *= 3.0
        assert ad.grad_check(lambda *args: ad.sum_all(ad.multiply(ad.gated_mix(*args), w)),
                             point, eps=1e-6) < 1e-5


@pytest.mark.parametrize("m,n,d,bias_shape", [(36, 400, 4, "row"), (64, 36, 4, "column")])
def test_sigmoid_gates_gradients_equal_composition_bits(m, n, d, bias_shape):
    # the shapes of both stages at a 20x20 input with C=4 and 36 agents, with
    # stage 2's 400 pixels cut to one block of 64
    point, w = mix_point(4, "gc", m, n, d, bias_shape)
    fused = weighted_grads(ad.gated_mix, [ad.Var(p) for p in point], w)
    composed = weighted_grads(composed_mix, [ad.Var(p) for p in point], w)
    for got, ref in zip(fused, composed):
        assert np.array_equal(got, ref)


def test_sigmoid_gates_full_bias_and_single_var_gradients_keep_bits():
    # a full [m,n] bias takes its cotangent before the in-place 1/sqrt(d)
    # scale; a lone Var argument gets the same bits as with all four
    point, w = mix_point(11, "gf", 30, 7, 4, "full")
    fused = weighted_grads(ad.gated_mix, [ad.Var(p) for p in point], w)
    composed = weighted_grads(composed_mix, [ad.Var(p) for p in point], w)
    for got, ref in zip(fused, composed):
        assert np.array_equal(got, ref)
    for i in range(4):
        lone = [ad.Var(p) if j == i else p for j, p in enumerate(point)]
        assert np.array_equal(weighted_grads(ad.gated_mix, lone, w)[1], fused[i + 1])


def test_gated_mix_peak_memory_is_one_gate_block():
    # the stage-1 shape at 112x112, C=16: 256 agents over 12,544 pixels.  One
    # [64,n] gate block and one b^T copy are alive at once; two blocks are not
    m, n, d = 256, 12544, 16
    point, _ = mix_point(8, "gp", m, n, d, "row")
    tracemalloc.start()
    try:
        out = ops.gated_mix(*point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (m, d)
    assert peak <= 1.1 * (ops._MIX_ROWS * n + d * n) * 8


def rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


# (m, n, d, d_v): a ragged last block, m a whole number of blocks, m below
# one block, and the 361 agents of stage 1 at 128x128 (5 * 64 + 41)
MIX_SHAPES = [(150, 37, 5, 3), (128, 20, 3, 2), (40, 30, 4, 6), (361, 700, 16, 16)]


@pytest.mark.parametrize("bias_shape", ["row", "column"])
@pytest.mark.parametrize("m,n,d,dv", MIX_SHAPES)
def test_gated_mix_matches_composition(m, n, d, dv, bias_shape):
    seed = m + n
    point = [u(seed, "mix.a", (m, d), 1), u(seed, "mix.b", (n, d), 1),
             u(seed, "mix.bias", (m, 1) if bias_shape == "row" else (1, n), 1),
             u(seed, "mix.v", (n, dv), 1)]
    w = u(seed, "mix.w", (m, dv), 1)

    def grads(mix, args):
        return weighted_grads(mix, args, w)[1:]

    got = ad.gated_mix(*point)
    assert got.tobytes() == ad.gated_mix(*point).tobytes()
    assert rel_err(got, composed_mix(*point)) <= 1e-13
    with ops.count_macs() as counter:
        ad.gated_mix(*point)
    assert counter.macs == m * d * n + m * n * dv

    mixed = grads(ad.gated_mix, [ad.Var(p) for p in point])
    for got_grad, ref in zip(mixed, grads(composed_mix, [ad.Var(p) for p in point])):
        assert rel_err(got_grad, ref) <= 1e-12
    for i in range(4):
        lone = [ad.Var(p) if j == i else p for j, p in enumerate(point)]
        # a lone Var gets the bytes it gets beside the other three
        assert grads(ad.gated_mix, lone)[0].tobytes() == mixed[i].tobytes()


# ---------------------------------------------------------------------------
# full block

def blob_density(h, w, r0, r1, c0, c1):
    d = np.zeros((1, h, w))
    d[0, r0:r1, c0:c1] = 1.0
    return d


def test_empty_selection_is_exactly_local_branch():
    params = dafm_params(channels=3, embed=3, n_agents=16, seed=6)
    x = u(6, "da.x", (3, 8, 8))
    out, inter = dafm_forward(x, np.zeros((1, 8, 8)), params, return_intermediates=True)
    local = ad.depthwise_separable_conv(x, params.dw_w, params.pw_w, params.pw_b)
    assert np.array_equal(out, local)
    assert not inter.raw_mask.any()
    assert not inter.refined_mask.any()
    assert inter.regions.rectangles == []
    assert inter.bank is None and inter.gathered is None


@pytest.mark.parametrize("size", [16, 32], ids=["same-grid", "resized"])
def test_non_finite_density_raises(size):
    params = dafm_params(channels=3, embed=3, n_agents=36, seed=6)
    x = u(6, "da.nf", (3, 16, 16))
    for bad in (np.nan, np.inf, -np.inf):
        d = np.arange(1.0, size * size + 1.0).reshape(1, size, size)
        d[0, size - 2, size - 2] = bad  # at 32x32 no tap of the resize to 16x16 reads it
        with pytest.raises(NumericError, match="non-finite"):
            dafm_forward(x, d, params)
    with pytest.raises(NumericError, match="non-finite"):
        dafm_forward(x, np.full((1, size, size), np.nan), params)


def test_agent_count_mismatch_error():
    params = dafm_params(channels=3, embed=3, n_agents=9, seed=6)
    x = u(6, "da.x2", (3, 8, 8))
    with pytest.raises(InvalidArgumentError, match="one per agent"):
        dafm_forward(x, blob_density(8, 8, 2, 5, 2, 5), params)


def test_full_forward_matches_numpy_composition():
    c, h, w, embed = 3, 8, 8, 2
    kernel = math.ceil(max(h, w) / AGENT_GRID)
    n = expected_agents(h, w)
    params = dafm_params(c, embed, n, seed=7)
    x = u(7, "da.full.x", (c, h, w))
    density = blob_density(h, w, 1, 4, 4, 8)
    got, inter = dafm_forward(x, density, params, thresh_mode="quantile",
                              thresh_value=0.10, return_intermediates=True)

    raw = threshold_mask(density, "quantile", 0.10)
    refined, regions = refine_mask(raw)
    assert np.array_equal(inter.raw_mask, raw)
    assert np.array_equal(inter.refined_mask, refined)
    assert regions.rectangles == inter.regions.rectangles

    pooled = oracles.naive_avg_pool(x * refined, kernel, kernel)
    bank_map = oracles.naive_conv2d(pooled, params.bank_w, params.bank_b)
    bank_rows = bank_map.reshape(c, -1).T @ params.ifam.w_query.T
    rows = x.reshape(c, -1).T
    q = rows @ params.ifam.w_query.T
    k = rows @ params.ifam.w_key.T
    v = rows @ params.ifam.w_value.T
    g1 = oracles.hand_sigmoid(
        bank_rows @ k.T / math.sqrt(embed) + params.ifam.bias_fwd[:, None]) @ v
    y = oracles.hand_sigmoid(
        q @ bank_rows.T / math.sqrt(embed) + params.ifam.bias_bwd[None, :]) @ g1
    y = y @ params.ifam.w_out.T
    ref = np.ascontiguousarray(y.T).reshape(c, h, w) + \
        oracles.naive_depthwise_separable(x, params.dw_w, params.pw_w, params.pw_b)
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-14)
    assert inter.bank is not None and inter.gathered is not None


def test_density_is_resized_to_feature_grid():
    params = dafm_params(channels=2, embed=2, n_agents=16, seed=8)
    x = u(8, "da.rs.x", (2, 8, 8))
    coarse = blob_density(4, 4, 0, 2, 0, 2)  # quarter-resolution prior
    out, inter = dafm_forward(x, coarse, params, return_intermediates=True)
    assert inter.raw_mask.shape == (1, 8, 8)
    assert out.shape == (2, 8, 8)


def test_var_input_matches_plain_forward():
    params = dafm_params(channels=2, embed=2, n_agents=16, seed=9)
    x = u(9, "da.var.x", (2, 8, 8))
    density = blob_density(8, 8, 3, 6, 1, 5)
    plain = dafm_forward(x, density, params)
    graph = dafm_forward(ad.Var(x), density, params)
    assert isinstance(graph, ad.Var)
    assert np.array_equal(graph.value, plain)


def test_var_density_is_read_by_value():
    params = dafm_params(channels=2, embed=2, n_agents=16, seed=9)
    x = u(9, "da.var.x", (2, 8, 8))
    density = blob_density(8, 8, 3, 6, 1, 5)
    plain, inter = dafm_forward(x, density, params, return_intermediates=True)
    assert inter.regions.rectangles
    x_node, d_node = ad.Var(x), ad.Var(density)
    graph = dafm_forward(x_node, d_node, params)
    assert np.array_equal(graph.value, plain)
    ad.backward(ad.sum_all(ad.multiply(graph, u(9, "da.var.w", (2, 8, 8)))))
    assert d_node.grad is None
    assert x_node.grad is not None and np.any(x_node.grad != 0.0)


def dafm_peaks(size):
    """tracemalloc peaks of dafm_forward alone and of it plus its backward, at
    C=16 with the 7x7 agent grid, each over the input's bytes."""
    c = 16
    x = u(1, "da.mem.x", (c, size, size), c)
    density = blob_density(size, size, size // 4, size // 2, size // 8, 3 * size // 4)
    params = dafm_params(c, c, expected_agents(size, size), seed=1)
    peaks = []
    for graph in (False, True):
        tracemalloc.start()
        try:
            if graph:
                ad.backward(ad.sum_all(dafm_forward(ad.Var(x), density, params)))
            else:
                dafm_forward(x, density, params)
            peaks.append(tracemalloc.get_traced_memory()[1] / x.nbytes)
        finally:
            tracemalloc.stop()
    return peaks


def test_dafm_peak_memory_is_linear_in_pixels():
    # 49 agents at both sizes, and the gates are held one fixed row block at
    # a time, so neither peak grows faster than the pixel count
    small, large = dafm_peaks(64), dafm_peaks(128)
    for lo, hi in zip(small, large):
        assert max(lo, hi) <= 1.1 * min(lo, hi), (small, large)


def test_dafm_input_rank_error():
    params = dafm_params(channels=2, embed=2, n_agents=4, seed=1)
    with pytest.raises(InvalidArgumentError):
        dafm_forward(np.zeros((8, 8)), np.zeros((1, 8, 8)), params)
