"""Tape gradients: every differentiable op against central finite differences,
plus graph mechanics (accumulation, resets, freed interior cotangents, vjp
zeros and interior cotangents, cotangent checks).

Kinked ops (relu, max_channels) are probed at points bounded away from the
kink so the +/- eps probes stay on one branch.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from densefocus import autodiff as ad
from densefocus import ops
from densefocus.errors import InvalidArgumentError, UnsupportedOperationError
from densefocus.params import seeded_uniform
from densefocus.train import GRADCHECK_TOLERANCE

EPS = 1e-6
TOL = 1e-5
SEEDS = (1, 2, 3)


def u(seed, name, shape, fan=1):
    return seeded_uniform(seed, name, shape, fan)


def away(x, gap=0.05):
    # push every coordinate at least `gap` from zero, preserving sign
    return np.where(x >= 0.0, x + gap, x - gap)


def wsum(out, w):
    return ad.sum_all(ad.multiply(out, w))


# ---------------------------------------------------------------------------
# elementwise / structural

def test_grad_add_subtract():
    for seed in SEEDS:
        a = u(seed, "g.add.a", (3, 4))
        b = u(seed, "g.add.b", (3, 4))
        w = u(seed, "g.add.w", (3, 4))
        assert ad.grad_check(lambda x, y: wsum(ad.add(x, y), w), [a, b], eps=EPS) < TOL
        assert ad.grad_check(lambda x, y: wsum(ad.subtract(x, y), w), [a, b], eps=EPS) < TOL


def test_grad_add_broadcasting():
    for seed in SEEDS:
        a = u(seed, "g.bc.a", (3, 1))
        b = u(seed, "g.bc.b", (3, 4))
        w = u(seed, "g.bc.w", (3, 4))
        err = ad.grad_check(lambda x, y: wsum(ad.add(x, y), w), [a, b], eps=EPS)
        assert err < TOL


def test_grad_multiply_scale():
    for seed in SEEDS:
        a = u(seed, "g.mul.a", (2, 3, 3))
        b = u(seed, "g.mul.b", (2, 3, 3))
        assert ad.grad_check(lambda x, y: ad.sum_all(ad.multiply(x, y)), [a, b], eps=EPS) < TOL
        wv = u(seed, "g.mul.w", (2, 3, 3))
        assert ad.grad_check(lambda x: wsum(ad.scale(x, -1.7), wv), a, eps=EPS) < TOL


def test_grad_reshape_transpose():
    for seed in SEEDS:
        a = u(seed, "g.rs.a", (3, 4))
        w = u(seed, "g.rs.w", (2, 6))
        assert ad.grad_check(lambda x: wsum(ad.reshape(x, (2, 6)), w), a, eps=EPS) < TOL
        wt = u(seed, "g.tr.w", (4, 3))
        assert ad.grad_check(lambda x: wsum(ad.transpose2d(x), wt), a, eps=EPS) < TOL


def test_grad_chw_rows_roundtrip():
    for seed in SEEDS:
        a = u(seed, "g.rows.a", (3, 2, 4))
        w = u(seed, "g.rows.w", (8, 3))
        assert ad.grad_check(lambda x: wsum(ad.chw_to_rows(x), w), a, eps=EPS) < TOL
        wc = u(seed, "g.rows.wc", (3, 2, 4))

        def back(x):
            return wsum(ad.rows_to_chw(ad.chw_to_rows(x), (3, 2, 4)), wc)

        assert ad.grad_check(back, a, eps=EPS) < TOL


def test_grad_concat_channels():
    for seed in SEEDS:
        a = u(seed, "g.cat.a", (2, 3, 3))
        b = u(seed, "g.cat.b", (4, 3, 3))
        w = u(seed, "g.cat.w", (6, 3, 3))
        err = ad.grad_check(lambda x, y: wsum(ad.concat_channels(x, y), w), [a, b], eps=EPS)
        assert err < TOL


def test_grad_reductions():
    for seed in SEEDS:
        a = u(seed, "g.red.a", (3, 4, 5))
        assert ad.grad_check(ad.sum_all, a, eps=EPS) < TOL
        assert ad.grad_check(lambda x: ad.scale(ad.mean_all(x), 7.0), a, eps=EPS) < TOL
        w = u(seed, "g.red.w", (3,))
        assert ad.grad_check(
            lambda x: wsum(ad.mean_axes(x, (1, 2)), w), a, eps=EPS) < TOL
        wk = u(seed, "g.red.wk", (3, 1, 1))
        assert ad.grad_check(
            lambda x: wsum(ad.mean_axes(x, (1, 2), keepdims=True), wk), a, eps=EPS) < TOL


def test_grad_max_channels():
    for seed in SEEDS:
        # per-channel offsets make the argmax strict, so +/- eps cannot flip it
        a = u(seed, "g.max.a", (3, 4, 4)) + np.arange(3.0)[:, None, None] * 5.0
        w = u(seed, "g.max.w", (1, 4, 4))
        assert ad.grad_check(lambda x: wsum(ad.max_channels(x), w), a, eps=EPS) < TOL


def test_max_channels_tie_goes_to_first_channel():
    x = ad.Var(np.zeros((2, 2, 2)))  # every pixel ties across channels
    out = ad.max_channels(x)
    ad.backward(out, np.ones((1, 2, 2)))
    assert np.array_equal(x.grad[0], np.ones((2, 2)))
    assert np.array_equal(x.grad[1], np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# activations

def test_grad_sigmoid_relu_softmax():
    for seed in SEEDS:
        a = u(seed, "g.act.a", (3, 4))
        w = u(seed, "g.act.w", (3, 4))
        assert ad.grad_check(lambda x: wsum(ad.sigmoid(x), w), a, eps=EPS) < TOL
        ar = away(u(seed, "g.act.r", (3, 4)))
        assert ad.grad_check(lambda x: wsum(ad.relu(x), w), ar, eps=EPS) < TOL
        assert ad.grad_check(lambda x: wsum(ad.softmax(x, axis=-1), w), a, eps=EPS) < TOL
        assert ad.grad_check(lambda x: wsum(ad.softmax(x, axis=0), w), a, eps=EPS) < TOL


# ---------------------------------------------------------------------------
# linear algebra / conv / pooling / resampling

def test_grad_matmul():
    for seed in SEEDS:
        a = u(seed, "g.mm.a", (3, 4))
        b = u(seed, "g.mm.b", (4, 2))
        w = u(seed, "g.mm.w", (3, 2))
        assert ad.grad_check(lambda x, y: wsum(ad.matmul(x, y), w), [a, b], eps=EPS) < TOL


@pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
def test_grad_conv2d_all_leaves(stride, pad):
    for seed in SEEDS:
        x = u(seed, f"g.cv.x{stride}{pad}", (2, 5, 5))
        wt = u(seed, f"g.cv.w{stride}{pad}", (3, 2, 3, 3))
        b = u(seed, f"g.cv.b{stride}{pad}", (3,))
        oh = (5 + 2 * pad - 3) // stride + 1
        w = u(seed, f"g.cv.s{stride}{pad}", (3, oh, oh))

        def f(xx, ww, bb):
            return wsum(ad.conv2d(xx, ww, bb, stride=stride, pad=pad), w)

        assert ad.grad_check(f, [x, wt, b], eps=EPS) < TOL


def test_grad_avg_pool():
    for seed in SEEDS:
        a = u(seed, "g.pool.a", (2, 4, 4))
        w = u(seed, "g.pool.w", (2, 2, 2))
        assert ad.grad_check(lambda x: wsum(ad.avg_pool(x, 2), w), a, eps=EPS) < TOL
        # ragged extent: replicate-edge padding path in the vjp
        b = u(seed, "g.pool.b", (2, 6, 6))
        oh = ops.pool_output_extent(6, 4)
        wr = u(seed, "g.pool.wr", (2, oh, oh))
        assert ad.grad_check(lambda x: wsum(ad.avg_pool(x, 4), wr), b, eps=EPS) < TOL


def test_grad_depthwise_separable():
    for seed in SEEDS:
        x = u(seed, "g.dw.x", (3, 5, 5))
        dw = u(seed, "g.dw.dw", (3, 1, 3, 3))
        pw = u(seed, "g.dw.pw", (4, 3, 1, 1))
        pb = u(seed, "g.dw.pb", (4,))
        w = u(seed, "g.dw.w", (4, 5, 5))

        def f(a, b, c, d):
            return wsum(ad.conv2d(ad.depthwise_conv(a, b), c, d, 1, 0), w)

        assert ad.grad_check(f, [x, dw, pw, pb], eps=EPS) < TOL


def test_grad_bilinear_resize():
    for seed in SEEDS:
        a = u(seed, "g.bl.a", (2, 5, 7))
        wu = u(seed, "g.bl.wu", (2, 9, 11))
        assert ad.grad_check(lambda x: wsum(ad.bilinear_resize(x, 9, 11), wu), a, eps=EPS) < TOL
        wd = u(seed, "g.bl.wd", (2, 2, 3))
        assert ad.grad_check(lambda x: wsum(ad.bilinear_resize(x, 2, 3), wd), a, eps=EPS) < TOL
        wi = u(seed, "g.bl.wi", (2, 5, 7))
        assert ad.grad_check(lambda x: wsum(ad.bilinear_resize(x, 5, 7), wi), a, eps=EPS) < TOL


def test_grad_dct_pair():
    for seed in SEEDS:
        a = u(seed, "g.dct.a", (2, 6, 6))
        w = u(seed, "g.dct.w", (2, 6, 6))
        assert ad.grad_check(lambda x: wsum(ad.dct2(x), w), a, eps=EPS) < TOL
        assert ad.grad_check(lambda x: wsum(ad.idct2(x), w), a, eps=EPS) < TOL


def test_sum_dct2_gradient_is_idct2_of_ones():
    x = ad.Var(u(4, "g.dct.ones", (2, 5, 5)))
    ad.backward(ad.sum_all(ad.dct2(x)))
    assert np.array_equal(x.grad, ops.idct2(np.ones((2, 5, 5))))


# ---------------------------------------------------------------------------
# attention blocks

def test_grad_channel_attention():
    for seed in SEEDS:
        # strictly positive tensors keep the hidden relu away from its kink
        x = np.abs(u(seed, "g.ca.x", (4, 4, 4))) + 0.2
        wr = np.abs(u(seed, "g.ca.wr", (2, 4))) + 0.2
        we = u(seed, "g.ca.we", (4, 2))
        w = u(seed, "g.ca.w", (4, 4, 4))

        def f(a, b, c):
            return wsum(ad.channel_attention(a, b, c), w)

        assert ad.grad_check(f, [x, wr, we], eps=EPS) < TOL


def test_grad_spatial_attention():
    for seed in SEEDS:
        x = u(seed, "g.sa.x", (3, 5, 5)) + np.arange(3.0)[:, None, None] * 5.0
        wc = u(seed, "g.sa.wc", (1, 2, 3, 3))
        w = u(seed, "g.sa.w", (3, 5, 5))

        def f(a, b):
            return wsum(ad.spatial_attention(a, b), w)

        assert ad.grad_check(f, [x, wc], eps=EPS) < TOL


# ---------------------------------------------------------------------------
# exactness and graph mechanics

def test_quadratic_gradients_match_fd_exactly():
    # central differences have zero truncation error on quadratics, so the
    # residual is pure roundoff
    a = u(5, "g.quad.a", (4, 4))

    def f(x):
        return ad.add(ad.sum_all(ad.multiply(x, x)), ad.scale(ad.sum_all(x), 3.0))

    assert ad.grad_check(f, a, eps=1e-4) < 1e-9


def test_gradient_accumulates_for_repeated_leaf():
    a = ad.Var(u(6, "g.rep.a", (3, 3)))
    ad.backward(ad.sum_all(ad.multiply(a, a)))
    assert np.array_equal(a.grad, 2.0 * a.value)


def test_backward_resets_previous_grads():
    a = ad.Var(u(7, "g.reset.a", (2, 3)))
    out = ad.sum_all(ad.multiply(a, a))
    ad.backward(out)
    first = a.grad.copy()
    ad.backward(out)  # second run over the same graph must not double-count
    assert np.array_equal(a.grad, first)


def test_backward_custom_cotangent_and_shape_check():
    a = ad.Var(np.ones((2, 2)))
    out = ad.scale(a, 3.0)
    ct = np.array([[1.0, 2.0], [3.0, 4.0]])
    ad.backward(out, ct)
    assert np.array_equal(a.grad, 3.0 * ct)
    with pytest.raises(InvalidArgumentError):
        ad.backward(out, np.ones((3, 2)))
    with pytest.raises(UnsupportedOperationError):
        ad.backward(np.ones((2, 2)))


def test_vjp_returns_zeros_for_unreachable_leaf():
    a = ad.Var(np.ones((2, 2)))
    b = ad.Var(np.ones((3,)))
    out = ad.sum_all(ad.multiply(a, 2.0))
    grads = ad.vjp(out, np.asarray(1.0), [a, b])
    assert np.array_equal(grads[0], np.full((2, 2), 2.0))
    assert np.array_equal(grads[1], np.zeros((3,)))


def test_backward_frees_interior_cotangents():
    """A 30-op chain over a 1 MiB array: backward's tracemalloc peak stays
    within a few cotangents, not one per node; afterwards only the leaf
    holds a gradient, equal bit for bit to a hand accumulation."""
    x = ad.Var(u(13, "g.free.x", (128, 1024)))
    w = u(13, "g.free.w", (128, 1024))
    ct = u(13, "g.free.ct", (128, 1024))
    y, interior = x, []
    for i in range(30):
        y = ad.multiply(y, w) if i % 2 == 0 else ad.scale(y, 0.5)
        interior.append(y)
    out = ad.add(y, x)
    interior.append(out)
    tracemalloc.start()
    try:
        ad.backward(out, ct)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * x.value.nbytes
    assert all(node.grad is None for node in interior)
    g = ct
    for i in reversed(range(30)):
        g = g * w if i % 2 == 0 else g * 0.5
    assert np.array_equal(x.grad, ct + g)


def test_vjp_returns_an_interior_cotangent():
    x = ad.Var(np.array([1.0, -2.0, 3.0]))
    h = ad.multiply(x, x)
    mixed, doubled = ad.multiply(h, np.array([0.5, 1.5, -1.0])), ad.scale(h, 2.0)
    out = ad.add(mixed, doubled)
    got_h, got_x = ad.vjp(out, np.array([1.0, 2.0, -0.5]), [h, x])
    assert np.array_equal(got_h, [2.5, 7.0, -0.5])
    assert np.array_equal(got_x, [5.0, -28.0, -3.0])
    assert mixed.grad is None and doubled.grad is None and out.grad is None


def test_grad_check_fails_a_nan_gradient():
    nan_vjp = ad.defop(lambda x: 2.0 * ops.as_tensor(x),
                       lambda g, out, needs, x: (np.full(x.shape, np.nan),))
    err = ad.grad_check(lambda x: ad.sum_all(nan_vjp(x)), np.ones((2, 3)))
    assert not err < GRADCHECK_TOLERANCE
    # one NaN coordinate, probed first, stays the maximum over exact ones
    first_nan = ad.defop(lambda x: 2.0 * ops.as_tensor(x),
                         lambda g, out, needs, x: (np.where(np.arange(x.size) == 0,
                                                            np.nan, 2.0 * g),))
    assert np.isnan(ad.grad_check(lambda x: ad.sum_all(first_nan(x)), np.ones(6)))


def test_grad_check_input_validation():
    with pytest.raises(UnsupportedOperationError):
        ad.grad_check(lambda x: x.value.sum(), np.ones((2, 2)))
    with pytest.raises(InvalidArgumentError):
        ad.grad_check(lambda x: ad.scale(x, 2.0), np.ones((2, 2)))


def test_plain_arrays_short_circuit_to_numpy():
    x = u(9, "g.plain.x", (2, 4, 4))
    w = u(9, "g.plain.w", (3, 2, 3, 3))
    out = ad.conv2d(x, w, stride=1, pad=1)
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, ops.conv2d(x, w, None, 1, 1))
    assert isinstance(ad.sigmoid(x), np.ndarray)
    assert isinstance(ad.dct2(x), np.ndarray)
    assert isinstance(ad.avg_pool(x, 2), np.ndarray)


def test_var_passed_by_keyword_is_rejected():
    x = u(10, "g.kw.x", (2, 4, 4))
    w = u(10, "g.kw.w", (3, 2, 3, 3))
    b = ad.Var(u(10, "g.kw.b", (3,)))
    for xx in (ad.Var(x), x):
        with pytest.raises(UnsupportedOperationError, match="conv2d.*'bias'"):
            ad.conv2d(xx, w, bias=b)
    out = ad.conv2d(ad.Var(x), w, b)        # positionally it differentiates
    ad.backward(ad.sum_all(out))
    assert np.array_equal(b.grad, np.full(3, 4.0))   # 2x2 outputs per channel


# ---------------------------------------------------------------------------
# the defop(forward, vjp) contract

def _counting_op(calls):
    """A test-registered op a*b + c whose vjp records each call's ``needs``
    and the cotangents it actually computes."""
    def vjp(g, out, needs, a, b, c):
        calls.append(needs)
        cts = (g * b if needs[0] else None, g * a if needs[1] else None,
               g if needs[2] else None)
        calls.append(tuple(ct is not None for ct in cts))
        return cts
    return ad.defop(lambda a, b, c: np.asarray(a) * np.asarray(b) + np.asarray(c), vjp)


def test_vjp_runs_once_per_node():
    calls = []
    op = _counting_op(calls)
    a = ad.Var(u(11, "g.once.a", (3, 4)))
    b = ad.Var(u(11, "g.once.b", (3, 4)))
    c = ad.Var(u(11, "g.once.c", (3, 4)))
    inner = op(a, b, c)
    ad.backward(ad.sum_all(op(inner, a, b)))     # two nodes; a and b feed both
    assert calls == [(True, True, True)] * 4      # two calls: needs, computed
    # cotangents land in argument order: the outer node's first
    assert np.array_equal(a.grad, inner.value + a.value * b.value)
    assert np.array_equal(b.grad, 1.0 + a.value * a.value)
    assert np.array_equal(c.grad, a.value)
    x = ad.Var(u(11, "g.once.x", (50,)))
    g = u(12, "g.once.g", (50,))
    ad.backward(op(x, x, x), g)                   # one Var in all three slots
    assert np.array_equal(x.grad, (g * x.value + g * x.value) + g)


def test_vjp_skips_arguments_that_are_not_vars():
    calls = []
    op = _counting_op(calls)
    a = ad.Var(u(12, "g.skip.a", (2, 3)))
    b = u(12, "g.skip.b", (2, 3))
    out = op(a, b, 1.5)
    assert isinstance(out, ad.Var) and len(out._parents) == 1
    ad.backward(ad.sum_all(out))
    assert calls == [(True, False, False), (True, False, False)]
    assert np.array_equal(a.grad, b)
    calls.clear()
    assert isinstance(op(b, b, b), np.ndarray) and calls == []   # no tape, no vjp


# ---------------------------------------------------------------------------
# rewritten vjps keep the bits of their earlier forms

def _conv_vjp_tensordot(g, x, weight, stride, pad):
    """The per-tap tensordot contractions the conv2d vjp used to run."""
    c_out, c_in, kh, kw = weight.shape
    c, h, w = x.shape
    out_h, out_w = g.shape[1], g.shape[2]
    gp = np.zeros((c_in, h + 2 * pad, w + 2 * pad))
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    dw = np.empty(weight.shape)
    for ky in range(kh):
        for kx in range(kw):
            rows = slice(ky, ky + stride * out_h, stride)
            cols = slice(kx, kx + stride * out_w, stride)
            gp[:, rows, cols] += np.tensordot(weight[:, :, ky, kx], g, axes=([0], [0]))
            dw[:, :, ky, kx] = np.tensordot(g, xp[:, rows, cols], axes=([1, 2], [1, 2]))
    return gp[:, pad:pad + h, pad:pad + w], dw, g.sum(axis=(1, 2))


@pytest.mark.parametrize("c_in,c_out,k,h,w", [(1, 4, 3, 9, 7), (8, 3, 3, 11, 8),
                                              (12, 16, 3, 10, 13), (9, 5, 1, 6, 5),
                                              (3, 8, 5, 13, 10)])
@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_vjp_bits_equal_tensordot_form(c_in, c_out, k, h, w, stride, pad):
    x = u(c_in, "g.cvbits.x", (c_in, h, w))
    weight = u(c_out, "g.cvbits.w", (c_out, c_in, k, k), 3)
    bias = u(k, "g.cvbits.b", (c_out,))
    xv, wv, bv = ad.Var(x), ad.Var(weight), ad.Var(bias)
    out = ad.conv2d(xv, wv, bv, stride, pad)
    g = u(h, "g.cvbits.g", out.shape)
    got = ad.vjp(out, g, [xv, wv, bv])
    for a, b in zip(got, _conv_vjp_tensordot(g, x, weight, stride, pad)):
        assert np.array_equal(a, b)
    # one argument a Var at a time: the other cotangents are not needed
    assert np.array_equal(ad.vjp(ad.conv2d(xv, weight, bias, stride, pad), g, [xv])[0], got[0])
    assert np.array_equal(ad.vjp(ad.conv2d(x, wv, None, stride, pad), g, [wv])[0], got[1])


def _bilinear_vjp_add_at(g, shape):
    """The sequential np.add.at scatter, one call per tap, that the resize
    vjp used to run."""
    c, h, w = shape
    dx = np.zeros(shape)
    for yi, xi, wt in ops.bilinear_taps(h, w, g.shape[1], g.shape[2]):
        np.add.at(dx, (slice(None), yi[:, None], xi[None, :]), g * wt)
    return dx


def _bilinear_two_step_gather(x, out_h, out_w):
    """The resize as one row gather, then one column gather, per tap."""
    _, h, w = x.shape
    t = [x[:, yi][:, :, xi] * wt for yi, xi, wt in ops.bilinear_taps(h, w, out_h, out_w)]
    return (t[0] + t[1]) + (t[2] + t[3])


@pytest.mark.parametrize("shape,target", [((3, 5, 7), (10, 14)), ((2, 8, 8), (16, 16)),
                                          ((2, 16, 12), (7, 5)), ((4, 6, 6), (1, 1)),
                                          ((1, 9, 4), (9, 11)), ((9, 7, 3), (2, 13)),
                                          ((16, 38, 38), (112, 112)),
                                          ((8, 32, 32), (64, 64))])
def test_bilinear_forward_bits_equal_two_step_gather(shape, target):
    for seed in (1, 2):
        x = u(seed, "g.blfwd.x", shape)
        got = ops.bilinear_resize(x, *target)
        ref = _bilinear_two_step_gather(x, *target)
        assert got.flags.c_contiguous
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape,target", [((3, 5, 7), (10, 14)), ((2, 8, 8), (16, 16)),
                                          ((2, 16, 12), (7, 5)), ((4, 6, 6), (1, 1)),
                                          ((1, 9, 4), (9, 11)), ((9, 7, 3), (2, 13))])
def test_bilinear_vjp_bits_equal_add_at_form(shape, target):
    x = ad.Var(u(shape[1], "g.blbits.x", shape))
    out = ad.bilinear_resize(x, *target)
    for seed in (1, 2):
        g = u(seed, "g.blbits.g", out.shape)
        assert np.array_equal(ad.vjp(out, g, [x])[0], _bilinear_vjp_add_at(g, shape))


# ---------------------------------------------------------------------------
# the fused conv + ReLU keeps the bits of its composition

def _conv_relu_point(stride, pad, with_bias):
    """Conv arguments whose outputs hold exact 0.0, NaN and, with a bias,
    -0.0: a zero corner of the input meets channel 0's 0.0 bias and channel
    1's all-negative kernel and -0.0 bias, and a NaN sits in the far corner."""
    x = u(stride, "g.cr.x", (2, 9, 9))
    x[:, :5, :5] = 0.0
    x[0, -1, -1] = np.nan
    weight = u(pad, "g.cr.w", (3, 2, 3, 3), 3)
    weight[1] = -np.abs(weight[1]) - 0.1
    if not with_bias:
        return x, weight, None
    bias = u(stride + pad, "g.cr.b", (3,))
    bias[:2] = 0.0, -0.0
    return x, weight, bias


@pytest.mark.parametrize("with_bias", [False, True])
@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_relu_bits_equal_relu_of_conv2d(stride, pad, with_bias):
    args = _conv_relu_point(stride, pad, with_bias)
    copies = [None if a is None else a.copy() for a in args]
    with ops.count_macs() as conv_macs:
        conv = ops.conv2d(*args, stride, pad)
    zeros = conv[conv == 0.0]
    assert np.isnan(conv).any() and not np.signbit(zeros).all() and (conv > 0.0).any()
    assert np.signbit(zeros).any() == with_bias
    with ops.count_macs() as fused_macs:
        got = ops.conv2d_relu(*args, stride, pad)
    assert got.shape == conv.shape and got.tobytes() == ops.relu(conv).tobytes()
    assert fused_macs.macs == conv_macs.macs > 0
    for a, before in zip(args, copies):
        assert a is None or a.tobytes() == before.tobytes()

    g = u(pad, "g.cr.g", got.shape)
    slots = [i for i, a in enumerate(args) if a is not None]
    for n in range(1, len(slots) + 1):
        for subset in itertools.combinations(slots, n):
            call = [ad.Var(a) if i in subset else a for i, a in enumerate(args)]
            wrt = [call[i] for i in subset]
            fused = ad.conv2d_relu(*call, stride=stride, pad=pad)
            composed = ad.relu(ad.conv2d(*call, stride=stride, pad=pad))
            assert fused._parents == tuple(wrt)
            assert fused.value.tobytes() == composed.value.tobytes()
            for a, b in zip(ad.vjp(fused, g, wrt), ad.vjp(composed, g, wrt), strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
