"""Dense numeric kernels against naive-loop and definitional oracles."""

import math

import numpy as np
import pytest

from densefocus import autodiff as ad
from densefocus import ops
from densefocus.errors import InvalidArgumentError
from densefocus.params import seeded_uniform

import oracles


def u(seed, name, shape, fan=4):
    return seeded_uniform(seed, name, shape, fan)


# ---------------------------------------------------------------------------
# conv2d

@pytest.mark.parametrize("stride,pad,bias", [
    (1, 0, False), (1, 1, True), (2, 1, True), (1, 2, False), (2, 0, True),
])
def test_conv2d_bit_exact_vs_naive(stride, pad, bias):
    x = u(1, f"c.x{stride}{pad}", (2, 5, 6), 4)
    w = u(2, f"c.w{stride}{pad}", (3, 2, 3, 3), 18)
    b = u(3, f"c.b{stride}{pad}", (3,), 18) if bias else None
    got = ops.conv2d(x, w, b, stride=stride, pad=pad)
    ref = oracles.naive_conv2d(x, w, b, stride=stride, pad=pad)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)  # same summation order, same bits


def test_conv2d_1x1_bit_exact():
    x = u(4, "c11.x", (5, 4, 4), 5)
    w = u(5, "c11.w", (2, 5, 1, 1), 5)
    assert np.array_equal(ops.conv2d(x, w), oracles.naive_conv2d(x, w))


# (input shape, weight shape, stride, pad) of the convs the library runs at
# the benchmark's sizes, plus layouts that no caller uses yet
CONV_LAYOUT_CASES = [
    # the density branch on 64x64 scenes: encoder, then decoder and regressor
    ((1, 64, 64), (8, 1, 3, 3), 2, 1),
    ((8, 32, 32), (16, 8, 3, 3), 2, 1),
    ((16, 16, 16), (32, 16, 3, 3), 2, 1),
    ((32, 16, 16), (16, 32, 3, 3), 1, 1),
    ((16, 32, 32), (8, 16, 3, 3), 1, 1),
    ((8, 64, 64), (8, 8, 3, 3), 1, 1),
    ((8, 64, 64), (1, 8, 3, 3), 1, 1),
    # DFFM's 3x3 and 1x1 convs (and DAFM's pointwise conv) at 112x112, C=16:
    # more than one column block
    ((16, 112, 112), (16, 16, 3, 3), 1, 1),
    ((16, 112, 112), (16, 16, 1, 1), 1, 0),
    # DFFM's band-mask conv and 7x7 spatial-attention conv on the 112x112
    # map pooled by 3, 6 and 9
    ((16, 38, 38), (1, 16, 1, 1), 1, 0),
    ((2, 38, 38), (1, 2, 7, 7), 1, 3),
    ((2, 19, 19), (1, 2, 7, 7), 1, 3),
    ((2, 13, 13), (1, 2, 7, 7), 1, 3),
    # density calibration's 1 -> 4 and 4 -> 1 convs
    ((1, 112, 112), (4, 1, 3, 3), 1, 1),
    ((4, 112, 112), (1, 4, 1, 1), 1, 0),
    # DAFM's agent bank: a 1x1 conv on the 7x7-pooled 112x112 features
    ((16, 16, 16), (16, 16, 1, 1), 1, 0),
    # stride 2 without padding on odd extents, and a pad of 2
    ((3, 9, 11), (2, 3, 3, 3), 2, 0),
    ((2, 7, 13), (3, 2, 5, 5), 2, 0),
    ((2, 10, 9), (3, 2, 3, 3), 1, 2),
    ((2, 9, 10), (3, 2, 5, 5), 2, 2),
]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("x_shape,w_shape,stride,pad", CONV_LAYOUT_CASES)
def test_conv2d_bit_exact_vs_tap_loop(x_shape, w_shape, stride, pad):
    x = u(1, "cl.x", x_shape, 4)
    w = u(2, "cl.w", w_shape, w_shape[1] * w_shape[2] * w_shape[3])
    b = u(3, "cl.b", (w_shape[0],), 9)
    for bias in (b, None):
        got = ops.conv2d(x, w, bias, stride, pad)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert _same_bits(got, oracles.tap_loop_conv2d(x, w, bias, stride, pad))


def test_conv2d_signed_zeros_match_tap_loop():
    # zero inputs and weights of both signs make +-0 products: without a bias
    # every output starts at +0.0, and with a -0.0 bias a sum of -0 products
    # (all--0 input, positive weights, no padding) stays -0
    x = np.array([0.0, -0.0, 1.0, -2.0, 0.0, -0.0] * 8).reshape(2, 4, 6)
    w = np.array([-1.0, 0.0, -0.0, 2.0, -0.0, 1.5, 0.0, -3.0, 0.0] * 4).reshape(2, 2, 3, 3)
    neg_zero = np.full((2, 4, 6), -0.0)
    for xx, ww in ((x, w), (neg_zero, w), (neg_zero, np.abs(w) + 1.0)):
        for bias in (None, np.array([-0.0, 0.0])):
            for stride, pad in ((1, 0), (1, 1), (2, 1)):
                got = ops.conv2d(xx, ww, bias, stride, pad)
                assert _same_bits(got, oracles.tap_loop_conv2d(xx, ww, bias, stride, pad))
    assert np.signbit(ops.conv2d(neg_zero, np.abs(w) + 1.0, np.array([-0.0, 0.0]))[0]).all()
    # a strided view as input gives the bits of its contiguous copy
    view = u(4, "cl.view", (3, 12, 16), 4)[:, ::2, 1::2]
    w3 = u(5, "cl.w3", (2, 3, 3, 3), 27)
    assert _same_bits(ops.conv2d(view, w3, None, 2, 1),
                      oracles.tap_loop_conv2d(np.ascontiguousarray(view), w3, None, 2, 1))


@pytest.mark.parametrize("x_shape,w_shape,stride,pad", CONV_LAYOUT_CASES)
def test_conv2d_gives_back_the_callers_numpy_state(x_shape, w_shape, stride, pad):
    # the tap loop sets its own ufunc buffer size: the bits must not depend on
    # the caller's, and the caller's buffer size and error settings come back
    x = u(1, "cl.x", x_shape, 4)
    w = u(2, "cl.w", w_shape, w_shape[1] * w_shape[2] * w_shape[3])
    b = u(3, "cl.b", (w_shape[0],), 9)
    for bias in (b, None):
        want = oracles.tap_loop_conv2d(x, w, bias, stride, pad)
        for bufsize in (8192, 16, 65536):
            old = np.setbufsize(bufsize)
            try:
                with np.errstate(divide="ignore", under="warn"):
                    err = np.geterr()
                    got = ops.conv2d(x, w, bias, stride, pad)
                    assert np.getbufsize() == bufsize and np.geterr() == err
            finally:
                np.setbufsize(old)
            assert _same_bits(got, want)


def test_conv2d_raises_under_the_callers_errstate():
    x = np.full((2, 5, 5), 1e200)
    w = np.full((3, 2, 3, 3), 1e200)
    bufsize = np.getbufsize()
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            ops.conv2d(x, w, None, 1, 1)
        assert np.geterr()["over"] == "raise" and np.getbufsize() == bufsize


def test_conv2d_kernel_too_large():
    x = np.zeros((1, 3, 3))
    w = np.zeros((1, 1, 5, 5))
    with pytest.raises(InvalidArgumentError):
        ops.conv2d(x, w, None, 1, 0)


def test_conv2d_shape_validation():
    with pytest.raises(InvalidArgumentError):
        ops.conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)))  # cin mismatch
    with pytest.raises(InvalidArgumentError):
        ops.conv2d(np.zeros((4, 4)), np.zeros((1, 1, 3, 3)))  # not CHW


# ---------------------------------------------------------------------------
# pooling

POOL_CASES = [((2, 6, 6), 2), ((2, 7, 5), 3), ((1, 5, 5), 7), ((3, 8, 8), 3),
              ((1, 4, 9), 4)]


@pytest.mark.parametrize("shape,k", POOL_CASES)
def test_avg_pool_bit_exact_vs_naive(shape, k):
    x = u(6, f"p.{shape}{k}", shape, 4)
    got = ops.avg_pool(x, k)
    ref = oracles.naive_avg_pool(x, k)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)


def test_pool_output_extent():
    # ceil division, with the edge window replicated
    assert ops.pool_output_extent(12, 3) == 4
    assert ops.pool_output_extent(13, 3) == 5
    assert ops.pool_output_extent(5, 7) == 1


def test_avg_pool_validation():
    with pytest.raises(InvalidArgumentError):
        ops.avg_pool(np.zeros((1, 4, 4)), 0)


# ---------------------------------------------------------------------------
# depthwise separable

def test_depthwise_separable_bit_exact_vs_naive():
    x = u(7, "d.x", (3, 6, 6), 9)
    dw = u(8, "d.dw", (3, 1, 3, 3), 9)
    pw = u(9, "d.pw", (4, 3, 1, 1), 3)
    b = u(10, "d.b", (4,), 3)
    got = ops.depthwise_separable_conv(x, dw, pw, b)
    ref = oracles.naive_depthwise_separable(x, dw, pw, b)
    assert np.array_equal(got, ref)


# (C, H, W, k) of the depthwise convs the library runs: DAFM's local branch
# on the benchmark's 112x112 C=16 features and at its gradcheck point, then
# wider kernels and one channel
DEPTHWISE_LAYOUTS = [(16, 112, 112, 3), (3, 8, 8, 3), (4, 20, 20, 5), (4, 20, 20, 7),
                     (1, 9, 7, 3)]


def _depthwise_case(c, h, w, k, special):
    x = u(c, "dw.x", (c, h, w), 4)
    dw = u(k, "dw.w", (c, 1, k, k), k * k)
    g = u(h, "dw.g", (c, h, w), 4)
    if special:
        # +-0 inputs, weights and cotangents, and one NaN input pixel; the last
        # channel is all -0 under positive weights, so every product there is
        # -0 and only the 0.0 start makes the output +0
        x[:, ::3, ::2] = -0.0
        x[:, 1::4] = 0.0
        dw[:, :, 0, :] = -0.0
        x[-1] = -0.0
        dw[-1] = np.abs(dw[-1]) + 0.5
        x[0, h // 2, w // 2] = np.nan
        g[:, ::2, 1::3] = -0.0
    return x, dw, g


@pytest.mark.parametrize("special", [False, True], ids=["uniform", "signed-zero-nan"])
@pytest.mark.parametrize("c,h,w,k", DEPTHWISE_LAYOUTS)
def test_depthwise_bits_equal_tap_loop(c, h, w, k, special):
    x, dw, g = _depthwise_case(c, h, w, k, special)
    got = ops.depthwise_conv(x, dw)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert _same_bits(got, oracles.tap_loop_depthwise(x, dw))
    with ops.count_macs() as counter:
        ops.depthwise_conv(x, dw)
    assert counter.macs == c * h * w * k * k

    # the input cotangents agree bit for bit; the weight cotangent sums with
    # np.dot, the reference with numpy's pairwise sum, so they agree to roundoff
    xv, wv = ad.Var(x), ad.Var(dw)
    dx, ddw = ad.vjp(ad.depthwise_conv(xv, wv), g, [xv, wv])
    want_dx, want_dw = oracles.tap_loop_depthwise_vjp(g, x, dw)
    assert _same_bits(dx, want_dx)
    assert np.allclose(ddw, want_dw, rtol=1e-12, atol=0.0, equal_nan=True)
    # one argument a Var at a time gives the same cotangent
    assert _same_bits(ad.vjp(ad.depthwise_conv(xv, dw), g, [xv])[0], dx)
    assert _same_bits(ad.vjp(ad.depthwise_conv(x, wv), g, [wv])[0], ddw)


def test_depthwise_requires_odd_square_kernel():
    x = np.zeros((2, 4, 4))
    with pytest.raises(InvalidArgumentError):
        ops.depthwise_separable_conv(x, np.zeros((2, 1, 2, 2)), np.zeros((2, 2, 1, 1)))
    with pytest.raises(InvalidArgumentError):
        ops.depthwise_separable_conv(x, np.zeros((3, 1, 3, 3)), np.zeros((2, 2, 1, 1)))


# ---------------------------------------------------------------------------
# bilinear resize

def test_bilinear_matches_reference():
    x = u(11, "r.x", (2, 5, 7), 4)
    for oh, ow in ((10, 14), (3, 4), (5, 7), (1, 9), (8, 1)):
        got = ops.bilinear_resize(x, oh, ow)
        ref = oracles.naive_bilinear_resize(x, oh, ow)
        assert np.allclose(got, ref, rtol=0, atol=1e-12)


def test_bilinear_identity_is_copy():
    x = u(12, "r.id", (1, 4, 4), 4)
    out = ops.bilinear_resize(x, 4, 4)
    assert np.array_equal(out, x)
    assert out is not x


def test_bilinear_corners_exact():
    x = u(13, "r.c", (1, 6, 5), 4)
    out = ops.bilinear_resize(x, 17, 11)
    assert out[0, 0, 0] == x[0, 0, 0]
    assert out[0, -1, -1] == x[0, -1, -1]
    assert out[0, 0, -1] == x[0, 0, -1]
    assert out[0, -1, 0] == x[0, -1, 0]


def test_bilinear_validation():
    with pytest.raises(InvalidArgumentError):
        ops.bilinear_resize(np.zeros((1, 4, 4)), 0, 4)


# ---------------------------------------------------------------------------
# DCT

def test_dct_matrix_is_orthonormal():
    for n in (1, 2, 3, 8, 16):
        t = ops.dct_matrix(n)
        assert np.allclose(t @ t.T, np.eye(n), atol=1e-13)


def test_dct2_matches_definition():
    for seed, shape in ((14, (2, 8, 8)), (15, (1, 5, 7)), (16, (3, 1, 4))):
        x = u(seed, f"dct.{shape}", shape, 4)
        assert np.max(np.abs(ops.dct2(x) - oracles.naive_dct2(x))) < 1e-9
        assert np.max(np.abs(ops.idct2(x) - oracles.naive_idct2(x))) < 1e-9


def test_dct2_roundtrip_and_parseval():
    x = u(17, "dct.rt", (2, 12, 9), 4)
    assert np.max(np.abs(ops.idct2(ops.dct2(x)) - x)) < 1e-9
    assert np.max(np.abs(ops.dct2(ops.idct2(x)) - x)) < 1e-9
    spec = ops.dct2(x)
    num = abs(float((spec ** 2).sum()) - float((x ** 2).sum()))
    assert num / float((x ** 2).sum()) < 1e-12


def test_dct2_linearity():
    x = u(18, "dct.lx", (1, 6, 6), 4)
    y = u(19, "dct.ly", (1, 6, 6), 4)
    lhs = ops.dct2(2.5 * x - 1.25 * y)
    rhs = 2.5 * ops.dct2(x) - 1.25 * ops.dct2(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


# ---------------------------------------------------------------------------
# pointwise / softmax / matmul

def test_sigmoid_matches_hand_and_extremes():
    x = np.array([-1e6, -30.0, -1.0, 0.0, 1.0, 30.0, 1e6])
    got = ops.sigmoid(x)
    assert np.allclose(got, oracles.hand_sigmoid(x), rtol=1e-15, atol=0)
    assert got[0] == 0.0 and got[-1] == 1.0
    assert got[3] == 0.5
    assert np.all((got >= 0) & (got <= 1))


def where_sigmoid(x):
    """The masked formula that ops.sigmoid replaced, kept as its bit oracle."""
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def assert_same_bits(got, ref):
    assert isinstance(got, np.ndarray) and got.shape == np.shape(ref)
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


SPECIALS = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan,
                     745.2, -745.2, 1e-300, -1e-300, 5e-324, 36.7, -36.7])


def test_sigmoid_bit_exact_vs_where_formula():
    x = np.concatenate([SPECIALS, 40.0 * u(31, "sig.x", (998,), 1)])
    assert_same_bits(ops.sigmoid(x), where_sigmoid(x))
    grid = np.concatenate([x, -x]).reshape(2, -1, 2)
    for view in (grid[:, ::3], grid.transpose(2, 1, 0), grid[..., 1]):
        assert not view.flags.c_contiguous
        assert_same_bits(ops.sigmoid(view), where_sigmoid(view))
    for scalar in (-3.0, 0.0, -0.0, np.nan, np.array(2.5)):
        assert_same_bits(ops.sigmoid(scalar), where_sigmoid(np.asarray(scalar)))


def stacked_gates(a, b, bias):
    """ops.gate_blocks' blocks, copied out of its reused buffer and stacked;
    each block must be the next _MIX_ROWS rows."""
    blocks = []
    for rows, gates in ops.gate_blocks(a, b, bias):
        start = ops._MIX_ROWS * len(blocks)
        assert rows == slice(start, start + ops._MIX_ROWS)
        blocks.append(gates.copy())
    return np.concatenate(blocks)


def composed_gates(a, b, bias):
    """where_sigmoid(a @ b^T / sqrt(d) + bias), with the product taken one
    block of rows at a time as gate_blocks takes it: BLAS may round a ragged
    block's rows apart from the same rows of the whole product."""
    prod = np.concatenate([a[r:r + ops._MIX_ROWS] @ b.T.copy()
                           for r in range(0, a.shape[0], ops._MIX_ROWS)])
    return where_sigmoid(prod * (1.0 / math.sqrt(a.shape[1])) + bias)


def test_sigmoid_gates_bit_exact_vs_composition():
    m, n, d = 21, 14, 5
    a = 6.0 * u(32, "gate.a", (m, d), 1)
    b = 6.0 * u(33, "gate.b", (n, d), 1)
    a[:len(SPECIALS)] = 0.0                 # these rows score bias alone
    for bias in (np.resize(SPECIALS, (m, 1)),
                 u(34, "gate.bc", (1, n), 1), u(35, "gate.bf", (m, n), 1)):
        assert_same_bits(stacked_gates(a, b, bias), composed_gates(a, b, bias))
    # non-contiguous operands of every kind
    big_a = 6.0 * u(36, "gate.ba", (2 * m, d + 3), 1)
    a_nc, b_nc = big_a[::2, 1:d + 1], (6.0 * u(37, "gate.bb", (d, n), 1)).T
    bias_nc = u(38, "gate.bn", (n, 2), 1).T[:1]
    assert not (a_nc.flags.c_contiguous or b_nc.flags.c_contiguous
                or bias_nc.flags.c_contiguous)
    assert_same_bits(stacked_gates(a_nc, b_nc, bias_nc), composed_gates(a_nc, b_nc, bias_nc))


def strided(x):
    """A non-contiguous view holding the values of the 2-D array x."""
    view = np.repeat(x, 2, axis=1)[:, ::2]
    assert not view.flags.c_contiguous
    return view


# (n, m): at n = 300 a chunk (218 rows) outgrows a block, so each of 11 whole
# blocks is one chunk; at n = 3,000, chunks of 21 rows in two whole blocks and
# a ragged third; then n above the chunk size, so that every chunk of one
# ragged block is a single row
GATE_BLOCK_SHAPES = [(300, 11 * ops._MIX_ROWS), (3000, 2 * ops._MIX_ROWS + 50),
                     (ops._GATE_BLOCK + 5, 2 + len(SPECIALS))]


@pytest.mark.parametrize("n,m", GATE_BLOCK_SHAPES)
@pytest.mark.parametrize("bias_shape", ["m1", "1n", "mn"])
@pytest.mark.parametrize("layout", [np.ascontiguousarray, strided])
def test_sigmoid_gates_bit_exact_across_row_blocks(n, m, bias_shape, layout):
    d = 5
    # specials from the second chunk of the second block, or of the only
    # block; where a block is one chunk, from the third block's first row.
    # These rows score the bias alone
    r0 = ops._MIX_ROWS * (m > ops._MIX_ROWS) + min(max(1, ops._GATE_BLOCK // n), ops._MIX_ROWS)
    assert r0 + len(SPECIALS) <= m
    # a prime-length seeded run, tiled, keeps the pure-Python fill short
    a, b, bias = (np.resize(u(45 + i, f"gb.{i}", (4099,), 1), shape) for i, shape in enumerate(
        [(m, d), (n, d), {"m1": (m, 1), "1n": (1, n), "mn": (m, n)}[bias_shape]]))
    a *= 6.0
    b *= 6.0
    a[r0:r0 + len(SPECIALS)] = 0.0
    if bias_shape == "m1":
        bias[r0:r0 + len(SPECIALS), 0] = SPECIALS
    elif bias_shape == "1n":
        bias[0, 3:3 + len(SPECIALS)] = SPECIALS
    else:
        bias[r0:r0 + len(SPECIALS), 0] = SPECIALS
        bias[-1, -len(SPECIALS):] = SPECIALS        # last block
    a, b, bias = layout(a), layout(b), layout(bias)
    assert_same_bits(stacked_gates(a, b, bias), composed_gates(a, b, bias))


def test_sigmoid_kernels_do_not_write_into_arguments():
    x = np.concatenate([SPECIALS, u(39, "sig.w", (50,), 1)])
    a, b, bias = u(40, "gw.a", (7, 3), 1), u(41, "gw.b", (5, 3), 1), u(42, "gw.c", (7, 1), 1)
    v = u(43, "gw.v", (5, 2), 1)
    before = [t.copy() for t in (x, a, b, bias, v)]
    ops.sigmoid(x)
    ops.gated_mix(a, b, bias, v)
    for t, kept in zip((x, a, b, bias, v), before):
        assert_same_bits(t, kept)


def window_loop_avg_pool_vjp(g, x_shape, k):
    """The window-by-window accumulation onto zeros that the avg_pool vjp
    replaced, kept as its bit oracle."""
    _, h, w = x_shape
    out_h, out_w = g.shape[1:]
    share = g / (k * k)
    gp = np.zeros((g.shape[0], out_h * k, out_w * k))
    for ky in range(k):
        for kx in range(k):
            gp[:, ky:ky + k * out_h:k, kx:kx + k * out_w:k] += share
    dx = gp[:, :h, :w].copy()
    if out_h * k > h:
        dx[:, h - 1, :] += gp[:, h:, :w].sum(axis=1)
    if out_w * k > w:
        dx[:, :, w - 1] += gp[:, :h, w:].sum(axis=2)
    if out_h * k > h and out_w * k > w:
        dx[:, h - 1, w - 1] += gp[:, h:, w:].sum(axis=(1, 2))
    return dx


@pytest.mark.parametrize("shape,k", POOL_CASES + [((2, 6, 6), 4)])
def test_avg_pool_vjp_bit_exact_vs_window_loop(shape, k):
    x = ad.Var(u(45, f"pv.x{shape}{k}", shape, 4))
    y = ad.avg_pool(x, k)
    cotangents = [u(46, f"pv.g{shape}{k}", y.shape, 1)]
    # every special value in every output position, edge windows included
    cotangents += [np.resize(np.roll(SPECIALS, -i), y.shape) for i in range(len(SPECIALS))]
    for g in cotangents:
        assert_same_bits(ad.vjp(y, g, [x])[0], window_loop_avg_pool_vjp(g, shape, k))


def test_gated_mix_validation():
    # 128 rows are two whole blocks: a bias one row too long would still give
    # each block a bias of the block's own height
    m, n, d = 128, 6, 4
    a, b, v = u(45, "gx.a", (m, d), 1), u(46, "gx.b", (n, d), 1), u(47, "gx.v", (n, 3), 1)
    row, col = np.zeros((m, 1)), np.zeros((1, n))
    with ops.count_macs() as counter:
        ops.gated_mix(a, b, col, v)
    assert counter.macs == m * d * n + m * n * 3
    assert ops.gated_mix(a[:0], b, col, v).shape == (0, 3)
    assert_same_bits(ops.gated_mix(a, b[:0], np.zeros((1, 1)), v[:0]), np.zeros((m, 3)))
    for bad in [(a, b, np.zeros((m + 1, 1)), v), (a, b, row, v[:5]), (a, b, row, v[0])]:
        with pytest.raises(InvalidArgumentError):
            ops.gated_mix(*bad)


def test_sigmoid_gates_macs_and_validation():
    # the gate stage of gated_mix: with no value columns only the gates
    # are tallied, and every bad gate operand is refused
    m, n, d = 9, 6, 4
    a, b = u(43, "gm.a", (m, d), 1), u(44, "gm.b", (n, d), 1)
    v = np.zeros((n, 0))
    with ops.count_macs() as counter:
        ops.gated_mix(a, b, np.zeros((1, n)), v)
    assert counter.macs == m * n * d
    assert stacked_gates(a, b[:0], np.zeros((1, 1))).shape == (m, 0)
    for bad_a, bad_b, bad_bias in [(a, b[:, :3], np.zeros((1, n))),
                                   (a[0], b, np.zeros((1, n))),
                                   (a, b, np.zeros(n)),
                                   (a, b, np.zeros((m + 1, 1))),
                                   (a, b, np.zeros((1, n, 1)))]:
        with pytest.raises(InvalidArgumentError):
            ops.gated_mix(bad_a, bad_b, bad_bias, v)


def test_relu():
    x = np.array([-2.0, 0.0, 3.5])
    assert np.array_equal(ops.relu(x), [0.0, 0.0, 3.5])


def test_softmax_rows_sum_to_one_and_survive_large_inputs():
    x = 1e6 * u(20, "sm.x", (4, 7), 1)
    s = ops.softmax(x, axis=1)
    assert not np.isnan(s).any()
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
    y = u(21, "sm.y", (3, 5), 4)
    assert np.allclose(ops.softmax(y, axis=1), oracles.hand_softmax_rows(y),
                       atol=1e-12)


def test_matmul_vs_triple_loop():
    a = u(22, "mm.a", (3, 4), 4)
    b = u(23, "mm.b", (4, 2), 4)
    ref = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = 0.0
            for k in range(4):
                acc += a[i, k] * b[k, j]
            ref[i, j] = acc
    assert np.allclose(ops.matmul(a, b), ref, atol=1e-13)
    assert np.array_equal(ops.matmul(np.eye(4), b), b)
    assert np.array_equal(ops.matmul(np.zeros((2, 3)), np.zeros((3, 2))),
                          np.zeros((2, 2)))
    with pytest.raises(InvalidArgumentError):
        ops.matmul(a, np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# attention blocks

def test_channel_attention_matches_hand_pipeline():
    x = u(24, "ca.x", (4, 5, 5), 4)
    w_r = u(25, "ca.r", (2, 4), 4)
    w_e = u(26, "ca.e", (4, 2), 2)
    got = ad.channel_attention(x, w_r, w_e)
    ref = oracles.hand_channel_attention(x, w_r, w_e)
    assert np.allclose(got, ref, rtol=1e-14, atol=1e-15)


def test_spatial_attention_matches_hand_pipeline():
    x = u(27, "sa.x", (3, 6, 6), 4)
    w = u(28, "sa.w", (1, 2, 7, 7), 98)
    got = ad.spatial_attention(x, w)
    ref = oracles.hand_spatial_attention(x, w)
    assert np.allclose(got, ref, rtol=1e-14, atol=1e-15)


def test_spatial_attention_needs_odd_kernel():
    with pytest.raises(InvalidArgumentError):
        ad.spatial_attention(np.zeros((2, 4, 4)), np.zeros((1, 2, 4, 4)))


# ---------------------------------------------------------------------------
# MAC counter

def test_counter_tallies_conv_pool_matmul():
    x = np.ones((2, 8, 8))
    w = np.ones((3, 2, 3, 3))
    with ops.count_macs() as c:
        ops.conv2d(x, w, None, 1, 1)
    assert c.macs == 3 * 8 * 8 * 2 * 3 * 3

    with ops.count_macs() as c:
        ops.avg_pool(x, 2)
    assert c.macs == 2 * 4 * 4 * 2 * 2

    with ops.count_macs() as c:
        ops.matmul(np.ones((3, 4)), np.ones((4, 5)))
    assert c.macs == 3 * 4 * 5


def test_counter_tallies_dct_and_resize():
    x = np.ones((2, 6, 4))
    with ops.count_macs() as c:
        ops.dct2(x)
    assert c.macs == 2 * (6 * 6 * 4 + 6 * 4 * 4)
    with ops.count_macs() as c:
        ops.bilinear_resize(x, 9, 9)
    assert c.macs == 4 * 2 * 9 * 9


def test_counter_nesting_and_isolation():
    ops.conv2d(np.ones((1, 4, 4)), np.ones((1, 1, 3, 3)))  # outside: untracked
    with ops.count_macs() as outer:
        ops.matmul(np.ones((2, 2)), np.ones((2, 2)))
        with ops.count_macs() as inner:
            ops.matmul(np.ones((2, 2)), np.ones((2, 2)))
    assert inner.macs == 8
    assert outer.macs == 16  # nested work counts toward both
