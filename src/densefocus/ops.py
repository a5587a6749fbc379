"""Core numeric kernels on [C, H, W] float64 feature maps.

This module holds forward kernels only; :mod:`.autodiff` registers each
differentiable one, with its vector-Jacobian products, through ``defop``.

Conventions that the rest of the library leans on:

* every tensor is a C-contiguous float64 ndarray, channel-first;
* convolution/pooling accumulate in a fixed order (kernel positions
  row-major, then input channels) so that naive triple-loop reference
  implementations reproduce the results bit for bit;
* the 2-D DCT is the orthonormal type-II transform applied per channel;
* operations that multiply-accumulate report their work to any active
  ``count_macs`` context, so a cost is counted around the block that runs
  (``dafm_forward``, say) rather than estimated.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, NumericError


# ---------------------------------------------------------------------------
# multiply-accumulate counter

class MacCounter:
    __slots__ = ("macs",)

    def __init__(self):
        self.macs = 0


_ACTIVE_COUNTERS: list[MacCounter] = []


def _tally(n: int) -> None:
    if _ACTIVE_COUNTERS:
        for counter in _ACTIVE_COUNTERS:
            counter.macs += int(n)


@contextmanager
def count_macs():
    """Context manager yielding a counter of multiply-accumulates executed
    by ops in this module while the context is active.  Not thread-safe;
    intended for tests and cost reports."""
    counter = MacCounter()
    _ACTIVE_COUNTERS.append(counter)
    try:
        yield counter
    finally:
        _ACTIVE_COUNTERS.remove(counter)


# ---------------------------------------------------------------------------
# small validation helpers

def as_tensor(x, name: str = "tensor") -> np.ndarray:
    """Coerce to a float64 ndarray (no copy when already float64)."""
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{name}: not convertible to float64 array") from exc
    return arr


def require_chw(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    if x.ndim != 3:
        raise InvalidArgumentError(f"{name}: expected 3-D [C,H,W], got shape {x.shape}")
    if min(x.shape) < 1:
        raise InvalidArgumentError(f"{name}: zero extent in shape {x.shape}")
    return x


def require_finite(x: np.ndarray, label: str, error=NumericError) -> np.ndarray:
    """``x`` itself when it holds no NaN or infinity; else raise ``error``."""
    if not np.isfinite(x).all():
        raise error(f"{label}: non-finite values")
    return x


# a box area must be a normal float, and at most max/8 so that two areas and
# their intersection (at most 4x the smaller area after rounding) add up finitely
_MIN_AREA, _MAX_AREA = sys.float_info.min, sys.float_info.max / 8


def require_box(x, y, w, h, label: str, error=InvalidArgumentError) -> tuple:
    """(x, y, w, h) as floats when the evaluator can score the box: finite
    values, positive extents, finite far corners x + w and y + h, and an
    area w*h in [_MIN_AREA, _MAX_AREA]; else raise ``error``."""
    x, y, w, h = box = float(x), float(y), float(w), float(h)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(w) and math.isfinite(h)):
        raise error(f"{label}: non-finite bbox {box}")
    if not (w > 0 and h > 0):
        raise error(f"{label}: non-positive bbox {w}x{h}")
    if not (math.isfinite(x + w) and math.isfinite(y + h)):
        raise error(f"{label}: bbox corner ({x + w}, {y + h}) overflows")
    if not _MIN_AREA <= w * h <= _MAX_AREA:
        raise error(f"{label}: bbox area {w * h} is not a normal float up to max/8")
    return box


def zero_map(height: int, width: int, label: str) -> np.ndarray:
    """A zero [1,H,W] map; extents numpy cannot allocate raise InvalidArgumentError."""
    try:
        return np.zeros((1, height, width))
    except (ValueError, MemoryError) as exc:
        raise InvalidArgumentError(f"{label}: cannot allocate {height}x{width} ({exc})") from exc


def zero_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """A [C,H,W] map with ``pad`` zero rows and columns on every side."""
    c, h, w = x.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    return xp


# ---------------------------------------------------------------------------
# resampling and pooling

def bilinear_taps(h: int, w: int, out_h: int, out_w: int) -> list:
    """The four (rows, cols, weight) taps of an align-corners resize from
    h x w to out_h x out_w, ordered top-left, top-right, bottom-left,
    bottom-right.  Output pixel (i, j) reads input (rows[i], cols[j]) with
    weight[i, j].  :func:`bilinear_table` holds them for the resize and its
    vjp."""
    def axis_coords(n_in, n_out):
        if n_out == 1:
            src = np.array([0.5 * (n_in - 1)])
        else:
            src = np.arange(n_out, dtype=np.float64) * ((n_in - 1) / (n_out - 1))
        lo = np.clip(np.floor(src).astype(np.int64), 0, n_in - 1)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = src - lo
        return (lo, 1.0 - frac), (hi, frac)

    return [(yi, xi, wy[:, None] * wx[None, :])
            for yi, wy in axis_coords(h, out_h) for xi, wx in axis_coords(w, out_w)]


@lru_cache(maxsize=32)
def bilinear_table(h: int, w: int, out_h: int, out_w: int) -> tuple:
    """:func:`bilinear_taps` as one read-only table: the flat input index
    [4, out_h*out_w] and the weight [4, out_h, out_w] of each tap.  The resize
    gathers each tap with one np.take, and its vjp scatters all four, tap by
    tap, with one np.bincount per channel."""
    taps = bilinear_taps(h, w, out_h, out_w)
    index = np.stack([(yi[:, None] * w + xi[None, :]).ravel() for yi, xi, _ in taps])
    weight = np.stack([wt for _, _, wt in taps])
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight


def bilinear_resize(x, out_h: int, out_w: int) -> np.ndarray:
    """Align-corners bilinear resize of a [C,H,W] map to [C,out_h,out_w].

    Output values are convex combinations of the four surrounding input
    samples, so per-channel min/max bounds are preserved.  A same-size
    resize returns an identical copy.
    """
    x = require_chw(as_tensor(x, "resize input"), "resize input")
    if out_h < 1 or out_w < 1:
        raise InvalidArgumentError(f"resize: target extent must be >= 1, got {out_h}x{out_w}")
    c, h, w = x.shape
    if (out_h, out_w) == (h, w):
        return x.copy()
    index, weight = bilinear_table(h, w, out_h, out_w)
    flat = x.reshape(c, h * w)
    t = [np.take(flat, ik, axis=1).reshape(c, out_h, out_w) for ik in index]
    for tk, wk in zip(t, weight):
        tk *= wk
    # (t0 + t1) + (t2 + t3), in the gathered buffers
    t[0] += t[1]
    t[2] += t[3]
    t[0] += t[2]
    _tally(4 * c * out_h * out_w)
    return t[0]


def pool_output_extent(n_in: int, k: int) -> int:
    return (n_in + k - 1) // k


def avg_pool(x, k: int) -> np.ndarray:
    """Non-overlapping k x k average pooling (stride k) with edge-replication
    padding on the bottom/right so every window is full; divisor is always
    k*k.  Window contributions are accumulated kernel-position row-major for
    oracle bit-equality."""
    x = require_chw(as_tensor(x, "pool input"), "pool input")
    if k < 1:
        raise InvalidArgumentError(f"avg_pool: kernel must be >= 1, got {k}")
    c, h, w = x.shape
    out_h = pool_output_extent(h, k)
    out_w = pool_output_extent(w, k)
    xp = np.pad(x, ((0, 0), (0, out_h * k - h), (0, out_w * k - w)), mode="edge")

    acc = np.zeros((c, out_h, out_w))
    for ky in range(k):
        for kx in range(k):
            acc += xp[:, ky::k, kx::k]
    _tally(c * out_h * out_w * k * k)
    return acc / (k * k)


# ---------------------------------------------------------------------------
# convolution

# elements in one column block of the conv accumulator (1 MB): the block and
# its product temporary stay in L2 across every tap and input channel
_CONV_BLOCK = 1 << 17
# ufunc buffer for the tap loop: at numpy's default 8192, rows shorter than
# ~4096 go through the iterator's buffers; 16 runs the plain strided loop
_CONV_BUFSIZE = 16


def conv2d(x, weight, bias=None, stride: int = 1, pad: int = 0) -> np.ndarray:
    """2-D convolution (cross-correlation), zero padding.

    weight is [C_out, C_in, kh, kw]; accumulation order is kernel positions
    row-major, then input channels ascending, starting from the bias.
    """
    x = require_chw(as_tensor(x, "conv input"), "conv input")
    weight = as_tensor(weight, "conv weight")
    if weight.ndim != 4:
        raise InvalidArgumentError(f"conv2d: weight must be 4-D, got shape {weight.shape}")
    c_out, c_in, kh, kw = weight.shape
    if min(weight.shape) < 1:
        raise InvalidArgumentError(f"conv2d: zero extent in weight shape {weight.shape}")
    if stride < 1:
        raise InvalidArgumentError(f"conv2d: stride must be >= 1, got {stride}")
    if pad < 0:
        raise InvalidArgumentError(f"conv2d: pad must be >= 0, got {pad}")
    c, h, w = x.shape
    if c != c_in:
        raise InvalidArgumentError(f"conv2d: input has {c} channels, weight expects {c_in}")
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise InvalidArgumentError("conv2d: kernel larger than padded input")
    if bias is not None:
        bias = as_tensor(bias, "conv bias")
        if bias.shape != (c_out,):
            raise InvalidArgumentError(f"conv2d: bias shape {bias.shape} != ({c_out},)")

    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    # Zero-pad once to whole multiples of the stride, then split into the
    # stride x stride phases xp[:, py::stride, px::stride], each flattened.
    # Tap (ky, kx) then reads every output position of its phase as one
    # contiguous run at offset (ky // stride) * aw + kx // stride, and the
    # aw - out_w surplus columns of each output row are dropped at the end.
    ah = -(-(h + 2 * pad) // stride)
    aw = -(-(w + 2 * pad) // stride)
    if (stride * ah, stride * aw) == (h, w):
        xp = x
    else:
        xp = np.zeros((c, stride * ah, stride * aw))
        xp[:, pad:pad + h, pad:pad + w] = x
    phases = np.ascontiguousarray(
        xp.reshape(c, ah, stride, aw, stride).transpose(2, 4, 0, 1, 3)
    ).reshape(stride, stride, c, ah * aw)

    w_taps = weight.transpose(2, 3, 1, 0)[..., None]        # [kh, kw, c_in, c_out, 1]
    n = (out_h - 1) * aw + out_w                # flat positions up to the last output
    cols = min(n, max(1, _CONV_BLOCK // c_out))
    acc = np.empty((c_out, out_h * aw))
    buf = np.empty((2, c_out * cols))           # one contiguous block and its product
    with np.errstate():                         # restores the buffer size on exit
        np.setbufsize(_CONV_BUFSIZE)
        for c0 in range(0, n, cols):
            m = min(cols, n - c0)
            blk = buf[0, :c_out * m].reshape(c_out, m)
            t = buf[1, :c_out * m].reshape(c_out, m)
            blk[:] = 0.0 if bias is None else bias[:, None]
            for ky in range(kh):
                for kx in range(kw):
                    start = (ky // stride) * aw + kx // stride + c0
                    run = phases[ky % stride, kx % stride, :, start:start + m]
                    for ci in range(c_in):
                        np.multiply(w_taps[ky, kx, ci], run[ci], out=t)
                        blk += t
            acc[:, c0:c0 + m] = blk
    _tally(c_out * out_h * out_w * c_in * kh * kw)
    return np.ascontiguousarray(acc.reshape(c_out, out_h, aw)[:, :, :out_w])


def conv2d_relu(x, weight, bias=None, stride: int = 1, pad: int = 0) -> np.ndarray:
    """:func:`relu` of :func:`conv2d`, clamped in place on the fresh output."""
    out = conv2d(x, weight, bias, stride, pad)
    return np.maximum(out, 0.0, out=out)


def depthwise_conv(x, dw_weight) -> np.ndarray:
    """Depthwise 'same' conv (odd square kernel, stride 1, zero padding):
    one single-channel :func:`conv2d` per channel."""
    x = require_chw(as_tensor(x, "dsconv input"), "dsconv input")
    dw_weight = as_tensor(dw_weight, "depthwise weight")
    if dw_weight.ndim != 4 or dw_weight.shape[1] != 1:
        raise InvalidArgumentError(
            f"depthwise weight must be [C,1,k,k], got shape {dw_weight.shape}")
    c = x.shape[0]
    if dw_weight.shape[0] != c:
        raise InvalidArgumentError(
            f"depthwise weight has {dw_weight.shape[0]} channels, input has {c}")
    k = dw_weight.shape[2]
    if dw_weight.shape[3] != k:
        raise InvalidArgumentError("depthwise kernel must be square")
    if k % 2 == 0:
        raise InvalidArgumentError(f"depthwise kernel must be odd, got {k}")
    return np.concatenate([conv2d(x[i:i + 1], dw_weight[i:i + 1], None, 1, (k - 1) // 2)
                           for i in range(c)])


def depthwise_separable_conv(x, dw_weight, pw_weight, pw_bias=None) -> np.ndarray:
    """:func:`depthwise_conv` followed by a 1x1 pointwise conv."""
    return conv2d(depthwise_conv(x, dw_weight), pw_weight, pw_bias, stride=1, pad=0)


# ---------------------------------------------------------------------------
# activations

def _sigmoid_into(x: np.ndarray, num: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic, overwriting the float64 array ``x``.

    With t = exp(-|x|) in (0, 1], max([x >= 0], t) / (1 + t) is 1/(1+t)
    for x >= 0 and t/(1+t) otherwise, bit for bit, NaN included, without
    a mask: one extra buffer of x's shape holds the numerator, allocated
    here unless the caller passes ``num`` to reuse.
    """
    num = np.greater_equal(x, 0.0, out=np.empty_like(x) if num is None else num)
    np.abs(x, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.maximum(num, x, out=num)
    np.add(x, 1.0, out=x)
    return np.divide(num, x, out=x)


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic: exp is only ever taken of -|x|."""
    return _sigmoid_into(as_tensor(x, "sigmoid input").copy())


def relu(x) -> np.ndarray:
    return np.maximum(as_tensor(x, "relu input"), 0.0)


def softmax(x, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax; finite for inputs up to magnitude ~1e6."""
    x = as_tensor(x, "softmax input")
    if x.ndim == 0:
        raise InvalidArgumentError("softmax: scalar input has no axis")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# matrix product

def matmul(a, b) -> np.ndarray:
    a = as_tensor(a, "matmul lhs")
    b = as_tensor(b, "matmul rhs")
    if a.ndim != 2 or b.ndim != 2:
        raise InvalidArgumentError(
            f"matmul: expected 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise InvalidArgumentError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    _tally(a.shape[0] * a.shape[1] * b.shape[1])
    return a @ b


# rows of a per gate block.  A multiple of 8: OpenBLAS rounds blocks of 1, 2
# or 5 rows apart from the same rows of the whole product, and blocks of 8 to
# 128 rows alike.  64 rows of 12,544 pixels is 6.4 MB.
_MIX_ROWS = 64
# elements per chunk of the scale, bias and sigmoid passes: 512 KB, so a
# chunk stays in L2 through all of them
_GATE_BLOCK = 1 << 16


def gate_blocks(a: np.ndarray, b: np.ndarray, bias: np.ndarray):
    """Yield (rows, gates) for each fixed 64-row block of the attention gates
    sigmoid(a @ b^T / sqrt(d) + bias), for float64 arrays a [m,d], b [n,d]
    and a bias of [m,1], [1,n] or [m,n], as :func:`gated_mix` checks them.

    Every block is built in one reused [64,n] buffer, so ``gates`` holds only
    until the next block is drawn.  The product is one BLAS call; the scale,
    bias and sigmoid passes then run one cache-sized chunk of rows at a time,
    and every pass after the product is elementwise, so the gates equal the
    composition matmul -> scale -> add -> sigmoid bit for bit.
    """
    (m, d), n = a.shape, b.shape[0]
    scale = 1.0 / math.sqrt(d)
    chunk = max(1, _GATE_BLOCK // max(n, 1))
    buf = np.empty((min(_MIX_ROWS, m), n))
    for r0 in range(0, m, _MIX_ROWS):
        rows = slice(r0, r0 + _MIX_ROWS)
        gates = buf[:min(_MIX_ROWS, m - r0)]
        # b^T per block: hoisted, it would be alive beside the numerator
        np.matmul(a[rows], b.T.copy(), out=gates)
        num = np.empty((min(chunk, len(gates)), n))
        for r in range(0, len(gates), chunk):
            blk = gates[r:r + chunk]
            blk *= scale
            blk += bias if bias.shape[0] == 1 else bias[r0 + r:r0 + r + len(blk)]
            _sigmoid_into(blk, num[:len(blk)])
        del num     # freed before the caller works on the block
        yield rows, gates


def gated_mix(a, b, bias, v) -> np.ndarray:
    """sigmoid(a @ b^T / sqrt(d) + bias) @ v for a [m,d], b [n,d] and
    v [n,d_v], one :func:`gate_blocks` block at a time, so at most a [64,n]
    block of gates is ever held.  bias broadcasts against [m,n] without
    growing it: [m,1] is one scalar per row, [1,n] one per column.  MACs are
    tallied as the composition tallies them: m*d*n for the gates, m*n*d_v
    for the product."""
    a = as_tensor(a, "gated_mix lhs")
    b = as_tensor(b, "gated_mix rhs")
    bias = as_tensor(bias, "gated_mix bias")
    v = as_tensor(v, "gated_mix values")
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise InvalidArgumentError(
            f"gated_mix: expected [m,d] and [n,d], got {a.shape} and {b.shape}")
    (m, d), n = a.shape, b.shape[0]
    if bias.ndim != 2 or any(e not in (1, full) for e, full in zip(bias.shape, (m, n))):
        raise InvalidArgumentError(
            f"gated_mix: bias shape {bias.shape} does not broadcast to {(m, n)}")
    if v.ndim != 2 or v.shape[0] != n:
        raise InvalidArgumentError(f"gated_mix: values shape {v.shape} is not [{n},d_v]")
    _tally(m * d * n + m * n * v.shape[1])
    out = np.empty((m, v.shape[1]))
    for rows, gates in gate_blocks(a, b, bias):
        out[rows] = gates @ v
    return out


# ---------------------------------------------------------------------------
# orthonormal 2-D DCT, per channel

@lru_cache(maxsize=None)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal type-II DCT matrix T with T @ T.T == I."""
    if n < 1:
        raise InvalidArgumentError(f"dct_matrix: size must be >= 1, got {n}")
    k = np.arange(n, dtype=np.float64)[:, None]
    j = np.arange(n, dtype=np.float64)[None, :]
    t = np.cos(np.pi * (2.0 * j + 1.0) * k / (2.0 * n)) * np.sqrt(2.0 / n)
    t[0, :] = np.sqrt(1.0 / n)
    t.setflags(write=False)
    return t


def dct2(x) -> np.ndarray:
    """Per-channel orthonormal 2-D DCT: T_H @ x_c @ T_W^T for each channel."""
    x = require_chw(as_tensor(x, "dct input"), "dct input")
    c, h, w = x.shape
    th = dct_matrix(h)
    tw = dct_matrix(w)
    _tally(c * (h * h * w + h * w * w))
    return th @ x @ tw.T


def idct2(x) -> np.ndarray:
    """Inverse of :func:`dct2` (exact up to rounding, since T is orthonormal)."""
    x = require_chw(as_tensor(x, "idct input"), "idct input")
    c, h, w = x.shape
    th = dct_matrix(h)
    tw = dct_matrix(w)
    _tally(c * (h * h * w + h * w * w))
    return th.T @ x @ tw
