"""Reverse-mode automatic differentiation over the ops in :mod:`.ops`.

A :class:`Var` wraps a float64 ndarray plus the tape links needed to run
vector-Jacobian products.  Each differentiable op is defined once, by
``defop(forward, vjp)``, in the idiom of the JAX ``custom_vjp`` bwd and
PyTorch ``autograd.Function.backward``: ``forward`` is the plain numpy
kernel, and ``vjp`` maps the output cotangent to one cotangent per
positional argument, computing only those the tape needs.  A call with no
Var among its positional arguments returns ``forward(*args)`` untouched;
otherwise the op records one tape node, whose vjp runs once per backward.
Blocks composed from registered ops (the channel and spatial attention
gates, the depthwise-separable conv) need no registration of their own, so
module forwards work both as fast inference code and as differentiable
graphs.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import ops
from .errors import InvalidArgumentError, UnsupportedOperationError
from .rng import Rng


class Var:
    """Graph node: a value, an accumulated gradient, and parent links."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = ops.as_tensor(value, "Var value")
        self.grad = None
        self._parents = tuple(parents)
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Var(shape={self.value.shape}, grad={'set' if self.grad is not None else 'None'})"


def value_of(x, name: str = "tensor") -> np.ndarray:
    """The array behind ``x``: a Var's value, or ``x`` as a float64 array."""
    return x.value if isinstance(x, Var) else ops.as_tensor(x, name)


def shape_of(x, name: str = "tensor") -> tuple:
    return value_of(x, name).shape


def defop(forward, vjp):
    """Register ``forward`` as a differentiable op.

    ``vjp(g, out, needs, *args, **kwargs)`` gets the output cotangent, the
    forward output and the call's arguments with each Var replaced by its
    value.  It returns one cotangent, or ``None``, per positional argument,
    and computes none where ``needs[i]`` is false (argument ``i`` is not a
    Var).  Keyword arguments reach the forward and the vjp unchanged, so a
    Var among them is rejected rather than silently left off the tape.
    """
    @functools.wraps(forward)
    def op(*args, **kwargs):
        for key, value in kwargs.items():
            if isinstance(value, Var):
                raise UnsupportedOperationError(
                    f"{forward.__name__}: Var passed by keyword {key!r}; "
                    f"pass it positionally to differentiate it")
        needs = tuple(isinstance(a, Var) for a in args)
        if not any(needs):
            return forward(*args, **kwargs)
        values = [a.value if need else a for a, need in zip(args, needs)]
        out = forward(*values, **kwargs)
        return Var(out, itertools.compress(args, needs),
                   lambda g: itertools.compress(vjp(g, out, needs, *values, **kwargs),
                                                needs))
    return op


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# backward pass

def _topo_order(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents)
    return order


def backward(out: Var, cotangent=None) -> None:
    """Populate ``.grad`` on every leaf reachable from ``out``.

    Gradients from any previous backward over the same graph are cleared
    first, so each call gives fresh accumulations in a fixed order.  An
    interior node's cotangent is freed as soon as its vjp has consumed it,
    so afterwards every interior node (``out`` too, unless it is a leaf)
    reads ``.grad is None``; use :func:`vjp` to get an interior cotangent.
    """
    _backward(out, cotangent, keep=())


def _backward(out: Var, cotangent, keep) -> None:
    """:func:`backward`, but the nodes in ``keep`` hold their ``.grad``."""
    if not isinstance(out, Var):
        raise UnsupportedOperationError("backward: output is not a graph node")
    order = _topo_order(out)
    for node in order:
        node.grad = None
    if cotangent is None:
        ct = np.ones_like(out.value)
    else:
        ct = ops.as_tensor(cotangent, "cotangent")
        if ct.shape != out.value.shape:
            raise InvalidArgumentError(
                f"cotangent shape {ct.shape} != output shape {out.value.shape}")
    out.grad = ct
    kept = {id(node) for node in keep}
    for node in reversed(order):
        g = node.grad
        if g is None or node._vjp is None:
            continue
        if id(node) not in kept:
            node.grad = None
        for parent, contrib in zip(node._parents, node._vjp(g)):
            if contrib is not None:
                parent.grad = contrib if parent.grad is None else parent.grad + contrib


def vjp(out: Var, cotangent, wrt) -> list[np.ndarray]:
    """Vector-Jacobian product: gradients of ``<cotangent, out>`` w.r.t.
    each node in ``wrt`` (zeros where a node does not influence ``out``).

    A node in ``wrt`` may be interior: it keeps its ``.grad`` through the
    backward, while every other interior cotangent is freed as in
    :func:`backward`.
    """
    wrt = list(wrt)
    _backward(out, cotangent, keep=wrt)
    return [w.grad if w.grad is not None else np.zeros_like(w.value) for w in wrt]


_GRAD_CHECK_COORDS = 512


def grad_check(scalar_fn, point, eps: float = 1e-6, seed: int = 0) -> float:
    """Compare tape gradients of a scalar-valued function against central
    finite differences.

    ``point`` is one array or a sequence of arrays.  When the total number
    of coordinates exceeds ``_GRAD_CHECK_COORDS`` (512), a seeded subset of
    that many is probed.
    Returns the maximum relative error max|analytic - numeric| /
    max(1e-8, |numeric|) over the probed coordinates, NaN if any is NaN.
    """
    if isinstance(point, np.ndarray) or np.isscalar(point):
        point = [point]
    arrays = [ops.as_tensor(p, f"point[{i}]").copy() for i, p in enumerate(point)]

    leaves = [Var(a.copy()) for a in arrays]
    out = scalar_fn(*leaves)
    if not isinstance(out, Var):
        raise UnsupportedOperationError("grad_check: function did not build a graph")
    if out.value.size != 1:
        raise InvalidArgumentError(
            f"grad_check: function must be scalar-valued, got shape {out.value.shape}")
    backward(out)
    analytic = [v.grad if v.grad is not None else np.zeros_like(v.value) for v in leaves]

    def eval_at(mod_arrays) -> float:
        res = scalar_fn(*[Var(a.copy()) for a in mod_arrays])
        return float(res.value)

    sizes = [a.size for a in arrays]
    total = sum(sizes)
    if total <= _GRAD_CHECK_COORDS:
        coords = [(ai, flat) for ai, n in enumerate(sizes) for flat in range(n)]
    else:
        rng = Rng(seed)
        coords = []
        for _ in range(_GRAD_CHECK_COORDS):
            flat = rng.randint(0, total - 1)
            ai = 0
            while flat >= sizes[ai]:
                flat -= sizes[ai]
                ai += 1
            coords.append((ai, flat))

    max_err = 0.0
    for ai, flat in coords:
        saved = arrays[ai].flat[flat]
        arrays[ai].flat[flat] = saved + eps
        f_plus = eval_at(arrays)
        arrays[ai].flat[flat] = saved - eps
        f_minus = eval_at(arrays)
        arrays[ai].flat[flat] = saved
        numeric = (f_plus - f_minus) / (2.0 * eps)
        an = float(analytic[ai].flat[flat])
        err = abs(an - numeric) / max(1e-8, abs(numeric))
        max_err = np.maximum(max_err, err)  # a NaN error stays the maximum
    return float(max_err)


# ---------------------------------------------------------------------------
# elementwise / structural primitives

def _binary(fn, da, db):
    """A broadcasting binary op; ``da(g, b)`` and ``db(g, a)`` give each
    argument's cotangent before it is summed back to the argument's shape."""
    return defop(lambda a, b: fn(ops.as_tensor(a), ops.as_tensor(b)),
                 lambda g, out, needs, a, b: (
                     _unbroadcast(da(g, b), a.shape) if needs[0] else None,
                     _unbroadcast(db(g, a), b.shape) if needs[1] else None))


add = _binary(np.add, lambda g, b: g, lambda g, a: g)
subtract = _binary(np.subtract, lambda g, b: g, lambda g, a: -g)
multiply = _binary(np.multiply, lambda g, b: g * b, lambda g, a: g * a)
scale = defop(lambda x, s: ops.as_tensor(x) * float(s),
              lambda g, out, needs, x, s: (g * float(s),))
reshape = defop(lambda x, shape: ops.as_tensor(x).reshape(shape),
                lambda g, out, needs, x, shape: (g.reshape(x.shape),))


def _transpose2d(x):
    v = ops.as_tensor(x)
    if v.ndim != 2:
        raise InvalidArgumentError(f"transpose2d: expected 2-D, got {v.shape}")
    return v.T.copy()


transpose2d = defop(_transpose2d, lambda g, out, needs, x: (g.T,))


def _chw_to_rows(x):
    """[C,H,W] -> [H*W, C] row-major pixel rows."""
    v = ops.require_chw(ops.as_tensor(x), "chw_to_rows input")
    return np.ascontiguousarray(v.reshape(v.shape[0], -1).T)


chw_to_rows = defop(_chw_to_rows, lambda g, out, needs, x:
                    (np.ascontiguousarray(g.T).reshape(x.shape),))


def _rows_to_chw(x, chw_shape):
    """[H*W, C] -> [C,H,W]; inverse of :func:`chw_to_rows`."""
    c, h, w = chw_shape
    v = ops.as_tensor(x)
    if v.shape != (h * w, c):
        raise InvalidArgumentError(f"rows_to_chw: shape {v.shape} != ({h * w},{c})")
    return np.ascontiguousarray(v.T).reshape(c, h, w)


rows_to_chw = defop(_rows_to_chw, lambda g, out, needs, x, chw_shape:
                    (np.ascontiguousarray(g.reshape(chw_shape[0], -1).T),))
concat_channels = defop(
    lambda a, b: np.concatenate([ops.as_tensor(a), ops.as_tensor(b)], axis=0),
    lambda g, out, needs, a, b: (g[:a.shape[0]] if needs[0] else None,
                                 g[np.shape(a)[0]:] if needs[1] else None))
sum_all = defop(lambda x: np.asarray(ops.as_tensor(x).sum()),
                lambda g, out, needs, x: (np.full(x.shape, float(g)),))
mean_all = defop(lambda x: np.asarray(ops.as_tensor(x).mean()),
                 lambda g, out, needs, x: (np.full(x.shape, float(g) / x.size),))


def _mean_axes_vjp(g, out, needs, x, axes, keepdims=False):
    gg = g if keepdims else np.expand_dims(g, tuple(axes))
    return (np.broadcast_to(gg / math.prod(x.shape[ax] for ax in axes), x.shape).copy(),)


mean_axes = defop(lambda x, axes, keepdims=False:
                  ops.as_tensor(x).mean(axis=tuple(axes), keepdims=keepdims),
                  _mean_axes_vjp)


def _max_channels_vjp(g, out, needs, x):
    dx = np.zeros_like(x)
    np.put_along_axis(dx, x.argmax(axis=0)[None], g, axis=0)
    return (dx,)


# Channelwise max of a [C,H,W] map -> [1,H,W]; the subgradient goes to the
# first attaining channel.
max_channels = defop(lambda x: ops.as_tensor(x).max(axis=0, keepdims=True),
                     _max_channels_vjp)


# ---------------------------------------------------------------------------
# activations, linear algebra, spectral

sigmoid = defop(ops.sigmoid, lambda g, out, needs, x: (g * out * (1.0 - out),))
relu = defop(ops.relu, lambda g, out, needs, x: (g * (x > 0.0),))
softmax = defop(ops.softmax, lambda g, out, needs, x, axis=-1:
                (out * (g - (g * out).sum(axis=axis, keepdims=True)),))
matmul = defop(ops.matmul, lambda g, out, needs, a, b: (g @ b.T if needs[0] else None,
                                                         a.T @ g if needs[1] else None))


def _gated_mix_vjp(g, out, needs, a, b, bias, v):
    """Recompute each row block's gates with ops.gate_blocks, as the forward
    built them, and take the block's cotangents through the product and gate
    rules: a's rows (and an [m,1] or [m,n] bias's) come from their own block,
    while b, v and a [1,n] bias sum theirs over the blocks in order.  The gate
    rule keeps the arithmetic and operand layouts of the matmul -> scale ->
    add -> sigmoid composition (BLAS may round a product with a C-ordered b
    apart from one with the F-ordered b^T^T), and forms the score cotangent
    g*gates*(1-gates) in one owned buffer."""
    a, b, bias, v = (ops.as_tensor(t) for t in (a, b, bias, v))
    da, db, dbias, dv = (np.zeros_like(t) if need else None
                         for t, need in zip((a, b, bias, v), needs))
    b_f = np.asfortranarray(b) if needs[0] else None
    for rows, gates in ops.gate_blocks(a, b, bias):
        if needs[3]:
            dv += gates.T @ g[rows]
        if any(needs[:3]):
            t = g[rows] @ v.T
            t *= gates
            t *= 1.0 - gates
            if needs[2]:
                blk = dbias if bias.shape[0] == 1 else dbias[rows]
                blk += _unbroadcast(t, blk.shape)
            t *= 1.0 / math.sqrt(a.shape[1])
            if needs[0]:
                da[rows] = t @ b_f
            if needs[1]:
                db += (a[rows].T @ t).T
    return da, db, dbias, dv


gated_mix = defop(ops.gated_mix, _gated_mix_vjp)
dct2 = defop(ops.dct2, lambda g, out, needs, x: (ops.idct2(g),))
idct2 = defop(ops.idct2, lambda g, out, needs, x: (ops.dct2(g),))


# ---------------------------------------------------------------------------
# convolution / pooling / resampling

def _conv2d_vjp(g, out, needs, x, weight, bias=None, stride=1, pad=0):
    """Input and weight cotangents in one pass over the kernel taps, each one
    np.dot on the 2-D operands np.tensordot would build, with its bits."""
    c_out, c_in, kh, kw = weight.shape
    _, h, w = x.shape
    out_h, out_w = g.shape[1:]
    g2 = g.reshape(c_out, -1)
    w_taps = weight.transpose(2, 3, 1, 0)                   # [kh, kw, c_in, c_out]
    gp = np.zeros((c_in, h + 2 * pad, w + 2 * pad)) if needs[0] else None
    xp = ops.zero_pad(x, pad) if needs[1] else None
    dw = np.empty(weight.shape)
    for ky in range(kh):
        for kx in range(kw):
            window = (slice(None), slice(ky, ky + stride * out_h, stride),
                      slice(kx, kx + stride * out_w, stride))
            if needs[0]:
                gp[window] += np.dot(w_taps[ky, kx], g2).reshape(c_in, out_h, out_w)
            if needs[1]:
                dw[:, :, ky, kx] = np.dot(g2, xp[window].transpose(1, 2, 0).reshape(-1, c_in))
    return (gp[:, pad:pad + h, pad:pad + w] if needs[0] else None, dw if needs[1] else None,
            g.sum(axis=(1, 2)) if len(needs) > 2 and needs[2] else None)


conv2d = defop(ops.conv2d, _conv2d_vjp)


def _avg_pool_vjp(g, out, needs, x, k):
    _, h, w = x.shape
    # each padded pixel lies in one window; + 0.0 turns a -0.0 share into
    # +0.0, as accumulating onto zeros does
    gp = (g / (k * k)).repeat(k, axis=1).repeat(k, axis=2) + 0.0
    pad_h, pad_w = gp.shape[1] - h, gp.shape[2] - w
    dx = gp[:, :h, :w].copy()
    # fold replicated-edge contributions back onto the last row/column
    if pad_h:
        dx[:, h - 1, :] += gp[:, h:, :w].sum(axis=1)
    if pad_w:
        dx[:, :, w - 1] += gp[:, :h, w:].sum(axis=2)
    if pad_h and pad_w:
        dx[:, h - 1, w - 1] += gp[:, h:, w:].sum(axis=(1, 2))
    return (dx,)


avg_pool = defop(ops.avg_pool, _avg_pool_vjp)


def _depthwise_vjp(g, out, needs, x, weight):
    """One single-channel :func:`_conv2d_vjp` per channel, as the forward."""
    pad = (weight.shape[2] - 1) // 2
    parts = [_conv2d_vjp(g[i:i + 1], None, needs, x[i:i + 1], weight[i:i + 1], None, 1, pad)
             for i in range(x.shape[0])]
    return tuple(np.concatenate(cts) if need else None for need, cts in zip(needs, zip(*parts)))


depthwise_conv = defop(ops.depthwise_conv, _depthwise_vjp)


def depthwise_separable_conv(x, dw_weight, pw_weight, pw_bias=None):
    """:func:`depthwise_conv` followed by a 1x1 pointwise conv."""
    return conv2d(depthwise_conv(x, dw_weight), pw_weight, pw_bias, 1, 0)


def _bilinear_vjp(g, out, needs, x, out_h, out_w):
    if out.shape == x.shape:
        return (g,)
    index, weight = ops.bilinear_table(*x.shape[1:], out_h, out_w)
    size = x.shape[1] * x.shape[2]
    return (np.stack([np.bincount(index.ravel(), weights=(gc * weight).ravel(), minlength=size)
                      for gc in g]).reshape(x.shape),)


bilinear_resize = defop(ops.bilinear_resize, _bilinear_vjp)


# ---------------------------------------------------------------------------
# attention blocks (composed from registered ops, so gradients flow)

def channel_attention(x, w_reduce, w_expand):
    """Squeeze-and-excitation channel gate.

    Global average -> linear (C -> mid) -> ReLU -> linear (mid -> C) ->
    sigmoid -> per-channel rescale of the input.
    """
    c = ops.require_chw(value_of(x, "channel_attention input"),
                        "channel_attention input").shape[0]
    r_shape = shape_of(w_reduce, "w_reduce")
    if len(r_shape) != 2 or r_shape[1] != c:
        raise InvalidArgumentError(
            f"channel_attention: w_reduce shape {r_shape} incompatible with C={c}")
    if shape_of(w_expand, "w_expand") != (c, r_shape[0]):
        raise InvalidArgumentError(
            f"channel_attention: w_expand shape {shape_of(w_expand)} != ({c},{r_shape[0]})")
    squeeze = reshape(mean_axes(x, (1, 2)), (c, 1))
    hidden = relu(matmul(w_reduce, squeeze))
    gate = sigmoid(matmul(w_expand, hidden))
    return multiply(x, reshape(gate, (c, 1, 1)))


def spatial_attention(x, w_conv):
    """Spatial gate: channel mean & max stacked into a 2-channel map, odd
    'same' conv to 1 channel, sigmoid, broadcast rescale."""
    ops.require_chw(value_of(x, "spatial_attention input"), "spatial_attention input")
    w_shape = shape_of(w_conv, "spatial conv weight")
    if len(w_shape) != 4 or w_shape[:2] != (1, 2):
        raise InvalidArgumentError(
            f"spatial_attention: weight must be [1,2,k,k], got {w_shape}")
    k = w_shape[2]
    if w_shape[3] != k or k % 2 == 0:
        raise InvalidArgumentError("spatial_attention: kernel must be square and odd")
    stacked = concat_channels(mean_axes(x, (0,), keepdims=True), max_channels(x))
    gate = sigmoid(conv2d(stacked, w_conv, None, 1, (k - 1) // 2))
    return multiply(x, gate)
