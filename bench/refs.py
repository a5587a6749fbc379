"""Independent numpy references for the benchmark's output checks.

Each function is written from the definition documented in the library's
docstrings and never imports densefocus, so a check built on it stays
valid when the library's internals change.  Sums run in numpy's own order,
so comparisons against the library use a tolerance, not bit equality.
"""

from __future__ import annotations

import math

import numpy as np


def sigmoid(z):
    # tanh form: a different formula from the library's exp(-|z|) form
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def relu(z):
    return np.maximum(z, 0.0)


def softmax_rows(m):
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def conv2d(x, w, b=None, pad=0, stride=1):
    """Zero-padded cross-correlation of [C,H,W] with [O,C,kh,kw]."""
    _, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((co, oh, ow))
    for ky in range(kh):
        for kx in range(kw):
            patch = xp[:, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride]
            out += np.einsum("oc,chw->ohw", w[:, :, ky, kx], patch)
    if b is not None:
        out += b[:, None, None]
    return out


def depthwise_separable(x, dw, pw, pb):
    """Per-channel odd 'same' conv, then a 1x1 conv."""
    c, h, wd = x.shape
    k = dw.shape[2]
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    mid = np.zeros((c, h, wd))
    for ky in range(k):
        for kx in range(k):
            mid += dw[:, 0, ky, kx][:, None, None] * xp[:, ky:ky + h, kx:kx + wd]
    return conv2d(mid, pw, pb)


def avg_pool(x, k):
    """Stride-k average pool; the bottom/right edge is replicated so every
    window is full and the divisor is always k*k."""
    c, h, w = x.shape
    oh = -(-max(h - k, 0) // k) + 1
    ow = -(-max(w - k, 0) // k) + 1
    xp = np.pad(x, ((0, 0), (0, oh * k - h), (0, ow * k - w)), mode="edge")
    return xp.reshape(c, oh, k, ow, k).mean(axis=(2, 4))


def _interp_matrix(n_in, n_out):
    """Align-corners linear interpolation as an [n_out, n_in] matrix."""
    r = np.zeros((n_out, n_in))
    for i in range(n_out):
        src = 0.5 * (n_in - 1) if n_out == 1 else i * (n_in - 1) / (n_out - 1)
        lo = min(int(math.floor(src)), n_in - 1)
        hi = min(lo + 1, n_in - 1)
        f = src - lo
        r[i, lo] += 1.0 - f
        r[i, hi] += f
    return r


def bilinear(x, out_h, out_w):
    ry = _interp_matrix(x.shape[1], out_h)
    rx = _interp_matrix(x.shape[2], out_w)
    return np.einsum("ij,cjk,lk->cil", ry, x, rx)


def dct_matrix(n):
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    t = np.sqrt(2.0 / n) * np.cos(math.pi * (2 * j + 1) * k / (2 * n))
    t[0] = math.sqrt(1.0 / n)
    return t


def channel_attention(x, w_reduce, w_expand):
    gate = sigmoid(w_expand @ relu(w_reduce @ x.mean(axis=(1, 2))))
    return x * gate[:, None, None]


def spatial_attention(x, w):
    stacked = np.stack([x.mean(axis=0), x.max(axis=0)])
    k = w.shape[2]
    return x * sigmoid(conv2d(stacked, w, pad=(k - 1) // 2))


def calibrate(d, calib):
    hidden = relu(conv2d(d, calib.w1, calib.b1, pad=1))
    return sigmoid(conv2d(hidden, calib.w2, calib.b2))


def dffm(p, d_raw, params, kernels):
    """Dual-frequency fusion from its definition: per kernel, pool, split
    the DCT spectrum by density-coupled masks, enhance each band, mix with
    a density-gated channel affinity, resize back; add a 3x3 conv path and
    mix everything with a 1x1 conv."""
    c, h, w = p.shape
    d_cal = calibrate(d_raw, params.calib)
    total = conv2d(p, params.conv_w, params.conv_b, pad=1)
    for k, path in zip(kernels, params.paths):
        pooled = avg_pool(p, k)
        _, ph, pw = pooled.shape
        d_k = bilinear(d_raw, ph, pw)
        dc_k = bilinear(d_cal, ph, pw)
        m_low = sigmoid(conv2d(pooled * d_k, path.mask_w, path.mask_b))
        th, tw = dct_matrix(ph), dct_matrix(pw)
        spectrum = th @ pooled @ tw.T
        f_low = channel_attention(th.T @ (spectrum * m_low) @ tw,
                                  path.ca_reduce, path.ca_expand)
        f_high = spatial_attention(th.T @ (spectrum * (1.0 - m_low)) @ tw, path.sa_w)
        dflat = dc_k.reshape(1, -1)
        gated_high = (path.mix_high @ f_high.reshape(c, -1)) * dflat
        gated_low = (path.mix_low @ f_low.reshape(c, -1)) * (1.0 - dflat)
        affinity = softmax_rows(gated_high @ gated_low.T)
        mixed = (affinity @ pooled.reshape(c, -1)).reshape(c, ph, pw) + dc_k
        total = total + bilinear(mixed, h, w)
    return conv2d(total, params.out_w, params.out_b)


def dafm_stages(x, bank, ifam, local):
    """The two sigmoid-gated attention stages through a given agent bank.

    Returns (gathered [n,d], block output [C,H,W]) where the output is the
    global branch plus the given local branch.
    """
    c, h, w = x.shape
    rows = x.reshape(c, h * w).T
    q, k, v = rows @ ifam.w_query.T, rows @ ifam.w_key.T, rows @ ifam.w_value.T
    agents = bank.reshape(c, -1).T @ ifam.w_query.T
    scale = 1.0 / math.sqrt(q.shape[1])
    gathered = sigmoid(agents @ k.T * scale + ifam.bias_fwd[:, None]) @ v
    y = sigmoid(q @ agents.T * scale + ifam.bias_bwd[None, :]) @ gathered
    return gathered, (y @ ifam.w_out.T).T.reshape(c, h, w) + local


def density_stamp(cx, cy, bw, bh, height, width):
    """One object's truncated Gaussian: sigma is half the box diagonal,
    support is every pixel within ceil(3 sigma) of the center, scale is
    1/(2 pi sigma^2).  Returns (map clipped to the image, whether the whole
    support lies inside the image)."""
    sigma = 0.5 * math.hypot(bw, bh)
    r = math.ceil(3.0 * sigma)
    rows = np.arange(height)[:, None] - cy
    cols = np.arange(width)[None, :] - cx
    dist2 = rows ** 2 + cols ** 2
    stamp = np.exp(-dist2 / (2.0 * sigma * sigma)) / (2.0 * math.pi * sigma * sigma)
    stamp[dist2 > r * r] = 0.0
    inside = r <= cx <= width - 1 - r and r <= cy <= height - 1 - r
    return stamp, inside


def central_difference(f, arrays, name, index, eps):
    """(f(x + eps e_i) - f(x - eps e_i)) / (2 eps) for one coordinate."""
    arr = arrays[name]
    flat_view = arr.reshape(-1)
    saved = flat_view[index]
    try:
        flat_view[index] = saved + eps
        up = f(arrays)
        flat_view[index] = saved - eps
        down = f(arrays)
    finally:
        flat_view[index] = saved
    return (up - down) / (2.0 * eps)
