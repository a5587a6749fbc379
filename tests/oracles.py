"""Independent reference implementations used as test oracles.

Everything here is written straight from the definitions in plain loops,
deliberately not sharing code with the library: naive convolution/pooling,
the textbook orthonormal DCT, a straight-line transcription of the
region-refinement algorithm, a brute-force PR-staircase evaluator, and
step-by-step attention/fusion pipelines.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# convolution / pooling (scalar loops, fixed summation order)

def naive_conv2d(x, w, b=None, stride=1, pad=0):
    cin, h, wth = x.shape
    cout, cin_w, kh, kw = w.shape
    assert cin == cin_w
    xp = np.zeros((cin, h + 2 * pad, wth + 2 * pad), dtype=np.float64)
    xp[:, pad:pad + h, pad:pad + wth] = x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wth + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, oh, ow), dtype=np.float64)
    for co in range(cout):
        for oy in range(oh):
            for ox in range(ow):
                acc = float(b[co]) if b is not None else 0.0
                for ky in range(kh):
                    for kx in range(kw):
                        for ci in range(cin):
                            acc += w[co, ci, ky, kx] * xp[ci, oy * stride + ky,
                                                          ox * stride + kx]
                out[co, oy, ox] = acc
    return out


def tap_loop_conv2d(x, w, b=None, stride=1, pad=0):
    """conv2d in its per-tap broadcast form: for each tap (row-major), then
    each input channel (ascending), add a [C_out,1,1] weight column times a
    strided [H,W] window to the whole output, which starts from the bias."""
    cin, h, wth = x.shape
    cout, _, kh, kw = w.shape
    xp = np.zeros((cin, h + 2 * pad, wth + 2 * pad), dtype=np.float64)
    xp[:, pad:pad + h, pad:pad + wth] = x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wth + 2 * pad - kw) // stride + 1
    acc = np.empty((cout, oh, ow), dtype=np.float64)
    acc[:] = 0.0 if b is None else b[:, None, None]
    for ky in range(kh):
        for kx in range(kw):
            patch = xp[:, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride]
            for ci in range(cin):
                acc += w[:, ci, ky, kx][:, None, None] * patch[ci]
    return acc


def naive_avg_pool(x, k, stride=None):
    stride = k if stride is None else stride
    c, h, w = x.shape
    oh = (max(h - k, 0) + stride - 1) // stride + 1
    ow = (max(w - k, 0) + stride - 1) // stride + 1
    out = np.zeros((c, oh, ow), dtype=np.float64)
    for ci in range(c):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for ky in range(k):
                    for kx in range(k):
                        yy = min(oy * stride + ky, h - 1)  # replicate bottom/right
                        xx = min(ox * stride + kx, w - 1)
                        acc += x[ci, yy, xx]
                out[ci, oy, ox] = acc / (k * k)
    return out


def naive_depthwise_separable(x, dw, pw, b=None):
    c, h, wd = x.shape
    k = dw.shape[2]
    pad = (k - 1) // 2
    mid = np.zeros_like(x)
    xp = np.zeros((c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, pad:pad + h, pad:pad + wd] = x
    for ci in range(c):
        for oy in range(h):
            for ox in range(wd):
                acc = 0.0
                for ky in range(k):
                    for kx in range(k):
                        acc += dw[ci, 0, ky, kx] * xp[ci, oy + ky, ox + kx]
                mid[ci, oy, ox] = acc
    return naive_conv2d(mid, pw, b, 1, 0)


def tap_loop_depthwise(x, dw):
    """Depthwise 'same' conv in its per-tap broadcast form: for each tap
    (row-major), add a [C,1,1] weight column times the shifted [C,H,W]
    window to the whole output, which starts from 0.0."""
    c, h, wd = x.shape
    k = dw.shape[2]
    pad = (k - 1) // 2
    xp = np.zeros((c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, pad:pad + h, pad:pad + wd] = x
    out = np.zeros((c, h, wd), dtype=np.float64)
    for ky in range(k):
        for kx in range(k):
            out += dw[:, 0, ky, kx][:, None, None] * xp[:, ky:ky + h, kx:kx + wd]
    return out


def tap_loop_depthwise_vjp(g, x, dw):
    """Input and weight cotangents of :func:`tap_loop_depthwise`, tap by
    tap: the input one scattered into a zero-padded buffer, the weight one a
    numpy pairwise sum of g times each shifted window."""
    c, h, wd = x.shape
    k = dw.shape[2]
    pad = (k - 1) // 2
    xp = np.zeros((c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, pad:pad + h, pad:pad + wd] = x
    gp = np.zeros_like(xp)
    dw_ct = np.empty_like(dw)
    for ky in range(k):
        for kx in range(k):
            gp[:, ky:ky + h, kx:kx + wd] += dw[:, 0, ky, kx][:, None, None] * g
            dw_ct[:, 0, ky, kx] = (g * xp[:, ky:ky + h, kx:kx + wd]).sum(axis=(1, 2))
    return gp[:, pad:pad + h, pad:pad + wd], dw_ct


# ---------------------------------------------------------------------------
# orthonormal DCT-II from the definition

def dct_matrix_ref(n):
    t = np.zeros((n, n), dtype=np.float64)
    for k in range(n):
        a = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        for i in range(n):
            t[k, i] = a * math.cos(math.pi * (2 * i + 1) * k / (2 * n))
    return t


def naive_dct2(x):
    c, h, w = x.shape
    th, tw = dct_matrix_ref(h), dct_matrix_ref(w)
    out = np.zeros_like(x)
    for ci in range(c):
        out[ci] = th @ x[ci] @ tw.T
    return out


def naive_idct2(x):
    c, h, w = x.shape
    th, tw = dct_matrix_ref(h), dct_matrix_ref(w)
    out = np.zeros_like(x)
    for ci in range(c):
        out[ci] = th.T @ x[ci] @ tw
    return out


# ---------------------------------------------------------------------------
# straight-line region refinement (threshold mask -> two rectangles)

def reference_region_refine(mask, max_iter=100, tol=1e-6):
    """Transcription of the two-cluster refinement: collect active cells
    (row-major, 1-based), Lloyd's from corners (1,1)/(h,w) with ties to
    cluster 1, bound each non-empty cluster by a rectangle, fill the union.

    Returns (refined mask, list of 0-based inclusive rectangles).
    """
    h, w = mask.shape[-2:]
    grid = mask.reshape(h, w)
    points = [(r + 1.0, c + 1.0) for r in range(h) for c in range(w)
              if grid[r, c] > 0]
    if not points:
        return np.zeros((1, h, w), dtype=np.float64), []
    c1, c2 = (1.0, 1.0), (float(h), float(w))
    labels = [1] * len(points)
    for _ in range(max_iter):
        for i, (pr, pc) in enumerate(points):
            d1 = (pr - c1[0]) ** 2 + (pc - c1[1]) ** 2
            d2 = (pr - c2[0]) ** 2 + (pc - c2[1]) ** 2
            labels[i] = 1 if d1 <= d2 else 2
        moved = 0.0
        new_cs = []
        for lab, old in ((1, c1), (2, c2)):
            members = [p for p, l in zip(points, labels) if l == lab]
            if members:
                nc = (sum(p[0] for p in members) / len(members),
                      sum(p[1] for p in members) / len(members))
            else:
                nc = old
            moved = max(moved, math.hypot(nc[0] - old[0], nc[1] - old[1]))
            new_cs.append(nc)
        c1, c2 = new_cs
        if moved <= tol:
            break
    rects = []
    for lab in (1, 2):
        members = [p for p, l in zip(points, labels) if l == lab]
        if not members:
            continue
        rows = [int(p[0]) - 1 for p in members]
        cols = [int(p[1]) - 1 for p in members]
        rects.append((min(rows), max(rows), min(cols), max(cols)))
    refined = np.zeros((1, h, w), dtype=np.float64)
    for r0, r1, c0, c1_ in rects:
        refined[0, r0:r1 + 1, c0:c1_ + 1] = 1.0
    return refined, rects


# ---------------------------------------------------------------------------
# annotation loading

def clamp_box(x, y, w, h, img_w, img_h):
    """An (x, y, w, h) box cut to an img_w x img_h image with builtin max and
    min: the bits the annotation loader's clamp must give."""
    x0, y0 = max(0.0, x), max(0.0, y)
    x1, y1 = min(float(img_w), x + w), min(float(img_h), y + h)
    return x0, y0, x1 - x0, y1 - y0


# ---------------------------------------------------------------------------
# brute-force COCO-protocol evaluator on plain tuples
#   det = (image_id, category_id, (x, y, w, h), score)
#   gt  = (image_id, category_id, (x, y, w, h))

def _iou_ref(a, b):
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = min(ax + aw, bx + bw) - max(ax, bx)
    iy = min(ay + ah, by + bh) - max(ay, by)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (aw * ah + bw * bh - inter)


def _ref_groups(dets, gts, max_dets):
    groups = {}
    for gi, g in enumerate(gts):
        groups.setdefault((g[0], g[1]), ([], []))[1].append(gi)
    for di, d in enumerate(dets):
        key = (d[0], d[1])
        if key in groups or any(g[1] == d[1] for g in gts):
            groups.setdefault(key, ([], []))[0].append(di)
    for det_idx, _ in groups.values():
        det_idx.sort(key=lambda i: -dets[i][3])
        del det_idx[max_dets:]
    return groups


def _ref_match(dets, gts, det_idx, gt_idx, thresh, area_rng):
    """Greedy matching for one group; returns (det flag or None) per index.

    Non-ignored ground truths are offered first; a detection settles for an
    ignored one only when no eligible real match exists.  Unmatched
    detections with area outside the range are excluded rather than FP.
    """
    if area_rng is None:
        ignore = [False] * len(gt_idx)
    else:
        lo, hi = area_rng
        ignore = [not (lo <= gts[i][2][2] * gts[i][2][3] < hi) for i in gt_idx]
    order = sorted(range(len(gt_idx)), key=lambda i: ignore[i])
    taken = [False] * len(gt_idx)
    flags = []
    for di in det_idx:
        best, m = -1.0, -1
        for oi in order:
            if taken[oi]:
                continue
            if m > -1 and not ignore[m] and ignore[oi]:
                break
            v = _iou_ref(dets[di][2], gts[gt_idx[oi]][2])
            if v < thresh or v <= best:
                continue
            best, m = v, oi
        if m == -1:
            if area_rng is None:
                flags.append(False)
            else:
                lo, hi = area_rng
                d_area = dets[di][2][2] * dets[di][2][3]
                flags.append(False if lo <= d_area < hi else None)
        else:
            taken[m] = True
            flags.append(None if ignore[m] else True)
    return flags, ignore


def _ref_ap_from_staircase(flags, n_gt):
    """Enumerate the PR staircase and read 101 interpolated points."""
    if n_gt == 0:
        return -1.0
    pr = []
    tp = fp = 0
    for f in flags:
        if f is None:
            continue
        tp, fp = (tp + 1, fp) if f else (tp, fp + 1)
        pr.append((tp / n_gt, tp / (tp + fp)))
    total = 0.0
    for i in range(101):
        r = i / 100.0
        best = 0.0
        for rec, prec in pr:
            if rec >= r and prec > best:
                best = prec
        total += best
    return total / 101.0


def brute_force_report(dets, gts, max_dets=100):
    """Full report dict mirroring the COCO-style protocol semantics."""
    if not gts:
        capped = {}
        for di, d in enumerate(dets):
            capped.setdefault((d[0], d[1]), []).append(di)
        n_fp = sum(min(len(idx), max_dets) for idx in capped.values())
        return {"ap": -1.0, "ap50": -1.0, "ap75": -1.0, "ap_vt": -1.0,
                "ap_t": -1.0, "ap_s": -1.0, "ap_m": -1.0,
                "tp": 0, "fp": n_fp, "fn": 0}
    groups = _ref_groups(dets, gts, max_dets)
    cats = sorted({g[1] for g in gts})

    def mean_ap(thresh, area_rng):
        per_cat = []
        tp_all = fp_all = gt_all = 0
        for cat in cats:
            pool = []
            n_gt = 0
            for key in sorted(groups):
                if key[1] != cat:
                    continue
                det_idx, gt_idx = groups[key]
                flags, ignore = _ref_match(dets, gts, det_idx, gt_idx,
                                           thresh, area_rng)
                n_gt += sum(1 for ig in ignore if not ig)
                for di, fl in zip(det_idx, flags):
                    if fl is not None:
                        pool.append((-dets[di][3], di, fl))
            if n_gt == 0:
                continue
            pool.sort()
            per_cat.append(_ref_ap_from_staircase([p[2] for p in pool], n_gt))
            tp_all += sum(1 for p in pool if p[2])
            fp_all += sum(1 for p in pool if not p[2])
            gt_all += n_gt
        if not per_cat:
            return -1.0, tp_all, fp_all, gt_all
        return sum(per_cat) / len(per_cat), tp_all, fp_all, gt_all

    thresholds = [0.5 + 0.05 * i for i in range(10)]
    ap = sum(mean_ap(t, None)[0] for t in thresholds) / 10.0
    ap50, tp, fp, n_gt = mean_ap(0.5, None)
    ap75 = mean_ap(0.75, None)[0]
    buckets = {"vt": (0.0, 64.0), "t": (64.0, 256.0),
               "s": (256.0, 1024.0), "m": (1024.0, math.inf)}
    out = {"ap": ap, "ap50": ap50, "ap75": ap75,
           "tp": tp, "fp": fp, "fn": n_gt - tp}
    for name, rng in buckets.items():
        out["ap_" + name] = mean_ap(0.5, rng)[0]
    return out


# ---------------------------------------------------------------------------
# step-by-step attention / calibration / fusion pipelines

def hand_sigmoid(z):
    out = np.zeros_like(z, dtype=np.float64)
    flat = z.reshape(-1)
    oflat = out.reshape(-1)
    for i in range(flat.size):
        v = flat[i]
        if v >= 0:
            t = math.exp(-v)
            oflat[i] = 1.0 / (1.0 + t)
        else:
            t = math.exp(v)
            oflat[i] = t / (1.0 + t)
    return out


def hand_channel_attention(x, w_reduce, w_expand):
    c = x.shape[0]
    squeeze = np.array([x[ci].mean() for ci in range(c)])
    hidden = w_reduce @ squeeze
    hidden = np.maximum(hidden, 0.0)
    gate = hand_sigmoid(w_expand @ hidden)
    out = x.copy()
    for ci in range(c):
        out[ci] = x[ci] * gate[ci]
    return out


def hand_spatial_attention(x, w):
    c, h, wd = x.shape
    mean_map = x.mean(axis=0)
    max_map = x.max(axis=0)
    stacked = np.stack([mean_map, max_map])[None]  # [1,2,h,w] conv input
    k = w.shape[2]
    gate = hand_sigmoid(naive_conv2d(stacked[0], w, None, 1, (k - 1) // 2))
    return x * gate[0][None]


def hand_softmax_rows(m):
    out = np.zeros_like(m)
    for r in range(m.shape[0]):
        row = m[r] - m[r].max()
        e = np.exp(row)
        out[r] = e / e.sum()
    return out


def global_attention_macs(h, w, c, d):
    """Multiply-adds of single-head global self-attention on a [C,H,W] map,
    counted by hand: q/k/v projections (3 L·C·d), the L x L scores and their
    mix with the values (2 L²·d), and the output projection (L·d·C).  The
    library has no global attention; this is the baseline DAFM is held to."""
    length = h * w
    return 3 * length * c * d + 2 * length * length * d + length * d * c


def hand_calibrate(d, w1, b1, w2, b2):
    mid = naive_conv2d(d, w1, b1, 1, 1)
    mid = np.maximum(mid, 0.0)
    return hand_sigmoid(naive_conv2d(mid, w2, b2, 1, 0))


def hand_edh(f_spectrum_low, f_spectrum_high, pooled, d_cal, params):
    """Composes the band-enhancement steps one equation at a time.

    params supplies ca_reduce, ca_expand, sa_w, mix_high, mix_low as arrays.
    """
    c, h, w = pooled.shape
    l = h * w
    f_low = hand_channel_attention(naive_idct2(f_spectrum_low),
                                   params["ca_reduce"], params["ca_expand"])
    f_high = hand_spatial_attention(naive_idct2(f_spectrum_high), params["sa_w"])
    fl = f_low.reshape(c, l)
    fh = f_high.reshape(c, l)
    d_flat = d_cal.reshape(1, l)
    gated_high = (params["mix_high"] @ fh) * d_flat
    gated_low = (params["mix_low"] @ fl) * (1.0 - d_flat)
    affinity = hand_softmax_rows(gated_high @ gated_low.T)
    mixed = (affinity @ pooled.reshape(c, l)).reshape(c, h, w)
    return mixed + d_cal


# ---------------------------------------------------------------------------
# bilinear resize from the align-corners definition

def naive_bilinear_resize(x, out_h, out_w):
    c, h, w = x.shape
    out = np.zeros((c, out_h, out_w), dtype=np.float64)

    def src(i, n_out, n_in):
        if n_out == 1:
            return (n_in - 1) / 2.0
        return i * (n_in - 1) / (n_out - 1)

    for ci in range(c):
        for oy in range(out_h):
            sy = src(oy, out_h, h)
            y0 = min(int(math.floor(sy)), h - 1)
            y1 = min(y0 + 1, h - 1)
            fy = sy - y0
            for ox in range(out_w):
                sx = src(ox, out_w, w)
                x0 = min(int(math.floor(sx)), w - 1)
                x1 = min(x0 + 1, w - 1)
                fx = sx - x0
                top = x[ci, y0, x0] * (1 - fx) + x[ci, y0, x1] * fx
                bot = x[ci, y1, x0] * (1 - fx) + x[ci, y1, x1] * fx
                out[ci, oy, ox] = top * (1 - fy) + bot * fy
    return out


# ---------------------------------------------------------------------------
# reference Gaussian density stamp for one object

def hand_density_single(cx, cy, bw, bh, height, width):
    """Render one object's truncated Gaussian mass the slow way: a Gaussian
    of bandwidth 0.5*diagonal evaluated at every pixel within true distance
    r = ceil(3 sigma) of the (possibly fractional) center."""
    sigma = 0.5 * math.sqrt(bw * bw + bh * bh)
    r = math.ceil(3.0 * sigma)
    out = np.zeros((1, height, width), dtype=np.float64)
    if not (0.0 <= cx <= width - 1 and 0.0 <= cy <= height - 1):
        return out, 1
    coef = 1.0 / (2.0 * math.pi * sigma * sigma)
    for yy in range(height):
        for xx in range(width):
            u = xx - cx
            v = yy - cy
            if u * u + v * v > r * r:
                continue
            out[0, yy, xx] = coef * math.exp(-(u * u + v * v)
                                             / (2.0 * sigma * sigma))
    return out, 0


# ---------------------------------------------------------------------------
# synthetic scenes, one scalar Rng call per draw (the library's stream
# definition, not its bulk draws)

def scalar_scene(spec, image_id=1):
    """generate_scene with the pixel noise drawn by one Rng.normal per pixel,
    in row-major order after every cluster draw."""
    from densefocus.density import BBoxAnnotation
    from densefocus.rng import Rng
    from densefocus.synthgen import NOISE_SIGMA

    rng = Rng(spec.seed)
    w, h = spec.width, spec.height
    size_lo, size_hi = spec.object_size
    margin = min(spec.cluster_spread + size_hi, (min(w, h) - 1) / 2.0)
    image = np.zeros((1, h, w))
    annotations = []
    for _ in range(spec.n_clusters):
        ccx = rng.uniform(margin, w - 1 - margin)
        ccy = rng.uniform(margin, h - 1 - margin)
        count = rng.randint(spec.objects_per_cluster[0], spec.objects_per_cluster[1])
        for _ in range(count):
            ox = ccx + rng.normal(0.0, spec.cluster_spread)
            oy = ccy + rng.normal(0.0, spec.cluster_spread)
            bw = rng.randint(size_lo, size_hi)
            bh = rng.randint(size_lo, size_hi)
            left = min(max(int(round(ox - bw / 2.0)), 0), w - bw)
            top = min(max(int(round(oy - bh / 2.0)), 0), h - bh)
            image[0, top:top + bh, left:left + bw] = 1.0
            annotations.append(BBoxAnnotation(
                image_id=image_id, category_id=1,
                cx=left + bw / 2.0, cy=top + bh / 2.0,
                width=float(bw), height=float(bh)))
    for i in range(h):
        for j in range(w):
            image[0, i, j] += rng.normal(0.0, NOISE_SIGMA)
    return image, annotations
