"""COCO-protocol average precision with tiny-object size buckets.

Matching is greedy per (image, category): detections sorted by descending
score (ties by input order), capped at max_dets, each matched to the
unmatched ground truth with the highest IoU at or above the threshold
(ties prefer the earlier ground truth).  AP uses the 101-point interpolated
precision-recall summary.  Size buckets are evaluated at IoU 0.50 with the
COCO area-range ignore convention: out-of-bucket ground truth is ignored,
detections matched to ignored ground truth are dropped, and unmatched
detections outside the bucket's area range are dropped rather than counted
as false positives.

ap_report computes each (image, category) group's detection x ground-truth
IoU matrix once, with numpy, and all 14 matching passes (10 IoU thresholds,
4 size buckets) share it; only the walk over score-ordered detections,
where each match depends on the ones before it, stays a Python loop.  The
matrix applies the scalar formula elementwise in the same order, so every
IoU is bit-identical to a one-pair evaluation.  Boxes must be finite:
Detection and BBoxAnnotation reject NaN and infinite coordinates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .density import BBoxAnnotation
from .errors import InvalidArgumentError

# gt-area buckets, pixels^2: very tiny < 8^2, tiny < 16^2, small < 32^2
SIZE_BUCKETS = (
    ("vt", 0.0, 64.0),
    ("t", 64.0, 256.0),
    ("s", 256.0, 1024.0),
    ("m", 1024.0, math.inf),
)

IOU_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))

_IOU_BLOCK = 2048  # IoU entries per block of rows: 16 KB per float64 temporary


@dataclass
class Detection:
    image_id: int
    category_id: int
    bbox: tuple  # (x, y, w, h), top-left origin
    score: float

    def __post_init__(self):
        x, y, w, h = (float(v) for v in self.bbox)
        if not all(math.isfinite(v) for v in (x, y, w, h)):
            raise InvalidArgumentError(
                f"detection (image {self.image_id}): non-finite box {self.bbox}")
        if not (w > 0 and h > 0):
            raise InvalidArgumentError(
                f"detection (image {self.image_id}): non-positive box {w}x{h}")
        if not math.isfinite(self.score):
            raise InvalidArgumentError(
                f"detection (image {self.image_id}): non-finite score")
        self.bbox = (x, y, w, h)

    @property
    def area(self) -> float:
        return self.bbox[2] * self.bbox[3]


@dataclass
class APReport:
    ap: float
    ap50: float
    ap75: float
    ap_vt: float
    ap_t: float
    ap_s: float
    ap_m: float
    tp: int
    fp: int
    fn: int

    def to_dict(self) -> dict:
        return asdict(self)


def _iou_matrix(det_boxes, gt_boxes) -> np.ndarray:
    """D x G IoU between two lists of (x, y, w, h) boxes.

    Each entry goes through the same float64 operations, in the same order,
    as a one-pair evaluation, so it rounds identically whatever D and G are.
    Rows are filled in blocks of about _IOU_BLOCK entries, which bounds the
    temporaries whatever the group size.
    """
    a = np.asarray(det_boxes, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    bx, by, bw, bh = b.T
    out = np.empty((len(a), len(b)))
    rows = max(1, _IOU_BLOCK // max(1, len(b)))
    for r in range(0, len(a), rows):
        ax, ay, aw, ah = a[r:r + rows].T[..., None]
        ix = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
        iy = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
        disjoint = (ix <= 0) | (iy <= 0)
        inter = np.where(disjoint, 0.0, ix * iy)
        block = inter / (aw * ah + bw * bh - inter)
        block[disjoint] = 0.0
        out[r:r + rows] = block
    return out


def iou(a, b) -> float:
    """Intersection over union of two finite (x, y, w, h) boxes."""
    boxes = np.array([a, b], dtype=np.float64)
    if boxes.shape != (2, 4) or not np.isfinite(boxes).all() \
            or (boxes[:, 2:] <= 0).any():
        raise InvalidArgumentError(
            "iou: boxes must be finite (x, y, w, h) with positive extents")
    return float(_iou_matrix(boxes[:1], boxes[1:])[0, 0])


class _Group(NamedTuple):
    """One (image, category): capped score-ordered detections, their IoU
    matrix against the group's ground truth, and both sides' box areas."""
    category: int
    det_idx: list
    gt_idx: list
    ious: np.ndarray      # D x G, rows in score order
    det_area: np.ndarray  # D
    gt_area: np.ndarray   # G


def _match_group(ious, thresh, gt_ignore, det_keep):
    """Greedy matcher over one group's IoU matrix, rows in score order.

    Each detection takes the free ground truth with the highest IoU at or
    above thresh, the earliest on ties; ignored ground truth is offered
    only when no real one qualifies.  Returns (flags, gt_matched): flags[i]
    is True (TP), False (FP), or None (excluded from evaluation).
    """
    taken = np.zeros(ious.shape[1])  # -inf once matched; x + 0.0 == x exactly
    tiers = [(flag, cols) for flag, cols in ((True, np.flatnonzero(~gt_ignore)),
                                             (None, np.flatnonzero(gt_ignore)))
             if len(cols)]
    flags = []
    for row, keep in zip(ious, det_keep):
        free = row + taken
        for flag, cols in tiers:
            cand = free[cols]
            j = int(cand.argmax())
            if cand[j] >= thresh:
                taken[cols[j]] = -np.inf
                flags.append(flag)
                break
        else:
            flags.append(False if keep else None)
    return flags, taken < 0


def _grouped(dets: Sequence[Detection], gts: Sequence[BBoxAnnotation],
             max_dets: int, categories=None) -> list:
    """One _Group per (image, category), in key order."""
    index: dict = {}
    for gi, g in enumerate(gts):
        index.setdefault((g.image_id, g.category_id), ([], []))[1].append(gi)
    for di, d in enumerate(dets):
        if categories is not None and d.category_id not in categories:
            continue
        index.setdefault((d.image_id, d.category_id), ([], []))[0].append(di)
    groups = []
    for key in sorted(index):
        det_idx, gt_idx = index[key]
        det_idx.sort(key=lambda i: -dets[i].score)  # stable: ties keep input order
        del det_idx[max_dets:]
        det_boxes = np.array([dets[i].bbox for i in det_idx],
                             dtype=np.float64).reshape(-1, 4)
        gt_boxes = np.array([gts[i].to_xywh() for i in gt_idx],
                            dtype=np.float64).reshape(-1, 4)
        groups.append(_Group(key[1], det_idx, gt_idx,
                             _iou_matrix(det_boxes, gt_boxes),
                             det_boxes[:, 2] * det_boxes[:, 3],
                             gt_boxes[:, 2] * gt_boxes[:, 3]))
    return groups


def match_detections(dets: Sequence[Detection], gts: Sequence[BBoxAnnotation],
                     iou_thresh: float, max_dets: int = 100):
    """Match every detection against its (image, category) ground truths.

    Returns (det_flags, gt_matched) aligned with the inputs; a detection
    flag is True for TP, False for FP, None when dropped by the max_dets
    cap.
    """
    if not (0.0 < iou_thresh <= 1.0):
        raise InvalidArgumentError(f"match_detections: bad iou threshold {iou_thresh}")
    if max_dets < 0:
        raise InvalidArgumentError(f"match_detections: bad max_dets {max_dets}")
    det_flags: list = [None] * len(dets)
    gt_matched = [False] * len(gts)
    for g in _grouped(dets, gts, max_dets):
        flags, matched = _match_group(
            g.ious, iou_thresh, np.zeros(len(g.gt_idx), dtype=bool),
            np.ones(len(g.det_idx), dtype=bool))
        for i, fl in zip(g.det_idx, flags):
            det_flags[i] = fl
        for i, m in zip(g.gt_idx, matched):
            gt_matched[i] = bool(m)
    return det_flags, gt_matched


def average_precision(flags, total_gt: int) -> float:
    """101-point interpolated AP from score-ordered TP/FP flags."""
    if total_gt == 0:
        return -1.0
    kept = np.array([bool(f) for f in flags if f is not None], dtype=bool)
    if not kept.size:
        return 0.0
    tp = np.cumsum(kept)
    precision = np.maximum.accumulate((tp / np.arange(1, kept.size + 1))[::-1])[::-1]
    hits = np.searchsorted(tp / total_gt, np.arange(101) / 100.0, side="left")
    # a left-to-right running sum: np.sum (pairwise) and sum() on Python >= 3.12 round differently
    return float(np.cumsum(precision[hits[hits < kept.size]])[-1]) / 101.0


def _ap_at(dets, groups, categories, thresh, bucket=None):
    """Mean AP over categories at one IoU threshold, optionally restricted
    to a gt-area bucket.  Returns (mean_ap_or_sentinel, tp, fp, total_gt)."""
    per_cat = []
    tot_tp = tot_fp = tot_gt = 0
    for cat in categories:
        entries = []
        n_gt = 0
        for g in groups:
            if g.category != cat:
                continue
            if bucket is None:
                gt_ignore = np.zeros(len(g.gt_idx), dtype=bool)
                det_keep = np.ones(len(g.det_idx), dtype=bool)
            else:
                lo, hi = bucket
                gt_ignore = ~((lo <= g.gt_area) & (g.gt_area < hi))
                det_keep = (lo <= g.det_area) & (g.det_area < hi)
            n_gt += len(gt_ignore) - int(gt_ignore.sum())
            flags, _ = _match_group(g.ious, thresh, gt_ignore, det_keep)
            entries += [(-dets[i].score, i, fl)
                        for i, fl in zip(g.det_idx, flags) if fl is not None]
        if n_gt == 0:
            continue
        entries.sort(key=lambda e: (e[0], e[1]))
        flag_seq = [e[2] for e in entries]
        per_cat.append(average_precision(flag_seq, n_gt))
        tot_tp += sum(1 for f in flag_seq if f)
        tot_fp += sum(1 for f in flag_seq if not f)
        tot_gt += n_gt
    if not per_cat:
        return -1.0, tot_tp, tot_fp, tot_gt
    return sum(per_cat) / len(per_cat), tot_tp, tot_fp, tot_gt


def ap_report(dets: Sequence[Detection], gts: Sequence[BBoxAnnotation],
              max_dets: int = 100) -> APReport:
    """Full evaluation: AP averaged over IoU 0.50:0.05:0.95, AP50/AP75,
    the four size-bucket APs at IoU 0.50, and TP/FP/FN counts at IoU 0.50."""
    if max_dets < 0:
        raise InvalidArgumentError(f"ap_report: bad max_dets {max_dets}")
    if not gts:
        n_fp = sum(len(g.det_idx) for g in _grouped(dets, [], max_dets))
        return APReport(-1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 0, n_fp, 0)
    categories = sorted({g.category_id for g in gts})
    groups = _grouped(dets, gts, max_dets, categories=set(categories))

    by_thresh = {}
    for t in IOU_THRESHOLDS:
        by_thresh[t] = _ap_at(dets, groups, categories, t)
    ap = sum(v[0] for v in by_thresh.values()) / len(IOU_THRESHOLDS)
    ap50, tp, fp, n_gt = by_thresh[IOU_THRESHOLDS[0]]
    ap75 = by_thresh[IOU_THRESHOLDS[5]][0]

    bucket_aps = {}
    for name, lo, hi in SIZE_BUCKETS:
        bucket_aps[name], _, _, _ = _ap_at(dets, groups, categories, 0.5,
                                           bucket=(lo, hi))
    return APReport(ap, ap50, ap75,
                    bucket_aps["vt"], bucket_aps["t"], bucket_aps["s"],
                    bucket_aps["m"], tp, fp, n_gt - tp)
