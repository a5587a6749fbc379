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

ap_report decides all 14 lanes (10 IoU thresholds, 4 size buckets at IoU
0.50) in one walk per (image, category) group: each score-ordered
detection visits its candidate ground truths once, highest IoU first, and
every ground truth holds a bitmask of the lanes it is taken in.  Candidates
are the ground truths at or above the smallest threshold; IoU is computed
with numpy a block of detection rows at a time and only candidates are
kept, so memory stays bounded whatever the group size.  The IoU formula
runs elementwise in the same order as a one-pair evaluation, so every IoU
is bit-identical to it.  match_detections is the same walk with one lane.
Detection and BBoxAnnotation hold only boxes that ops.require_box accepts,
so every IoU is a number.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .density import BBoxAnnotation
from .errors import InvalidArgumentError
from .ops import require_box

# gt-area buckets, pixels^2: very tiny < 8^2, tiny < 16^2, small < 32^2
SIZE_BUCKETS = (
    ("vt", 0.0, 64.0),
    ("t", 64.0, 256.0),
    ("s", 256.0, 1024.0),
    ("m", 1024.0, math.inf),
)

IOU_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))

_IOU_BLOCK = 8192  # IoU entries per row block: 64 KB float64 temporaries keep peak RSS flat


@dataclass
class Detection:
    image_id: int
    category_id: int
    bbox: tuple  # (x, y, w, h), top-left origin
    score: float

    def __post_init__(self):
        label = f"detection (image {self.image_id})"
        x, y, w, h = self.bbox
        self.bbox = require_box(x, y, w, h, label)
        if not math.isfinite(self.score):
            raise InvalidArgumentError(f"{label}: non-finite score")

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


def _boxes(boxes) -> np.ndarray:
    return np.asarray(boxes, dtype=np.float64).reshape(-1, 4)


def _iou_matrix(det_boxes, gt_boxes) -> np.ndarray:
    """D x G IoU between two lists of (x, y, w, h) boxes.

    Each entry goes through the same float64 operations, in the same order,
    as a one-pair evaluation, so it rounds identically whatever D and G are.
    """
    ax, ay, aw, ah = _boxes(det_boxes).T[..., None]
    bx, by, bw, bh = _boxes(gt_boxes).T
    with np.errstate(over="ignore"):   # boxes over float max apart overlap by -inf
        ix = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
        iy = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)   # +0.0 for disjoint boxes, -inf too
    return inter / (aw * ah + bw * bh - inter)


def iou(a, b) -> float:
    """Intersection over union of two (x, y, w, h) boxes that
    ops.require_box accepts."""
    boxes = np.array([a, b], dtype=np.float64)
    if boxes.shape != (2, 4):
        raise InvalidArgumentError(f"iou: boxes must be (x, y, w, h), got shape {boxes.shape}")
    for box in boxes.tolist():
        require_box(*box, "iou")
    return float(_iou_matrix(boxes[:1], boxes[1:])[0, 0])


def _groups(dets: Sequence[Detection], gts: Sequence[BBoxAnnotation],
            max_dets: int, categories=None):
    """(category, det_idx, gt_idx) per (image, category), in key order;
    det_idx is in score order (ties by input order) and capped at max_dets."""
    index: dict = {}
    for gi, g in enumerate(gts):
        index.setdefault((g.image_id, g.category_id), ([], []))[1].append(gi)
    for di, d in enumerate(dets):
        if categories is not None and d.category_id not in categories:
            continue
        index.setdefault((d.image_id, d.category_id), ([], []))[0].append(di)
    for key in sorted(index):
        det_idx, gt_idx = index[key]
        det_idx.sort(key=lambda i: -dets[i].score)  # stable: ties keep input order
        yield key[1], det_idx[:max_dets], gt_idx


def _candidates(det_boxes, gt_boxes, lane_thr):
    """Per detection row, its candidate ground truths as (column, mask of
    the lanes whose threshold the IoU meets) pairs, sorted by (-IoU, column).
    A ground truth below the smallest threshold is pruned: it can match in
    no lane, and in that order it would end a lane's search only after every
    qualifying candidate.  IoU runs a block of rows at a time."""
    lo, bits = lane_thr.min(), 1 << np.arange(len(lane_thr))
    rows = max(1, _IOU_BLOCK // max(1, len(gt_boxes)))
    for r0 in range(0, len(det_boxes), rows):
        block = _iou_matrix(det_boxes[r0:r0 + rows], gt_boxes)
        r, c = np.nonzero(block >= lo)
        v = block[r, c]
        order = np.lexsort((-v, r))
        pairs = list(zip(c[order].tolist(), ((v[order, None] >= lane_thr) @ bits).tolist()))
        start = 0
        for end in np.cumsum(np.bincount(r, minlength=len(block))).tolist():
            yield pairs[start:end]
            start = end


def _tier(cands, seek, taken, tier):
    """Each lane in seek takes the first of cands that is in its tier
    (tier[j]: the lanes where ground truth j is) and free there (taken[j]:
    the lanes where it is matched) if its IoU meets the lane's threshold,
    and misses otherwise.  Returns the lanes that took one."""
    hits = 0
    for j, meets in cands:
        free = seek & tier[j] & ~taken[j]
        if free:
            taken[j] |= free & meets
            hits |= free & meets
            seek &= ~free
            if not seek:
                break
    return hits


def _walk(det_boxes, gt_boxes, lane_thr, gt_ignore, det_drop):
    """Greedy matching of one group's score-ordered detections in every lane
    at once.  Lane k has threshold lane_thr[k]; bit k of gt_ignore[j] and of
    det_drop[i] ignores ground truth j and drops detection i there.  In each
    lane a detection takes the free real ground truth of highest IoU (the
    earliest on ties) if it meets the threshold, else such an ignored one,
    which excludes the detection; unmatched, it is an FP unless dropped.
    Returns per detection the lanes where it is a TP and where it is a TP
    or FP, and per ground truth the lanes where it is matched."""
    lanes = (1 << len(lane_thr)) - 1
    real, ignored = (lanes & ~gt_ignore).tolist(), gt_ignore.tolist()
    taken = [0] * len(gt_boxes)
    tp, counted = [], []
    for cands, drop in zip(_candidates(det_boxes, gt_boxes, lane_thr), det_drop):
        hits = _tier(cands, lanes, taken, real)
        excluded = _tier(cands, lanes & ~hits, taken, ignored)
        tp.append(hits)
        counted.append(hits | (lanes & ~hits & ~excluded & ~drop))
    return tp, counted, taken


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
    det_boxes, gt_boxes = _boxes([d.bbox for d in dets]), _boxes([g.to_xywh() for g in gts])
    det_flags: list = [None] * len(dets)
    gt_matched = [False] * len(gts)
    for _, det_idx, gt_idx in _groups(dets, gts, max_dets):
        tp, _, taken = _walk(det_boxes[det_idx], gt_boxes[gt_idx], np.array([iou_thresh]),
                             np.zeros(len(gt_idx), dtype=np.int64), [0] * len(det_idx))
        for i, hit in zip(det_idx, tp):
            det_flags[i] = bool(hit)
        for i, hit in zip(gt_idx, taken):
            gt_matched[i] = bool(hit)
    return det_flags, gt_matched


def average_precision(flags, total_gt: int) -> float:
    """101-point interpolated AP from score-ordered TP/FP flags."""
    if total_gt == 0:
        return -1.0
    kept = np.array([bool(f) for f in flags if f is not None], dtype=bool)
    return _average_precision(kept, total_gt)


def _average_precision(kept: np.ndarray, total_gt: int) -> float:
    """average_precision of a bool array, total_gt > 0."""
    if not kept.size:
        return 0.0
    tp = np.cumsum(kept)
    precision = np.maximum.accumulate((tp / np.arange(1, kept.size + 1))[::-1])[::-1]
    hits = np.searchsorted(tp / total_gt, np.arange(101) / 100.0, side="left")
    # a left-to-right running sum: np.sum (pairwise) and sum() on Python >= 3.12 round differently
    return float(np.cumsum(precision[hits[hits < kept.size]])[-1]) / 101.0


def _out_of_bucket(boxes: np.ndarray) -> np.ndarray:
    """Per box, the size-bucket lanes (10 + bucket index) whose area range
    does not hold its area."""
    area = boxes[:, 2] * boxes[:, 3]
    return sum((~((lo <= area) & (area < hi))).astype(np.int64) << (len(IOU_THRESHOLDS) + b)
               for b, (_, lo, hi) in enumerate(SIZE_BUCKETS))


def ap_report(dets: Sequence[Detection], gts: Sequence[BBoxAnnotation],
              max_dets: int = 100) -> APReport:
    """Full evaluation: AP averaged over IoU 0.50:0.05:0.95, AP50/AP75,
    the four size-bucket APs at IoU 0.50, and TP/FP/FN counts at IoU 0.50."""
    if max_dets < 0:
        raise InvalidArgumentError(f"ap_report: bad max_dets {max_dets}")
    if not gts:
        n_fp = sum(len(det_idx) for _, det_idx, _ in _groups(dets, [], max_dets))
        return APReport(-1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 0, n_fp, 0)
    categories = sorted({g.category_id for g in gts})
    det_boxes, gt_boxes = _boxes([d.bbox for d in dets]), _boxes([g.to_xywh() for g in gts])
    # lanes 0-9 are the IoU thresholds; lanes 10-13 the size buckets at IoU 0.50,
    # where out-of-bucket ground truth is ignored and out-of-bucket detections dropped
    lane_thr = np.array(IOU_THRESHOLDS + (0.5,) * len(SIZE_BUCKETS))
    gt_ignore, det_drop = _out_of_bucket(gt_boxes), _out_of_bucket(det_boxes)
    walked: dict = {cat: [] for cat in categories}   # (-score, det index, tp, counted)
    for cat, det_idx, gt_idx in _groups(dets, gts, max_dets, categories=set(categories)):
        tp, counted, _ = _walk(det_boxes[det_idx], gt_boxes[gt_idx], lane_thr,
                               gt_ignore[gt_idx], det_drop[det_idx].tolist())
        walked[cat] += zip([-dets[i].score for i in det_idx], det_idx, tp, counted)

    gt_cat = np.array([g.category_id for g in gts])
    lane_aps: list = [[] for _ in lane_thr]
    tp_50 = fp_50 = n_gt_50 = 0
    for cat in categories:
        tp, counted = np.array([w[2:] for w in sorted(walked[cat])],
                               dtype=np.int64).reshape(-1, 2).T
        n_gt = (gt_ignore[gt_cat == cat, None] >> np.arange(len(lane_thr)) & 1 == 0).sum(0)
        for lane, n in enumerate(n_gt.tolist()):
            if n:   # a category with no ground truth in a lane's bucket sits that lane out
                flags = (tp >> lane & 1)[counted >> lane & 1 == 1].astype(bool)
                lane_aps[lane].append(_average_precision(flags, n))
        tp_50 += int((tp & 1).sum())
        fp_50 += int((counted & ~tp & 1).sum())
        n_gt_50 += int(n_gt[0])
    lane_ap = [sum(aps) / len(aps) if aps else -1.0 for aps in lane_aps]
    n_iou = len(IOU_THRESHOLDS)
    return APReport(sum(lane_ap[:n_iou]) / n_iou, lane_ap[0], lane_ap[5], *lane_ap[n_iou:],
                    tp_50, fp_50, n_gt_50 - tp_50)
