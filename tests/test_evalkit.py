"""Protocol evaluator: IoU, greedy matching, interpolated AP, full reports
against a straight-line brute-force oracle."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from densefocus import ops
from densefocus.cli import cli_dispatch
from densefocus.density import BBoxAnnotation
from densefocus.errors import InvalidArgumentError
from densefocus.evalkit import (
    IOU_THRESHOLDS, SIZE_BUCKETS, Detection, APReport, _candidates, _iou_matrix, _walk,
    ap_report, average_precision, iou, match_detections,
)
from densefocus.rng import Rng
from densefocus.synthgen import SceneSpec, generate_scene, perturb_detections

import oracles


def gt(image_id, category_id, x, y, w, h):
    return BBoxAnnotation.from_xywh(image_id, category_id, x, y, w, h)


# ---------------------------------------------------------------------------
# iou and Detection

def test_iou_hand_values():
    assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0
    assert iou((0, 0, 2, 2), (5, 5, 2, 2)) == 0.0
    assert iou((0, 0, 2, 2), (2, 0, 2, 2)) == 0.0          # edge contact
    assert iou((0, 0, 2, 2), (0, 1, 2, 2)) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert iou((0, 0, 4, 4), (1, 1, 2, 2)) == pytest.approx(0.25, rel=1e-15)
    with pytest.raises(InvalidArgumentError):
        iou((0, 0, 0, 2), (0, 0, 2, 2))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError):
            iou((bad, 0, 2, 2), (0, 0, 2, 2))
        with pytest.raises(InvalidArgumentError):
            iou((0, 0, 2, 2), (0, 0, 2, bad))


# boxes the evaluator cannot score: each has finite, positive sides, but its
# area or a far corner is not a normal float, so its IoU could be NaN
UNSCORABLE_BOXES = {
    "area-overflow": (0.0, 0.0, 1e160, 1e160),
    "x-corner-overflow": (1e308, 0.0, 1e308, 1e-300),
    "y-corner-overflow": (0.0, 1.7e308, 1e-300, 1e308),
    "area-rounds-to-zero": (1.0000000000000002, 0.0, 1.1e-16, 2e-308),
    "area-underflow": (0.0, 0.0, 1e-160, 1e-160),
}


@pytest.mark.parametrize("box", UNSCORABLE_BOXES.values(), ids=UNSCORABLE_BOXES.keys())
def test_boxes_the_evaluator_cannot_score_are_refused(box, tmp_path, capsys):
    with pytest.raises(InvalidArgumentError):
        Detection(1, 1, box, 0.9)
    with pytest.raises(InvalidArgumentError):
        gt(1, 1, *box)
    for pair in ((box, (0, 0, 2, 2)), ((0, 0, 2, 2), box)):
        with pytest.raises(InvalidArgumentError):
            iou(*pair)
    paths = {}
    for name, bbox in (("gt", list(box)), ("dets", [0, 0, 2, 2])):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({
            "images": [{"id": 1, "width": 64, "height": 64}],
            "categories": [{"id": 1}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": bbox,
                             "score": 0.9}]}))
    assert cli_dispatch(["eval", "--gt", str(paths["gt"]), "--dets", str(paths["dets"])]) == 3
    assert "annotation 1: " in capsys.readouterr().err


def test_iou_matrix_is_never_nan_on_boxes_the_box_rule_accepts():
    """Corners and sides from 1e-300 to 1e300; half the boxes overlap an
    earlier one at its own scale, so intersections are not all empty."""
    rng = Rng(29)
    boxes = []
    while len(boxes) < 400:
        if boxes and rng.random() < 0.5:
            x, y, w, h = boxes[rng.randint(0, len(boxes) - 1)]
            box = (x + w * rng.uniform(-1, 1), y + h * rng.uniform(-1, 1),
                   w * 10.0 ** rng.uniform(-20, 0), h * 10.0 ** rng.uniform(-20, 0))
        else:
            box = [10.0 ** rng.uniform(-300, 300) for _ in range(4)]
            box[:2] = [v if rng.random() < 0.5 else -v for v in box[:2]]
        try:
            boxes.append(ops.require_box(*box, "stress box"))
        except InvalidArgumentError:
            pass
    with np.errstate(over="raise", invalid="raise"):
        m = _iou_matrix(boxes, boxes[::-1])
    assert not np.isnan(m).any()
    assert (m > 0).sum() > 400      # overlaps happen beyond each box with itself


def test_iou_of_boxes_more_than_float_max_apart_is_zero_without_a_warning():
    """The box rule bounds x + w, not x, so two boxes it accepts can lie
    more than float max apart: their overlap overflows to -inf, which is
    disjoint, and reads +0.0 with no overflow warning."""
    far = (((-1.7e308, 0.0, 1.0, 1.0), (1.7e308, 0.0, 1.0, 1.0)),
           ((0.0, -1.7e308, 1.0, 1.0), (0.0, 1.7e308, 1.0, 1.0)))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for a, b in far:
            for det, truth in ((a, b), (b, a)):
                value = iou(det, truth)
                assert value == 0.0 and math.copysign(1.0, value) == 1.0
                r = ap_report([Detection(1, 1, det, 0.9)], [gt(1, 1, *truth)])
                assert (r.tp, r.fp, r.fn) == (0, 1, 1)


def random_boxes(rng, n, snap):
    """n boxes; with snap, corners sit on a 0.5 grid so edges often touch."""
    boxes = []
    for _ in range(n):
        x, y = rng.uniform(0, 24), rng.uniform(0, 24)
        w, h = rng.uniform(0.5, 12), rng.uniform(0.5, 12)
        if snap:
            x, y, w, h = (round(v * 2) / 2 for v in (x, y, w, h))
        boxes.append((x, y, w, h))
    return boxes


@pytest.mark.parametrize("snap", [True, False])
def test_iou_matrix_is_bit_identical_to_the_scalar_formula(snap):
    rng = Rng(17)
    dets, gts = random_boxes(rng, 70, snap), random_boxes(rng, 60, snap)
    m = _iou_matrix(dets, gts)
    assert m.shape == (70, 60)
    touching = 0
    for i, a in enumerate(dets):
        for j, b in enumerate(gts):
            assert m[i, j] == iou(a, b) == oracles._iou_ref(a, b), (a, b)
            touching += a[0] + a[2] == b[0] or b[0] + b[2] == a[0]
    assert not snap or touching > 50
    assert _iou_matrix([], gts).shape == (0, 60)
    assert _iou_matrix(dets, []).shape == (70, 0)


def test_detection_validation():
    d = Detection(1, 2, (1, 2, 3, 4), 0.5)
    assert d.bbox == (1.0, 2.0, 3.0, 4.0)
    assert d.area == 12.0
    with pytest.raises(InvalidArgumentError):
        Detection(1, 2, (0, 0, 0, 4), 0.5)
    with pytest.raises(InvalidArgumentError):
        Detection(1, 2, (0, 0, 3, 4), float("nan"))
    for bad in (float("nan"), float("inf"), -float("inf")):
        for box in ((bad, 0, 3, 4), (0, bad, 3, 4), (0, 0, bad, 4), (0, 0, 3, bad)):
            with pytest.raises(InvalidArgumentError, match="non-finite"):
                Detection(1, 2, box, 0.5)


def test_thresholds_and_buckets_constants():
    assert IOU_THRESHOLDS == tuple(0.5 + 0.05 * i for i in range(10))
    names = [b[0] for b in SIZE_BUCKETS]
    assert names == ["vt", "t", "s", "m"]
    edges = [SIZE_BUCKETS[0][1]] + [b[2] for b in SIZE_BUCKETS]
    assert edges[:4] == [0.0, 64.0, 256.0, 1024.0]


def test_bucket_partition_is_exhaustive_and_disjoint():
    rng = Rng(3)
    for _ in range(200):
        area = rng.uniform(0.01, 5000.0)
        hits = [lo <= area < hi for _, lo, hi in SIZE_BUCKETS]
        assert sum(hits) == 1
    # boundary areas land in the upper bucket (half-open ranges)
    for area, name in ((64.0, "t"), (256.0, "s"), (1024.0, "m")):
        hits = [n for n, lo, hi in SIZE_BUCKETS if lo <= area < hi]
        assert hits == [name]


# ---------------------------------------------------------------------------
# match_detections

def test_match_one_on_one():
    gts = [gt(1, 1, 0, 0, 10, 10)]
    dets = [Detection(1, 1, (1, 1, 10, 10), 0.9)]
    flags, matched = match_detections(dets, gts, 0.5)
    assert flags == [True]
    assert matched == [True]


def test_match_no_dets_and_low_iou():
    gts = [gt(1, 1, 0, 0, 10, 10)]
    assert match_detections([], gts, 0.5) == ([], [False])
    dets = [Detection(1, 1, (8, 8, 10, 10), 0.9)]
    flags, matched = match_detections(dets, gts, 0.5)
    assert flags == [False]
    assert matched == [False]


def test_match_two_dets_one_gt_prefers_higher_score():
    gts = [gt(1, 1, 0, 0, 10, 10)]
    dets = [Detection(1, 1, (0, 0, 10, 10), 0.3),
            Detection(1, 1, (1, 1, 10, 10), 0.8)]
    flags, _ = match_detections(dets, gts, 0.5)
    assert flags == [False, True]  # the 0.8 det takes the gt despite lower IoU


def test_match_score_ties_keep_input_order():
    gts = [gt(1, 1, 0, 0, 10, 10)]
    dets = [Detection(1, 1, (0, 0, 10, 10), 0.5),
            Detection(1, 1, (0, 0, 10, 10), 0.5)]
    flags, _ = match_detections(dets, gts, 0.5)
    assert flags == [True, False]


def test_match_greedy_iou_tie_prefers_earlier_gt():
    gts = [gt(1, 1, 0, 0, 10, 10), gt(1, 1, 20, 0, 10, 10)]
    dets = [Detection(1, 1, (0, 0, 10, 10), 0.9),
            Detection(1, 1, (20, 0, 10, 10), 0.8)]
    flags, matched = match_detections(dets, gts, 0.5)
    assert flags == [True, True] and matched == [True, True]
    # a det with identical IoU against both gts takes the first one
    gts2 = [gt(1, 1, 0, 0, 4, 4), gt(1, 1, 6, 0, 4, 4)]
    dets2 = [Detection(1, 1, (3, 0, 4, 4), 0.9),
             Detection(1, 1, (0, 0, 4, 4), 0.8)]
    flags2, matched2 = match_detections(dets2, gts2, 0.1)
    assert flags2[0] is True and matched2 == [True, False]
    assert flags2[1] is False  # its only candidate was taken
    # duplicate gt boxes: the earlier copy is taken first
    box = (3.0, 4.0, 6.0, 6.0)
    flags3, matched3 = match_detections([Detection(1, 1, box, 0.5)],
                                        [gt(1, 1, *box)] * 3, 0.5)
    assert flags3 == [True] and matched3 == [True, False, False]


def test_match_max_dets_cap_flags_none():
    gts = [gt(1, 1, 0, 0, 10, 10)]
    dets = [Detection(1, 1, (0, 0, 10, 10), 0.9),
            Detection(1, 1, (0, 0, 10, 10), 0.4),
            Detection(1, 1, (0, 0, 10, 10), 0.6)]
    flags, _ = match_detections(dets, gts, 0.5, max_dets=1)
    assert flags == [True, None, None]


def test_match_detection_without_gts_is_fp():
    dets = [Detection(1, 7, (0, 0, 5, 5), 0.9)]
    flags, matched = match_detections(dets, [gt(1, 1, 0, 0, 5, 5)], 0.5)
    assert flags == [False]
    assert matched == [False]


def test_match_validation():
    with pytest.raises(InvalidArgumentError):
        match_detections([], [], 0.0)
    with pytest.raises(InvalidArgumentError):
        match_detections([], [], 1.5)
    with pytest.raises(InvalidArgumentError):
        match_detections([], [], 0.5, max_dets=-1)


# ---------------------------------------------------------------------------
# average_precision

def test_ap_perfect_and_zero():
    assert average_precision([True, True, True], 3) == 1.0
    assert average_precision([False, False], 2) == 0.0
    assert average_precision([], 2) == 0.0
    assert average_precision([True], 0) == -1.0


def test_ap_tp_fp_tp_staircase():
    expected = (51 * 1.0 + 50 * (2.0 / 3.0)) / 101.0
    assert average_precision([True, False, True], 2) == pytest.approx(expected, rel=1e-15)
    # None entries (capped detections) are excluded from the staircase
    assert average_precision([True, None, False, True], 2) == \
        pytest.approx(expected, rel=1e-15)


def test_ap_trailing_fp_is_free_and_tp_extends():
    flags = [True, False, True]
    base = average_precision(flags, 3)
    assert average_precision(flags + [False], 3) == base
    assert average_precision(flags + [True], 3) > base


def loop_average_precision(flags, total_gt):
    """The per-detection loop the array form must reproduce bit for bit."""
    if total_gt == 0:
        return -1.0
    kept = [bool(f) for f in flags if f is not None]
    if not kept:
        return 0.0
    precisions, recalls = [], []
    tp = fp = 0
    for f in kept:
        if f:
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / total_gt)
    for i in range(len(precisions) - 2, -1, -1):
        if precisions[i] < precisions[i + 1]:
            precisions[i] = precisions[i + 1]
    ap = 0.0
    j = 0
    for i in range(101):
        r = i / 100.0
        while j < len(recalls) and recalls[j] < r:
            j += 1
        if j < len(recalls):
            ap += precisions[j]
    return ap / 101.0


def test_ap_equals_per_detection_loop():
    rng = np.random.default_rng(101)
    for _ in range(3000):
        n = int(rng.integers(0, 400))
        hit = rng.random()
        flags = [None if u < 0.1 else bool(u < 0.1 + hit) for u in rng.random(n)]
        total_gt = int(rng.integers(1, 301))
        assert average_precision(flags, total_gt) == loop_average_precision(flags, total_gt)


# ---------------------------------------------------------------------------
# ap_report

def test_report_perfect_detections():
    gts = [gt(1, 1, 5, 5, 3, 3), gt(1, 1, 20, 20, 4, 4), gt(2, 1, 8, 3, 5, 5)]
    dets = [Detection(g.image_id, g.category_id, g.to_xywh(), 0.9 - 0.1 * i)
            for i, g in enumerate(gts)]
    r = ap_report(dets, gts)
    assert (r.ap, r.ap50, r.ap75) == (1.0, 1.0, 1.0)
    assert r.ap_vt == 1.0          # all areas 9/16/25 < 64
    assert r.ap_t == r.ap_s == r.ap_m == -1.0
    assert (r.tp, r.fp, r.fn) == (3, 0, 0)


def test_report_empty_dets():
    gts = [gt(1, 1, 0, 0, 5, 5), gt(1, 2, 10, 10, 20, 20)]
    r = ap_report([], gts)
    assert r.ap == r.ap50 == r.ap75 == 0.0
    assert (r.tp, r.fp, r.fn) == (0, 0, 2)


def test_report_empty_gts_all_sentinels():
    dets = [Detection(1, 1, (0, 0, 5, 5), 0.9),
            Detection(1, 1, (2, 2, 5, 5), 0.8),
            Detection(2, 3, (0, 0, 5, 5), 0.7)]
    r = ap_report(dets, [], max_dets=1)
    assert r.ap == r.ap50 == r.ap75 == -1.0
    assert r.ap_vt == r.ap_t == r.ap_s == r.ap_m == -1.0
    assert (r.tp, r.fp, r.fn) == (0, 2, 0)
    ref = oracles.brute_force_report(
        [(d.image_id, d.category_id, d.bbox, d.score) for d in dets], [], 1)
    assert r.to_dict() == ref


def test_report_score_scale_invariance():
    dets, gts = scenario(11)
    base = ap_report(dets, gts).to_dict()
    scaled = [Detection(d.image_id, d.category_id, d.bbox, 3.0 * d.score)
              for d in dets]
    assert ap_report(scaled, gts).to_dict() == base


def test_report_adding_lowest_score_tp_never_hurts():
    dets, gts = scenario(12)
    base = ap_report(dets, gts)
    _, matched = match_detections(dets, gts, 0.5)
    free = [g for g, m in zip(gts, matched) if not m]
    assert free, "scenario must leave at least one gt unmatched"
    lowest = min(d.score for d in dets) / 2.0
    extra = dets + [Detection(free[0].image_id, free[0].category_id,
                              free[0].to_xywh(), lowest)]
    after = ap_report(extra, gts)
    for k, v in base.to_dict().items():
        if k in ("tp", "fp", "fn") or v == -1.0:
            continue
        assert after.to_dict()[k] >= v - 1e-12


# ---------------------------------------------------------------------------
# oracle equivalence on seeded multi-image multi-category scenes

SIZE_POOL = (2.0, 3.5, 5.0, 9.0, 13.0, 18.0, 26.0, 34.0, 42.0)


def scenario(seed, n_images=2, n_cats=2):
    rng = Rng(seed)
    gts = []
    dets = []
    for img in range(1, n_images + 1):
        for cat in range(1, n_cats + 1):
            for _ in range(rng.randint(1, 3)):
                w = SIZE_POOL[rng.randint(0, len(SIZE_POOL) - 1)]
                h = w * rng.uniform(0.7, 1.4)
                x = rng.uniform(0, 160)
                y = rng.uniform(0, 160)
                gts.append(gt(img, cat, x, y, w, h))
                if rng.random() < 0.8:
                    jx = x + rng.uniform(-0.3, 0.3) * w
                    jy = y + rng.uniform(-0.3, 0.3) * h
                    jw = w * rng.uniform(0.7, 1.3)
                    jh = h * rng.uniform(0.7, 1.3)
                    dets.append(Detection(img, cat, (jx, jy, jw, jh),
                                          rng.uniform(0.05, 0.99)))
        # one spurious detection per image
        s = SIZE_POOL[rng.randint(0, len(SIZE_POOL) - 1)]
        dets.append(Detection(img, 1, (rng.uniform(0, 160), rng.uniform(0, 160),
                                       s, s), rng.uniform(0.05, 0.99)))
    return dets[:12], gts


def assert_matches_oracle(dets, gts, max_dets):
    got = ap_report(dets, gts, max_dets=max_dets).to_dict()
    ref = oracles.brute_force_report(
        [(d.image_id, d.category_id, d.bbox, d.score) for d in dets],
        [(g.image_id, g.category_id, g.to_xywh()) for g in gts],
        max_dets)
    assert set(got) == set(ref)
    for k in got:
        if k in ("tp", "fp", "fn"):
            assert got[k] == ref[k], k
        else:
            assert abs(got[k] - ref[k]) < 1e-12, k
    return got


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("max_dets", [100, 2])
def test_report_matches_brute_force(seed, max_dets):
    dets, gts = scenario(seed)
    assert_matches_oracle(dets, gts, max_dets)


# ---------------------------------------------------------------------------
# oracle equivalence on the ties and edges a matrix-based matcher must keep

def jittered(rng, img, cat, box, spread, score):
    x, y, w, h = box
    return Detection(img, cat, (x + rng.uniform(-spread, spread) * w,
                                y + rng.uniform(-spread, spread) * h,
                                w * rng.uniform(1 - spread, 1 + spread),
                                h * rng.uniform(1 - spread, 1 + spread)), score)


def duplicate_gt_scene(seed):
    """Every gt box appears two or three times; dets copy or jitter it."""
    rng = Rng(seed)
    gts, dets = [], []
    for img in (1, 2):
        for _ in range(8):
            w = SIZE_POOL[rng.randint(0, len(SIZE_POOL) - 1)]
            box = (rng.uniform(0, 100), rng.uniform(0, 100), w, w)
            gts += [gt(img, 1, *box)] * rng.randint(2, 3)
            dets.append(Detection(img, 1, box, rng.uniform(0.1, 0.9)))
            for _ in range(rng.randint(0, 3)):
                dets.append(jittered(rng, img, 1, box, 0.15, rng.uniform(0.1, 0.9)))
    return dets, gts


def equal_score_scene(seed):
    """Scores drawn from three values, so input order breaks most ties."""
    rng = Rng(seed)
    gts, dets = [], []
    for cat in (1, 2):
        for _ in range(10):
            w = SIZE_POOL[rng.randint(0, len(SIZE_POOL) - 1)]
            box = (rng.uniform(0, 60), rng.uniform(0, 60), w, w * rng.uniform(0.8, 1.2))
            gts.append(gt(1, cat, *box))
            for _ in range(rng.randint(1, 3)):
                dets.append(jittered(rng, 1, cat, box, 0.25,
                                     (0.3, 0.6, 0.9)[rng.randint(0, 2)]))
    return dets, gts


EDGE_SIDES = ((8.0, 8.0), (4.0, 16.0), (16.0, 16.0), (8.0, 32.0),
              (32.0, 32.0), (16.0, 64.0))   # areas 64, 256 and 1024 exactly


def bucket_edge_scene(seed):
    """Gt areas sit exactly on the bucket edges; some dets copy them, so
    their areas do too."""
    rng = Rng(seed)
    gts, dets = [], []
    for _ in range(18):
        w, h = EDGE_SIDES[rng.randint(0, len(EDGE_SIDES) - 1)]
        box = (rng.uniform(0, 200), rng.uniform(0, 200), w, h)
        gts.append(gt(1, 1, *box))
        if rng.random() < 0.5:
            dets.append(Detection(1, 1, box, rng.uniform(0.1, 0.9)))
        else:
            dets.append(jittered(rng, 1, 1, box, 0.1, rng.uniform(0.1, 0.9)))
        if rng.random() < 0.3:   # an unmatched det whose area is an edge value
            dets.append(Detection(1, 1, (rng.uniform(300, 400), 0.0, w, h),
                                  rng.uniform(0.1, 0.9)))
    return dets, gts


def threshold_edge_scene(seed):
    """Integer boxes whose det keeps 1/2, 3/4 or 4/5 of the gt height, so
    IoU lands exactly on the 0.50, 0.75 or 0.80 threshold."""
    rng = Rng(seed)
    gts, dets = [], []
    for k in range(15):
        w, h = (4.0, 8.0, 16.0, 20.0)[rng.randint(0, 3)], 20.0
        x, y = float(30 * k), float(rng.randint(0, 100))
        gts.append(gt(1, 1, x, y, w, h))
        keep = (10.0, 15.0, 16.0)[rng.randint(0, 2)]
        dets.append(Detection(1, 1, (x, y, w, keep), rng.uniform(0.1, 0.9)))
    return dets, gts


def test_iou_exactly_at_threshold_matches():
    dets, gts = threshold_edge_scene(1)
    r = ap_report(dets, gts).to_dict()
    assert r["ap50"] == 1.0 and r["tp"] == len(gts)


def ignored_gt_scene(seed):
    """Nested gt pairs from neighbouring buckets: the det overlaps the outer
    gt more, so in the inner gt's bucket the ignored outer gt overlaps it
    more than the real one it must match."""
    rng = Rng(seed)
    gts, dets = [], []
    for k in range(12):
        inner = rng.uniform(6.2, 7.9)    # bucket vt
        outer = rng.uniform(8.05, 8.6)   # bucket t; IoU with inner >= 0.51
        x, y = 20.0 * k + rng.uniform(0, 5), rng.uniform(0, 150)
        pair = [gt(1, 1, x, y, inner, inner), gt(1, 1, x, y, outer, outer)]
        gts += pair if rng.random() < 0.5 else pair[::-1]
        dets.append(Detection(1, 1, (x, y, outer, outer), rng.uniform(0.1, 0.9)))
    return dets, gts


def test_ignored_gt_does_not_displace_a_real_match():
    dets, gts = ignored_gt_scene(1)
    r = ap_report(dets, gts).to_dict()
    # each det takes its outer gt at IoU 1, but in bucket vt it must take
    # the inner one; at IoU 0.50 half the gts stay unmatched
    assert r["ap_vt"] == r["ap_t"] == 1.0
    assert (r["tp"], r["fn"]) == (12, 12)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("make", [duplicate_gt_scene, equal_score_scene,
                                  bucket_edge_scene, threshold_edge_scene,
                                  ignored_gt_scene])
def test_report_matches_brute_force_on_ties_and_edges(make, seed):
    dets, gts = make(seed)
    assert_matches_oracle(dets, gts, 100)


@pytest.mark.parametrize("max_dets", [1, 3, 7])
def test_report_matches_brute_force_when_max_dets_cuts_groups(max_dets):
    (dets, gts), (dets2, gts2) = equal_score_scene(4), duplicate_gt_scene(4)
    dets, gts = dets + dets2, gts + gts2
    assert max(sum(1 for d in dets if (d.image_id, d.category_id) == k)
               for k in {(d.image_id, d.category_id) for d in dets}) > max_dets
    assert_matches_oracle(dets, gts, max_dets)


def test_report_matches_brute_force_on_a_dense_image():
    spec = SceneSpec(width=160, height=160, n_clusters=8, objects_per_cluster=(26, 26),
                     object_size=(2, 24), cluster_spread=9.0, seed=5)
    _, gts = generate_scene(spec)
    assert len(gts) >= 200
    dets = perturb_detections(gts, jitter_px=1.5, drop_rate=0.1, score_noise=0.05, seed=5)
    rng = Rng(5)
    dets += [Detection(1, 1, (rng.uniform(0, 150), rng.uniform(0, 150), 4.0, 4.0),
                       rng.uniform(0.0, 1.0)) for _ in range(30)]
    r = assert_matches_oracle(dets, gts, 1500)
    assert r["tp"] > 100 and r["fp"] >= 30


def test_report_validation():
    with pytest.raises(InvalidArgumentError):
        ap_report([], [gt(1, 1, 0, 0, 5, 5)], max_dets=-1)


# ---------------------------------------------------------------------------
# the one walk: candidates, tiers and per-lane taken marks

def test_candidates_keep_the_smallest_threshold_and_prune_below_it():
    det = (0.0, 0.0, 4.0, 20.0)
    below = 10.0 - 2.0 ** -40
    gts = [(0.0, 0.0, 4.0, 10.0), (0.0, 0.0, 4.0, below),   # IoU 0.5 and just below
           (0.0, 0.0, 4.0, 15.0), (0.0, 10.0, 4.0, 10.0)]  # IoU 0.75 and 0.5
    assert [iou(det, g) for g in gts[::2]] == [0.5, 0.75]
    assert 0.5 - 1e-9 < iou(det, gts[1]) < 0.5
    lanes = np.array(IOU_THRESHOLDS)
    # by (-IoU, column); 0.75 meets lanes 0-5, 0.5 only lane 0
    assert [list(c) for c in _candidates([det], gts, lanes)] == [[(2, 63), (0, 1), (3, 1)]]
    assert [list(c) for c in _candidates([det, det], gts[1:2], lanes)] == [[], []]


def walk(det_boxes, gt_boxes, lane_thr, gt_ignore, det_drop=None):
    return _walk(np.array(det_boxes), np.array(gt_boxes), np.array(lane_thr),
                 np.array(gt_ignore, dtype=np.int64), det_drop or [0] * len(det_boxes))


def test_walk_tries_ignored_ground_truth_after_a_real_one_below_the_threshold():
    det = (0.0, 0.0, 4.0, 20.0)
    real, ignored = (0.0, 0.0, 4.0, 12.0), (0.0, 0.0, 4.0, 19.0)   # IoU 0.6 and 0.95
    # lane 1 (0.8): the real one is the first free real candidate but misses,
    # so the detection takes the ignored one and is excluded
    assert walk([det], [real, ignored], [0.5, 0.8], [0, 0b10]) == ([0b01], [0b01], [0, 0b11])
    # a real one that meets the threshold wins over an ignored one of higher IoU
    assert walk([det], [real, ignored], [0.5], [0, 0b1]) == ([0b1], [0b1], [0b1, 0])
    # with nothing to take in either tier the detection is an FP unless dropped
    assert walk([det], [real], [0.5, 0.8], [0], [0b10]) == ([0b01], [0b01], [0b01])


def test_walk_keeps_a_ground_truth_taken_in_one_lane_free_in_the_others():
    gt_box = (0.0, 0.0, 4.0, 20.0)
    first, second = (0.0, 0.0, 4.0, 12.0), (0.0, 0.0, 4.0, 18.0)   # IoU 0.6 and 0.9
    # at 0.5 the first detection takes it; at 0.75 it misses and the second takes it
    assert walk([first, second], [gt_box], [0.5, 0.75], [0]) == \
        ([0b01, 0b10], [0b11, 0b11], [0b11])
    dets = [Detection(1, 1, first, 0.9), Detection(1, 1, second, 0.8)]
    r = ap_report(dets, [gt(1, 1, *gt_box)])
    assert (r.ap50, r.ap75, r.tp, r.fp) == (1.0, 0.5, 1, 1)
    assert r.to_dict() == oracles.brute_force_report(
        [(d.image_id, d.category_id, d.bbox, d.score) for d in dets], [(1, 1, gt_box)])


def test_bucket_detection_settles_for_an_ignored_ground_truth():
    """In bucket vt the high-score detection overlaps its real (vt) ground
    truth at IoU 0.40 and an ignored (t) one at 0.86: it is excluded, not an
    FP, and the second detection's TP gives AP 1.0."""
    gts = [gt(1, 1, 0.0, 0.0, 5.0, 5.0), gt(1, 1, 0.0, 0.0, 8.5, 8.5)]
    dets = [Detection(1, 1, (0.0, 0.0, 7.9, 7.9), 0.9), Detection(1, 1, (0.0, 0.0, 5.0, 5.0), 0.5)]
    r = ap_report(dets, gts).to_dict()
    assert (r["ap50"], r["ap_vt"], r["ap_t"], r["tp"], r["fp"]) == (1.0, 1.0, 1.0, 2, 0)
    assert r == oracles.brute_force_report(
        [(d.image_id, d.category_id, d.bbox, d.score) for d in dets],
        [(g.image_id, g.category_id, g.to_xywh()) for g in gts])


def dense_match(dets, gts, thresh, max_dets):
    """The dense first-maximum matcher the walk reproduces: per (image,
    category), each score-ordered detection takes the free ground truth of
    highest IoU at or above thresh, the earliest on ties."""
    flags, matched = [None] * len(dets), [False] * len(gts)
    for key in {(d.image_id, d.category_id) for d in dets}:
        order = sorted((i for i, d in enumerate(dets) if (d.image_id, d.category_id) == key),
                       key=lambda i: -dets[i].score)[:max_dets]
        cols = [j for j, g in enumerate(gts) if (g.image_id, g.category_id) == key]
        for i in order:
            best, pick = -1.0, None
            for j in cols:
                v = iou(dets[i].bbox, gts[j].to_xywh())
                if not matched[j] and v >= thresh and v > best:
                    best, pick = v, j
            flags[i] = pick is not None
            if pick is not None:
                matched[pick] = True
    return flags, matched


@pytest.mark.parametrize("thresh", [0.1, 1.0])
def test_match_detections_at_the_threshold_extremes(thresh):
    gts = [gt(1, 1, 0, 0, 4, 4), gt(1, 1, 10, 0, 4, 4)]
    dets = [Detection(1, 1, (0, 0, 4, 4), 0.9),      # IoU 1
            Detection(1, 1, (10, 0, 4, 1.8), 0.8),   # IoU 0.45
            Detection(1, 1, (10, 0, 4, 0.3), 0.7)]   # IoU 0.075
    want = ([True, True, False], [True, True]) if thresh == 0.1 else \
        ([True, False, False], [True, False])
    assert match_detections(dets, gts, thresh) == want
    rng = Rng(19)
    for _ in range(40):   # boxes on a unit grid, so IoU 1 and exact ties are common
        gts = [gt(1, rng.randint(1, 2), rng.randint(0, 6), rng.randint(0, 6),
                  rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 8))]
        dets = [Detection(1, rng.randint(1, 2), (rng.randint(0, 6), rng.randint(0, 6),
                                                 rng.randint(1, 4), rng.randint(1, 4)),
                          rng.randint(1, 3) / 3) for _ in range(rng.randint(0, 10))]
        max_dets = rng.randint(1, 6)
        assert match_detections(dets, gts, thresh, max_dets) == \
            dense_match(dets, gts, thresh, max_dets)


def one_image_boxes(n, seed=10):
    """n ground truths in one image, 2-16 px squares at one per 164 px^2
    whatever n is, and one detection per ground truth jittered by up to 15 %
    of its side; drawn straight from a seeded Rng, with no image."""
    side = 12.8 * n ** 0.5
    gts, dets = [], []
    for ux, uy, uw, jx, jy, score in Rng(seed).randoms(6 * n).reshape(n, 6).tolist():
        x, y, w = ux * side, uy * side, 2.0 + 14.0 * uw
        gts.append(gt(1, 1, x, y, w, w))
        dets.append(Detection(1, 1, (x + (jx - 0.5) * 0.3 * w, y + (jy - 0.5) * 0.3 * w, w, w),
                              score))
    return dets, gts


def test_ten_thousand_boxes_in_one_image_stay_under_16_mb():
    """10,000 ground truths and 10,000 detections in one (image, category)
    group: only candidates are kept, never the 10,000 x 10,000 IoU matrix
    (800 MB as float64)."""
    n = 10_000
    dets, gts = one_image_boxes(n)
    tracemalloc.start()
    try:
        r = ap_report(dets, gts, max_dets=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert r.tp + r.fn == n and r.tp > 0.99 * n and r.ap50 > 0.98
