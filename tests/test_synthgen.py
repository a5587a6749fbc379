"""Synthetic scene generator: determinism, geometry, noise model, and the
detection perturbation stream."""

import sys
import tracemalloc

import numpy as np
import pytest

from densefocus.density import gt_density
from densefocus.errors import InvalidArgumentError
from densefocus.evalkit import ap_report
from densefocus.rng import Rng
from densefocus.synthgen import (
    NOISE_SIGMA, SceneSpec, generate_scene, perturb_detections,
)

import oracles


def test_noise_sigma_constant():
    assert NOISE_SIGMA == 0.05


def test_scene_spec_validation():
    with pytest.raises(InvalidArgumentError):
        SceneSpec(0, 64, 1)
    with pytest.raises(InvalidArgumentError):
        SceneSpec(64, 64, -1)
    with pytest.raises(InvalidArgumentError):
        SceneSpec(64, 64, 1, objects_per_cluster=(5, 3))
    with pytest.raises(InvalidArgumentError):
        SceneSpec(64, 64, 1, objects_per_cluster=(-1, 3))
    with pytest.raises(InvalidArgumentError):
        SceneSpec(64, 64, 1, object_size=(0, 4))
    with pytest.raises(InvalidArgumentError):
        SceneSpec(64, 64, 1, object_size=(6, 4))
    for spread in (-2.0, float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="cluster_spread"):
            SceneSpec(64, 64, 1, cluster_spread=spread)
    with pytest.raises(InvalidArgumentError):
        SceneSpec(16, 16, 1, object_size=(4, 16))  # cannot fit


def test_an_overflowing_offset_keeps_its_box_inside_the_image():
    # at seed 4, four of the 24 offsets drawn with a 1e308 spread are infinite
    image, anns = generate_scene(SceneSpec(32, 32, 2, (6, 6), (3, 8), 1e308, seed=4))
    assert len(anns) == 12
    for ann in anns:
        x, y, w, h = ann.to_xywh()
        assert 0 <= x <= x + w <= 32 and 0 <= y <= y + h <= 32
    assert np.isfinite(image).all()


def test_extents_numpy_cannot_allocate_raise_invalid_argument():
    # at least 2**32 per side: numpy refuses the shape before allocating
    for side in (2 ** 32, 10 ** 12):
        with pytest.raises(InvalidArgumentError, match="generate_scene: cannot allocate"):
            generate_scene(SceneSpec(side, side, 0))


def test_determinism_and_seed_sensitivity():
    spec = SceneSpec(64, 64, 2, (3, 6), (3, 8), 7.0, seed=4)
    img_a, anns_a = generate_scene(spec)
    img_b, anns_b = generate_scene(spec)
    assert np.array_equal(img_a, img_b)
    assert anns_a == anns_b
    img_c, _ = generate_scene(SceneSpec(64, 64, 2, (3, 6), (3, 8), 7.0, seed=5))
    assert not np.array_equal(img_a, img_c)


def test_no_clusters_gives_pure_noise():
    img, anns = generate_scene(SceneSpec(64, 64, 0, (0, 0), (2, 3), 5.0, seed=11))
    assert anns == []
    assert img.shape == (1, 64, 64)
    assert img.any()
    assert np.abs(img).max() <= 6.0 * NOISE_SIGMA


def test_fixed_count_contract():
    _, anns = generate_scene(SceneSpec(256, 256, 2, (10, 10), (4, 16), 8.0, seed=7))
    assert len(anns) == 20


def test_annotations_are_integer_boxes_inside_bounds():
    spec = SceneSpec(48, 72, 3, (4, 8), (3, 9), 6.0, seed=13)
    img, anns = generate_scene(spec)
    assert len(anns) > 0
    for a in anns:
        left = a.cx - a.width / 2.0
        top = a.cy - a.height / 2.0
        assert left == int(left) and top == int(top)
        assert a.width == int(a.width) and a.height == int(a.height)
        assert 3 <= a.width <= 9 and 3 <= a.height <= 9
        assert 0 <= left and left + a.width <= spec.width
        assert 0 <= top and top + a.height <= spec.height
        assert a.image_id == 1 and a.category_id == 1


def test_image_decomposes_into_rectangles_plus_noise():
    spec = SceneSpec(64, 64, 2, (3, 5), (3, 7), 6.0, seed=21)
    img, anns = generate_scene(spec)
    rects = np.zeros((1, spec.height, spec.width))
    for a in anns:
        left = int(a.cx - a.width / 2.0)
        top = int(a.cy - a.height / 2.0)
        rects[0, top:top + int(a.height), left:left + int(a.width)] = 1.0
    residual = img - rects
    assert np.abs(residual).max() <= 6.0 * NOISE_SIGMA
    assert rects.any()


# the scene recipes of the bench workloads: infer (112², 6 clusters),
# train_dgb (64², 2), eval_dense (192², 10, then ten sparse 64² scenes)
BENCH_SCENES = [
    SceneSpec(112, 112, 6, (12, 12), (3, 9), 8.0, seed=1000),
    SceneSpec(64, 64, 2, (3, 6), (3, 8), 7.0, seed=2003),
    SceneSpec(192, 192, 10, (20, 20), (2, 20), 10.0, seed=1000),
] + [SceneSpec(64, 64, 2, (k, k), (2, 24), 6.0, seed=1001 + i)
     for i, k in enumerate((3, 6, 9, 12, 15, 18, 15, 12, 9, 6))]


@pytest.mark.parametrize("spec", BENCH_SCENES + [
    SceneSpec(40, 24, 2, (2, 5), (2, 6), 4.0, seed=5),      # not square
    SceneSpec(33, 17, 0, (0, 0), (1, 3), 2.0, seed=2**64 - 1),   # no cluster
], ids=lambda spec: f"{spec.width}x{spec.height}x{spec.n_clusters}-seed{spec.seed}")
def test_scene_equals_the_scalar_draw_reference(spec):
    img, anns = generate_scene(spec, image_id=3)
    ref_img, ref_anns = oracles.scalar_scene(spec, image_id=3)
    assert img.tobytes() == ref_img.tobytes()
    assert anns == ref_anns


def test_scene_peak_memory_stays_near_the_image():
    # the noise is drawn row by row; a whole-image draw would hold a list
    # of 2*H*W Python floats, several times the image itself
    spec = SceneSpec(192, 192, 10, (20, 20), (2, 20), 10.0, seed=1000)
    generate_scene(spec)    # warm caches outside the measurement
    tracemalloc.start()
    try:
        img, _ = generate_scene(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * img.nbytes


def replay_cluster_centers(spec):
    # mirrors the documented draw order: center x, center y, count, then
    # per object two normals and two size draws
    rng = Rng(spec.seed)
    size_lo, size_hi = spec.object_size
    margin = min(spec.cluster_spread + size_hi,
                 (min(spec.width, spec.height) - 1) / 2.0)
    centers = []
    for _ in range(spec.n_clusters):
        ccx = rng.uniform(margin, spec.width - 1 - margin)
        ccy = rng.uniform(margin, spec.height - 1 - margin)
        count = rng.randint(*spec.objects_per_cluster)
        centers.append((ccx, ccy))
        for _ in range(count):
            rng.normal(0.0, spec.cluster_spread)
            rng.normal(0.0, spec.cluster_spread)
            rng.randint(size_lo, size_hi)
            rng.randint(size_lo, size_hi)
    return centers


@pytest.mark.parametrize("hw,spread,sizes,seed", [
    (96, 7.0, (4, 8), 3),
    (128, 8.0, (4, 16), 3),
    (96, 7.0, (4, 8), 5),
])
def test_density_mass_concentrates_at_cluster_disks(hw, spread, sizes, seed):
    spec = SceneSpec(hw, hw, 2, (4, 8), sizes, spread, seed)
    _, anns = generate_scene(spec)
    centers = replay_cluster_centers(spec)
    assert len(centers) == 2
    d = gt_density(anns, hw, hw).values[0]
    yy, xx = np.mgrid[0:hw, 0:hw]
    inside = np.zeros((hw, hw), dtype=bool)
    for cx, cy in centers:
        inside |= (xx - cx) ** 2 + (yy - cy) ** 2 <= (3.0 * spread) ** 2
    assert d[inside].sum() >= 0.90 * d.sum()


# ---------------------------------------------------------------------------
# perturb_detections

def scene_gts(seed=4):
    return generate_scene(SceneSpec(96, 96, 2, (4, 7), (3, 9), 7.0, seed=seed))[1]


def test_perturb_identity_when_noise_free():
    gts = scene_gts()
    dets = perturb_detections(gts, jitter_px=0.0, drop_rate=0.0, score_noise=0.0,
                              seed=9)
    assert len(dets) == len(gts)
    for d, g in zip(dets, gts):
        assert d.bbox == g.to_xywh()
        assert d.score == 1.0
        assert (d.image_id, d.category_id) == (g.image_id, g.category_id)
    assert ap_report(dets, gts).ap == 1.0


def test_perturb_drop_all():
    assert perturb_detections(scene_gts(), drop_rate=1.0, seed=1) == []


def test_perturb_matches_documented_draw_order():
    gts = scene_gts()
    jitter, noise_mag, seed = 2.0, 0.05, 31
    dets = perturb_detections(gts, jitter, 0.4, noise_mag, seed=seed)
    rng = Rng(seed)
    expected = []
    for g in gts:
        if rng.random() < 0.4:
            continue  # a drop consumes only its own draw
        dx, dy, dw, dh = (rng.uniform(-jitter, jitter) for _ in range(4))
        noise = rng.uniform(-noise_mag, noise_mag)
        w = max(1.0, g.width + dw)
        h = max(1.0, g.height + dh)
        penalty = (abs(dx) + abs(dy) + abs(dw) + abs(dh)) / (4.0 * jitter)
        score = min(1.0, max(0.0, 1.0 - penalty + noise))
        expected.append(((g.cx + dx) - w / 2.0, (g.cy + dy) - h / 2.0, w, h, score))
    assert len(dets) == len(expected)
    for d, (x, y, w, h, score) in zip(dets, expected):
        assert d.bbox == (x, y, w, h)
        assert d.score == score
    assert 0 < len(dets) < len(gts)


def test_perturb_floors_extents_and_clamps_scores():
    tiny = [g for g in scene_gts() if min(g.width, g.height) <= 4]
    assert tiny
    dets = perturb_detections(tiny, jitter_px=6.0, drop_rate=0.0,
                              score_noise=0.8, seed=2)
    for d in dets:
        assert d.bbox[2] >= 1.0 and d.bbox[3] >= 1.0
        assert 0.0 <= d.score <= 1.0


def test_perturb_validation():
    with pytest.raises(InvalidArgumentError):
        perturb_detections([], drop_rate=1.5)
    with pytest.raises(InvalidArgumentError):
        perturb_detections([], drop_rate=-0.1)
    with pytest.raises(InvalidArgumentError):
        perturb_detections([], jitter_px=-1.0)
    with pytest.raises(InvalidArgumentError):
        perturb_detections([], score_noise=-0.5)


@pytest.mark.parametrize("value", [float("inf"), float("nan"), sys.float_info.max])
@pytest.mark.parametrize("name", ["jitter_px", "score_noise"])
def test_perturb_refuses_a_magnitude_whose_draws_overflow(name, value):
    with pytest.raises(InvalidArgumentError, match=name):
        perturb_detections(scene_gts(), **{name: value})


def test_perturb_accepts_the_largest_magnitude_with_finite_draws():
    dets = perturb_detections(scene_gts(), score_noise=sys.float_info.max / 2, seed=2)
    scores = [d.score for d in dets]
    assert 0.0 in scores and 1.0 in scores


@pytest.mark.parametrize("jitter", [1e160, 1e200, sys.float_info.max / 2],
                         ids=["1e160", "1e200", "half-max"])
def test_perturb_names_jitter_px_when_a_box_cannot_be_scored(jitter):
    # finite and within the draw bound, but the jittered extents overflow a
    # box's area or far corner
    with pytest.raises(InvalidArgumentError, match="perturb_detections: jitter_px"):
        perturb_detections(scene_gts(), jitter_px=jitter)


def test_jittered_scene_evaluates_like_brute_force():
    _, gts = generate_scene(SceneSpec(256, 256, 2, (10, 10), (4, 16), 8.0, seed=7))
    assert len(gts) == 20
    dets = perturb_detections(gts, jitter_px=2.0, drop_rate=0.2, seed=3)
    assert 0 < len(dets) <= 20
    got = ap_report(dets, gts).to_dict()
    ref = oracles.brute_force_report(
        [(d.image_id, d.category_id, d.bbox, d.score) for d in dets],
        [(g.image_id, g.category_id, g.to_xywh()) for g in gts], 100)
    for k in got:
        if k in ("tp", "fp", "fn"):
            assert got[k] == ref[k], k
        else:
            assert abs(got[k] - ref[k]) < 1e-12, k
