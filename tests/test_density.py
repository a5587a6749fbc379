"""Density priors, losses, the generation branch, and calibration."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from densefocus import autodiff as ad
from densefocus.dafm import dafm_forward, dafm_params
from densefocus.density import (
    BBoxAnnotation, CalibParams, DensityMap, DgbConfig, calib_params,
    calibrate_density, density_loss, density_values, dgb_channel_plan,
    dgb_forward, dgb_params, gt_density, object_sigma,
)
from densefocus.errors import InvalidArgumentError, UnsupportedOperationError
from densefocus.params import seeded_uniform
from densefocus.regions import refine_mask, threshold_mask
from densefocus.synthgen import SceneSpec, generate_scene
from densefocus.tensorfile import write_heatmap

import oracles


def ann(cx, cy, w, h):
    return BBoxAnnotation(1, 1, cx, cy, w, h)


# ---------------------------------------------------------------------------
# gt_density

def test_object_sigma_hand_values():
    assert object_sigma(3, 4) == 2.5
    assert object_sigma(4, 3) == 2.5
    assert object_sigma(6, 8) == 5.0
    assert object_sigma(1, 1) == 0.5 * math.sqrt(2.0)


def test_empty_annotations_give_zero_map():
    d = gt_density([], 16, 20)
    assert d.values.shape == (1, 16, 20)
    assert not d.values.any()
    assert d.skipped == 0
    assert d.mass() == 0.0


def test_extents_numpy_cannot_allocate_raise_invalid_argument():
    # at least 2**32 per side: numpy refuses the shape before allocating
    for side in (2 ** 32, int(1e300)):
        with pytest.raises(InvalidArgumentError, match="gt_density: cannot allocate"):
            gt_density([], side, side)


@pytest.mark.parametrize("cx,cy,bw,bh", [
    (10.0, 12.0, 3, 4),
    (10.3, 12.7, 2, 2),
    (9.5, 11.5, 5, 3),
    (20.25, 7.75, 4.5, 6.5),
    (0.9, 30.1, 3, 3),       # truncation disk clipped by the border
    (31.0, 31.0, 8, 8),      # center on the far corner pixel
])
def test_single_object_matches_per_pixel_oracle(cx, cy, bw, bh):
    got = gt_density([ann(cx, cy, bw, bh)], 32, 32)
    ref, skipped = oracles.hand_density_single(cx, cy, bw, bh, 32, 32)
    # the oracle walks pixels with scalar math.exp; only ulp noise may differ
    assert np.allclose(got.values, ref, rtol=1e-15, atol=0.0)
    assert got.skipped == skipped


def test_multi_object_map_is_sum_of_singles():
    anns = [ann(10.2, 11.7, 3, 4), ann(12.0, 13.0, 2, 5), ann(25.5, 4.5, 4, 4)]
    combined = gt_density(anns, 40, 40)
    acc = np.zeros((1, 40, 40))
    for a in anns:
        acc = acc + gt_density([a], 40, 40).values
    assert np.array_equal(combined.values, acc)


def diag_box(gamma):
    # square box whose half-diagonal equals gamma
    side = gamma * math.sqrt(2.0)
    return side, side


@pytest.mark.parametrize("gamma", [2.0, 3.5, 5.0, 8.0])
def test_single_interior_object_mass_band(gamma):
    w, h = diag_box(gamma)
    d = gt_density([ann(32.0, 32.0, w, h)], 64, 64)
    assert 0.985 <= d.mass() <= 1.001
    assert d.skipped == 0


def test_multi_object_mass_band():
    centers = [(14.0, 14.5), (14.5, 49.0), (49.2, 14.0), (49.0, 49.5), (31.7, 32.3)]
    anns = [ann(cx, cy, *diag_box(2.0 + 0.9 * i)) for i, (cx, cy) in enumerate(centers)]
    d = gt_density(anns, 64, 64)
    n = len(anns)
    assert 0.985 * n <= d.mass() <= 1.001 * n


def test_translation_equivariance_bit_exact():
    anns = [ann(20.3, 22.9, 3, 4), ann(25.0, 27.5, 2.5, 2.5)]
    dx, dy = 7, 5
    base = gt_density(anns, 64, 64).values[0]
    moved = gt_density(
        [BBoxAnnotation(1, 1, a.cx + dx, a.cy + dy, a.width, a.height) for a in anns],
        64, 64).values[0]
    assert np.array_equal(moved[dy:, dx:], base[:64 - dy, :64 - dx])
    assert not moved[:dy, :].any()
    assert not moved[:, :dx].any()


def test_out_of_bounds_centers_are_skipped():
    inside = ann(8.0, 8.0, 2, 2)
    d = gt_density([inside, ann(-0.5, 8.0, 2, 2), ann(8.0, 16.2, 2, 2)], 16, 16)
    assert d.skipped == 2
    assert np.array_equal(d.values, gt_density([inside], 16, 16).values)
    # edges of the valid range are not skipped
    assert gt_density([ann(0.0, 0.0, 2, 2)], 16, 16).skipped == 0
    assert gt_density([ann(15.0, 15.0, 2, 2)], 16, 16).skipped == 0


def test_gt_density_rejects_bad_extent():
    with pytest.raises(InvalidArgumentError):
        gt_density([], 0, 8)
    with pytest.raises(InvalidArgumentError):
        gt_density([], 8, -1)


def test_stamp_memory_is_bounded_by_the_image_not_the_box():
    # 3 sigma reaches far past the image: only the window inside it is
    # evaluated, and capping r at width + height changes no pixel
    long = gt_density([ann(4.0, 4.0, 2e4, 1e-4)], 8, 8)
    ref, _ = oracles.hand_density_single(4.0, 4.0, 2e4, 1e-4, 8, 8)
    assert (long.values > 0.0).all()
    assert np.allclose(long.values, ref, rtol=1e-15, atol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = gt_density([ann(4.0, 4.0, 1e200, 1e-200)], 8, 8)
    # sigma overflows to inf, so coef = 1/(2 pi sigma^2) is 0.0, as it rounds anyway
    assert huge.skipped == 0 and not huge.values.any()
    tracemalloc.start()
    try:
        full = gt_density([BBoxAnnotation.from_xywh(1, 1, 0.0, 0.0, 600.0, 600.0)], 600, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert full.skipped == 0 and full.values.all()
    assert peak < 16e6


def test_annotation_validation_and_xywh_roundtrip():
    with pytest.raises(InvalidArgumentError):
        ann(5, 5, 0, 3)
    with pytest.raises(InvalidArgumentError):
        ann(5, 5, 3, -1)
    for bad in (float("nan"), float("inf"), -float("inf")):
        for box in ((bad, 5, 3, 3), (5, bad, 3, 3), (5, 5, bad, 3), (5, 5, 3, bad)):
            with pytest.raises(InvalidArgumentError, match="non-finite"):
                ann(*box)
    a = BBoxAnnotation.from_xywh(2, 9, 4.0, 6.0, 10.0, 2.0, score=0.75)
    assert (a.cx, a.cy, a.width, a.height) == (9.0, 7.0, 10.0, 2.0)
    assert a.to_xywh() == (4.0, 6.0, 10.0, 2.0)
    assert a.score == 0.75


def test_density_map_validation_and_coercion():
    with pytest.raises(InvalidArgumentError):
        DensityMap(np.zeros((2, 4, 4)))
    with pytest.raises(InvalidArgumentError):
        DensityMap(np.zeros((4, 4)))
    m = DensityMap(np.full((1, 2, 2), 0.25))
    assert m.mass() == 1.0
    assert np.array_equal(density_values(m), m.values)
    assert density_values(np.zeros((3, 3))).shape == (1, 3, 3)
    with pytest.raises(InvalidArgumentError):
        density_values(np.zeros((2, 3, 3)))
    node = ad.Var(np.zeros((1, 3, 3)))
    assert density_values(node) is node


@pytest.mark.parametrize("shape", [(1, 0, 0), (1, 0, 5), (1, 5, 0), (0, 4), (0, 0)])
def test_density_values_rejects_a_zero_extent(shape):
    with pytest.raises(InvalidArgumentError, match="zero extent"):
        density_values(np.zeros(shape))


def _refined_bytes(m, tmp_path):
    out, regions = refine_mask(m)
    return out.tobytes(), regions.to_json_dict()


def _heatmap_bytes(m, tmp_path):
    write_heatmap(tmp_path / "map.pgm", m)
    return (tmp_path / "map.pgm").read_bytes()


# the library's other consumers of a [1,H,W] or [H,W] map, each reduced to
# comparable bytes
MAP_CONSUMERS = {
    "refine_mask": _refined_bytes,
    "dafm_forward": lambda m, tmp_path: dafm_forward(
        np.arange(72.0).reshape(2, 6, 6), m, dafm_params(2, 2, 36, 1), "absolute",
        0.5).tobytes(),
    "write_heatmap": _heatmap_bytes,
}


@pytest.mark.parametrize("consumer", sorted(MAP_CONSUMERS))
def test_map_consumers_share_the_density_coercion(consumer, tmp_path):
    call = MAP_CONSUMERS[consumer]
    mask = np.zeros((6, 6))
    mask[1:3, 2:5] = 1.0
    mask[5, 0] = 1.0
    assert call(mask, tmp_path) == call(mask[None], tmp_path)
    for bad in (np.zeros((2, 6, 6)), np.zeros(6), np.zeros((1, 1, 6, 6))):
        with pytest.raises(InvalidArgumentError):
            call(bad, tmp_path)


def test_region_selection_refuses_a_graph_node_and_write_heatmap_reads_its_value(tmp_path):
    mask = np.zeros((1, 6, 6))
    mask[0, 1:3, 2:5] = 1.0
    with pytest.raises(UnsupportedOperationError):
        refine_mask(ad.Var(mask))
    with pytest.raises(UnsupportedOperationError):
        threshold_mask(ad.Var(mask))
    ramp = np.abs(seeded_uniform(5, "hm.var", (6, 7), 1))
    for node in (ad.Var(ramp), ad.Var(ramp[None])):
        assert _heatmap_bytes(node, tmp_path) == _heatmap_bytes(ramp, tmp_path)


# ---------------------------------------------------------------------------
# losses

def test_density_loss_trivials_and_symmetry():
    a = DensityMap(np.abs(seeded_uniform(1, "dl.a", (1, 4, 4), 1)))
    assert float(density_loss(a, a)) == 0.0
    b = DensityMap(a.values + 0.5)
    assert float(density_loss(a, b)) == pytest.approx(0.25, abs=1e-15)
    c = DensityMap(np.abs(seeded_uniform(2, "dl.c", (1, 4, 4), 1)))
    assert float(density_loss(a, c)) == float(density_loss(c, a))


def test_density_loss_matches_double_loop():
    p = seeded_uniform(3, "dl.p", (1, 4, 4), 1)
    g = seeded_uniform(4, "dl.g", (1, 4, 4), 1)
    acc = 0.0
    for y in range(4):
        for x in range(4):
            acc += (p[0, y, x] - g[0, y, x]) ** 2
    assert float(density_loss(p, g)) == pytest.approx(acc / 16.0, rel=1e-14)


def test_density_loss_shape_mismatch():
    with pytest.raises(InvalidArgumentError):
        density_loss(np.zeros((1, 4, 4)), np.zeros((1, 4, 5)))


def test_density_loss_takes_two_density_maps():
    p = seeded_uniform(6, "dl.hw.p", (4, 5), 1)
    g = seeded_uniform(7, "dl.hw.g", (4, 5), 1)
    assert density_loss(p, g) == density_loss(p[None], g[None])
    assert density_loss(ad.Var(p), g).value == density_loss(p[None], g[None])
    assert ad.grad_check(lambda x: density_loss(x, g), p, eps=1e-6) < 1e-5
    with pytest.raises(InvalidArgumentError):
        density_loss(np.zeros((2, 4, 5)), np.zeros((2, 4, 5)))


def test_density_loss_grad_check():
    for seed in (1, 2, 3):
        p = np.abs(seeded_uniform(seed, "dl.gp", (1, 8, 8), 1)) + 0.1
        g = np.abs(seeded_uniform(seed, "dl.gg", (1, 8, 8), 1))
        assert ad.grad_check(lambda x: density_loss(x, g), p, eps=1e-6) < 1e-5
        assert ad.grad_check(lambda x: density_loss(p, x), g, eps=1e-6) < 1e-5


# ---------------------------------------------------------------------------
# density generation branch

def test_dgb_config_validation():
    with pytest.raises(InvalidArgumentError):
        DgbConfig(0, 8)
    with pytest.raises(InvalidArgumentError):
        DgbConfig(2, 0)


def test_dgb_channel_plan_default():
    enc, dec = dgb_channel_plan(DgbConfig(3, 8), 2)
    assert enc == [(2, 8), (8, 16), (16, 32)]
    assert dec == [(32, 16), (16, 8), (8, 8)]


def test_dgb_params_shapes():
    cfg = DgbConfig(2, 4)
    params = dgb_params(cfg, 3, seed=11)
    assert list(params) == ["enc0.w", "enc0.b", "enc1.w", "enc1.b",
                            "dec0.w", "dec0.b", "dec1.w", "dec1.b",
                            "reg.w", "reg.b"]
    assert params["enc0.w"].shape == (4, 3, 3, 3)
    assert params["enc1.w"].shape == (8, 4, 3, 3)
    assert params["dec0.w"].shape == (4, 8, 3, 3)
    assert params["dec1.w"].shape == (4, 4, 3, 3)
    assert params["reg.w"].shape == (1, 4, 3, 3)
    with pytest.raises(InvalidArgumentError):
        dgb_params(cfg, 0, seed=11)


def test_dgb_forward_zero_params_zero_map():
    cfg = DgbConfig(2, 4)
    params = dgb_params(cfg, 1, seed=0)
    for k in params:
        params[k] = np.zeros_like(params[k])
    out = dgb_forward(np.ones((1, 8, 8)), params, cfg)
    assert isinstance(out, np.ndarray)
    assert out.shape == (1, 8, 8)
    assert not out.any()


def test_dgb_forward_shape_and_nonnegativity():
    cfg = DgbConfig(3, 8)
    params = dgb_params(cfg, 2, seed=5)
    x = seeded_uniform(5, "dgb.x", (2, 16, 24), 1)
    out = dgb_forward(x, params, cfg)
    assert out.shape == (1, 16, 24)
    assert (out >= 0.0).all()


def test_dgb_forward_divisibility_and_shape_errors():
    cfg = DgbConfig(2, 4)
    params = dgb_params(cfg, 1, seed=1)
    with pytest.raises(InvalidArgumentError):
        dgb_forward(np.ones((1, 6, 8)), params, cfg)
    with pytest.raises(InvalidArgumentError):
        dgb_forward(np.ones((8, 8)), params, cfg)


def test_dgb_with_density_loss_grad_check():
    cfg = DgbConfig(1, 2)
    params = dgb_params(cfg, 1, seed=2)
    x = np.abs(seeded_uniform(2, "t.dgb.x", (1, 4, 4), 1)) + 0.5
    gt = np.abs(seeded_uniform(2, "t.dgb.gt", (1, 4, 4), 1))

    def f(xx):
        return density_loss(dgb_forward(xx, params, cfg), gt)

    # guard against a dead-relu network, which would pass vacuously
    assert dgb_forward(x, params, cfg).max() > 0.0
    assert ad.grad_check(f, x, eps=1e-6) < 1e-5


def test_dgb_forward_is_one_tape_node_per_conv_layer():
    # train_demo's first scene and weights: each conv + ReLU layer is one node
    # holding the activation, 7 fewer than relu(conv2d) builds, and every
    # leaf gradient keeps the bits of that two-node graph
    cfg = DgbConfig()
    image, anns = generate_scene(SceneSpec(
        width=64, height=64, n_clusters=2, objects_per_cluster=(3, 6),
        object_size=(3, 8), cluster_spread=7.0, seed=7000), image_id=1)
    target = gt_density(anns, 64, 64).values
    params = dgb_params(cfg, 1, seed=7)

    def two_node_layers(x, leaves):
        for i in range(cfg.stages):
            x = ad.relu(ad.conv2d(x, leaves[f"enc{i}.w"], leaves[f"enc{i}.b"], 2, 1))
        for i in range(cfg.stages):
            x = ad.bilinear_resize(x, 2 * x.shape[1], 2 * x.shape[2])
            x = ad.relu(ad.conv2d(x, leaves[f"dec{i}.w"], leaves[f"dec{i}.b"], 1, 1))
        return ad.relu(ad.conv2d(x, leaves["reg.w"], leaves["reg.b"], 1, 1))

    graphs = []
    for forward in (lambda leaves: dgb_forward(image, leaves, cfg),
                    lambda leaves: two_node_layers(image, leaves)):
        leaves = {name: ad.Var(value) for name, value in params.items()}
        loss = density_loss(forward(leaves), target)
        graphs.append((ad._topo_order(loss), leaves))
        ad.backward(loss)
    (order, leaves), (ref_order, ref_leaves) = graphs
    layers = [name[:-2] for name in params if name.endswith(".w")]
    assert len(layers) == 7 and len(order) == len(ref_order) - 7
    for layer in layers:
        weight, bias = leaves[f"{layer}.w"], leaves[f"{layer}.b"]
        users = [node for node in order if weight in node._parents]
        assert len(users) == 1 and users[0]._parents[-2:] == (weight, bias)
        assert (users[0].value >= 0.0).all()
    assert any(leaf.grad.any() for leaf in leaves.values())
    for name in params:
        assert leaves[name].grad.tobytes() == ref_leaves[name].grad.tobytes()


# ---------------------------------------------------------------------------
# calibration

def test_calibrate_zero_params_is_half():
    p = CalibParams(w1=np.zeros((4, 1, 3, 3)), b1=np.zeros(4),
                    w2=np.zeros((1, 4, 1, 1)), b2=np.zeros(1))
    out = calibrate_density(DensityMap(np.abs(seeded_uniform(1, "cal.z", (1, 5, 5), 1))), p)
    assert np.array_equal(out, np.full((1, 5, 5), 0.5))


def test_calibrate_matches_hand_pipeline():
    p = calib_params(seed=9)
    d = np.abs(seeded_uniform(9, "cal.d", (1, 6, 7), 1))
    got = calibrate_density(DensityMap(d), p)
    ref = oracles.hand_calibrate(d, p.w1, p.b1, p.w2, p.b2)
    assert got.shape == ref.shape
    assert np.allclose(got, ref, rtol=1e-13, atol=1e-15)


def test_calibrate_output_open_unit_interval():
    p = calib_params(seed=3)
    for scale in (0.0, 1.0, 50.0):
        d = scale * np.abs(seeded_uniform(4, "cal.rng", (1, 8, 8), 1))
        out = calibrate_density(DensityMap(d), p)
        assert (out > 0.0).all() and (out < 1.0).all()
        assert out.shape == (1, 8, 8)


def test_calibrate_validation_and_graph_mode():
    p = calib_params(seed=1, c_mid=2)
    assert p.w1.shape == (2, 1, 3, 3)
    with pytest.raises(InvalidArgumentError):
        calib_params(seed=1, c_mid=0)
    d = ad.Var(np.abs(seeded_uniform(2, "cal.v", (1, 4, 4), 1)))
    out = calibrate_density(d, p)
    assert isinstance(out, ad.Var)
    assert out.value.shape == (1, 4, 4)
