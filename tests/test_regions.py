"""Thresholding, two-centroid clustering, rectangle refinement, and the
focus bank that dafm_forward pools from the refined mask."""

import numpy as np
import pytest

from densefocus import autodiff as ad
from densefocus import ops
from densefocus.dafm import bank_kernel, dafm_forward, dafm_params, expected_agents
from densefocus.density import DensityMap, gt_density
from densefocus.errors import InvalidArgumentError, NumericError, UnsupportedOperationError
from densefocus.params import seeded_uniform
from densefocus.regions import RegionSet, kmeans2, refine_mask, threshold_mask
from densefocus.rng import Rng
from densefocus.synthgen import SceneSpec, generate_scene

import oracles


# ---------------------------------------------------------------------------
# threshold_mask

def test_absolute_threshold_semantics():
    d = np.array([[[0.0, 0.1], [0.2, 0.3]]])
    m = threshold_mask(d, mode="absolute", value=0.2)
    assert np.array_equal(m, [[[0.0, 0.0], [1.0, 1.0]]])  # >= keeps the boundary
    assert np.array_equal(threshold_mask(d, "absolute", 0.0), np.ones((1, 2, 2)))
    assert np.array_equal(threshold_mask(np.zeros((1, 3, 3)), "absolute", 0.1),
                          np.zeros((1, 3, 3)))


def test_quantile_keeps_top_cells():
    d = np.arange(1.0, 17.0).reshape(1, 4, 4)
    m = threshold_mask(d, mode="quantile", value=0.25)
    assert m.sum() == 4
    assert np.array_equal(np.nonzero(m[0].reshape(-1))[0], [12, 13, 14, 15])


def test_quantile_includes_ties_at_cut():
    d = np.array([[[5.0, 5.0], [5.0, 1.0]]])
    m = threshold_mask(d, "quantile", 0.25)  # ceil(1) = 1 cell, but 3 tie at 5
    assert m.sum() == 3
    assert m[0, 1, 1] == 0.0


def test_quantile_all_zero_map_is_empty():
    assert not threshold_mask(np.zeros((1, 5, 5)), "quantile", 0.5).any()


def test_quantile_keeps_no_zero_density_pixel_of_a_sparse_scene():
    # one cluster of 12 tiny objects: density on about 3 % of the 256x256 grid,
    # so the top 10 % reaches into the zeros, which must stay out of the mask
    _, anns = generate_scene(SceneSpec(256, 256, 1, (12, 12), (3, 8), 7.0, seed=5))
    d = gt_density(anns, 256, 256).values
    assert 0.0 < (d > 0).mean() < 0.10
    m = threshold_mask(d, "quantile", 0.10)
    assert np.array_equal(m, (d > 0).astype(np.float64))
    assert refine_mask(m)[0].mean() < 0.10


def test_quantile_full_and_accepts_density_map():
    d = DensityMap(np.abs(seeded_uniform(1, "thr.d", (1, 4, 4), 1)) + 0.01)
    assert threshold_mask(d, "quantile", 1.0).sum() == 16


def test_threshold_validation():
    d = np.zeros((1, 3, 3))
    with pytest.raises(InvalidArgumentError):
        threshold_mask(d, "absolute", -0.5)
    with pytest.raises(InvalidArgumentError):
        threshold_mask(d, "absolute", float("nan"))
    with pytest.raises(InvalidArgumentError):
        threshold_mask(d, "quantile", 0.0)
    with pytest.raises(InvalidArgumentError):
        threshold_mask(d, "quantile", 1.5)
    with pytest.raises(InvalidArgumentError):
        threshold_mask(d, "median", 0.5)
    with pytest.raises(UnsupportedOperationError):
        threshold_mask(ad.Var(np.zeros((1, 3, 3))), "absolute", 0.1)


def non_finite_maps():
    """One NaN, +inf or -inf pixel in a 16x16 ramp, and an all-NaN map."""
    for bad in (np.nan, np.inf, -np.inf):
        d = np.arange(1.0, 257.0).reshape(1, 16, 16)
        d[0, 5, 7] = bad
        yield d
    yield np.full((1, 16, 16), np.nan)


@pytest.mark.parametrize("mode,value", [("quantile", 0.1), ("absolute", 100.0)])
def test_threshold_rejects_non_finite_density(mode, value):
    for d in non_finite_maps():
        with pytest.raises(NumericError, match="non-finite"):
            threshold_mask(d, mode, value)
        with pytest.raises(NumericError, match="non-finite"):
            threshold_mask(DensityMap(d), mode, value)


# ---------------------------------------------------------------------------
# kmeans2

def test_kmeans2_init_coincidence_and_ties():
    assert kmeans2([(1, 1), (6, 8)], 6, 8) == [1, 2]
    assert kmeans2([(1, 1)], 6, 8) == [1]
    # the grid midpoint of a square grid is equidistant from both inits
    assert kmeans2([(3, 3)], 5, 5) == [1]


def test_kmeans2_two_blob_partition():
    blob_a = [(2, 2), (2, 3), (3, 2)]
    blob_b = [(29, 30), (30, 29), (30, 31)]
    labels = kmeans2(blob_a + blob_b, 32, 32)
    assert labels == [1, 1, 1, 2, 2, 2]


def test_kmeans2_empty_cluster_keeps_centroid():
    # every point hugs the far corner: cluster 1 ends empty yet stays at (1,1)
    labels = kmeans2([(10, 10), (10, 9), (9, 10)], 10, 10)
    assert labels == [2, 2, 2]


def test_kmeans2_empty_points_error():
    with pytest.raises(InvalidArgumentError):
        kmeans2([], 4, 4)


# ---------------------------------------------------------------------------
# refine_mask

def all_masks(h, w):
    n = h * w
    for bits in range(2 ** n):
        yield np.array([(bits >> i) & 1 for i in range(n)],
                       dtype=np.float64).reshape(h, w)


def assert_refine_matches_reference(m):
    got_mask, got_regions = refine_mask(m)
    ref_mask, ref_rects = oracles.reference_region_refine(m)
    assert np.array_equal(got_mask, ref_mask)
    assert got_regions.rectangles == ref_rects


def test_refine_matches_reference_all_3x3_masks():
    for m in all_masks(3, 3):
        assert_refine_matches_reference(m)


def test_refine_matches_reference_random_8x8():
    rng = Rng(77)
    for density in (0.1, 0.3, 0.6, 0.9):
        for _ in range(12):
            assert_refine_matches_reference(np.array(
                [[1.0 if rng.random() < density else 0.0 for _ in range(8)] for _ in range(8)]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_refine_matches_reference_on_infer_scenes(seed):
    # the benchmark's infer recipe: 112x112 scenes, quantile mask of gt_density
    for i in range(3):
        spec = SceneSpec(width=112, height=112, n_clusters=6, objects_per_cluster=(12, 12),
                         object_size=(3, 9), cluster_spread=8.0, seed=seed * 1000 + i)
        _, anns = generate_scene(spec, image_id=i + 1)
        m = threshold_mask(gt_density(anns, 112, 112))
        assert m.sum() > 1000
        assert_refine_matches_reference(m)


def test_refine_matches_reference_random_large_masks():
    rng = np.random.default_rng(2024)
    for fill in (0.01, 0.05, 0.2, 0.5, 0.9) * 4:
        h, w = rng.integers(9, 129, size=2)
        if h == w:
            w -= 1
        assert_refine_matches_reference((rng.random((h, w)) < fill).astype(np.float64))


def test_refine_empty_and_single_point():
    out, regions = refine_mask(np.zeros((1, 4, 4)))
    assert not out.any()
    assert regions.rectangles == []
    single = np.zeros((4, 4))
    single[2, 1] = 1.0
    out, regions = refine_mask(single)
    assert out.sum() == 1.0
    assert out[0, 2, 1] == 1.0
    assert regions.rectangles == [(2, 2, 1, 1)]


def test_refine_coverage_and_monotone_area():
    rng = Rng(31)
    for _ in range(30):
        m = np.array([[1.0 if rng.random() < 0.25 else 0.0
                       for _ in range(7)] for _ in range(6)])
        out, _ = refine_mask(m)
        assert np.all(out[0] >= m)          # every active cell stays active
        assert out.sum() >= m.sum()


def test_refine_idempotent_on_separable_rectangles():
    m = np.zeros((10, 12))
    m[1:4, 1:5] = 1.0     # near the (1,1) init
    m[6:9, 8:12] = 1.0    # near the (h,w) init
    out, regions = refine_mask(m)
    assert np.array_equal(out[0], m)
    assert sorted(regions.rectangles) == [(1, 3, 1, 4), (6, 8, 8, 11)]
    again, _ = refine_mask(out)
    assert np.array_equal(again, out)


def test_refine_mask_validation():
    with pytest.raises(InvalidArgumentError):
        refine_mask(np.full((3, 3), 0.5))
    with pytest.raises(InvalidArgumentError):
        refine_mask(np.zeros((2, 3, 3)))
    with pytest.raises(InvalidArgumentError):
        refine_mask(np.zeros((2, 2, 3, 3)))


def test_region_set_json_is_one_based():
    rs = RegionSet([(0, 2, 1, 3)], (4, 5))
    d = rs.to_json_dict()
    assert d["shape"] == [4, 5]
    assert d["rectangles"] == [
        {"row_min": 1, "row_max": 3, "col_min": 2, "col_max": 4}]
    with pytest.raises(InvalidArgumentError):
        RegionSet([(0, 4, 0, 2)], (4, 5))
    with pytest.raises(InvalidArgumentError):
        RegionSet([(2, 1, 0, 2)], (4, 5))


# ---------------------------------------------------------------------------
# focus bank: dafm_forward pools the refined mask's features into its agents

def bank_of(x, density, channels, seed, bank_w=None):
    """``dafm_forward``'s bank under an absolute threshold of 0.5, with the
    bank bias zeroed and, if given, the bank conv weight replaced."""
    h, w = ad.shape_of(x)[1:]
    params = dafm_params(channels, channels, expected_agents(h, w), seed)
    params.bank_b = np.zeros(channels)
    if bank_w is not None:
        params.bank_w = bank_w
    _, inter = dafm_forward(x, density, params, "absolute", 0.5, return_intermediates=True)
    return inter, params


def test_focus_bank_zero_mask_annihilates():
    x = seeded_uniform(1, "fb.x", (3, 14, 14), 1)
    d = np.zeros((1, 14, 14))
    d[0, 1:5, 2:6] = 1.0
    inter, params = bank_of(x, d, 3, 1)
    assert inter.bank.shape == (3, 7, 7)
    outside = ops.avg_pool(inter.refined_mask, bank_kernel(14, 14))[0] == 0.0
    assert outside.sum() > 40 and inter.bank[:, ~outside].any()
    assert not inter.bank[:, outside].any()
    # with the bias back, those cells are the bias alone
    params.bank_b = seeded_uniform(1, "fb.b", (3,), 3)
    _, inter_b = dafm_forward(x, d[0], params, "absolute", 0.5, return_intermediates=True)
    assert np.array_equal(inter_b.bank[:, outside],
                          np.broadcast_to(params.bank_b[:, None], (3, outside.sum())))


def test_focus_bank_identity_conv_is_avg_pool():
    x = seeded_uniform(2, "fb.id.x", (4, 32, 32), 1)
    params = dafm_params(4, 4, expected_agents(32, 32), 2)
    params.bank_w, params.bank_b = np.eye(4).reshape(4, 4, 1, 1), np.zeros(4)
    # an absolute threshold of 0 selects every pixel of a zero density
    _, inter = dafm_forward(x, np.zeros((1, 32, 32)), params, "absolute", 0.0,
                            return_intermediates=True)
    assert inter.refined_mask.all()
    assert np.allclose(inter.bank, ops.avg_pool(x, bank_kernel(32, 32)), rtol=1e-14, atol=0.0)


def test_focus_bank_aligned_rectangle_hits_one_cell():
    x = np.abs(seeded_uniform(3, "fb.rect.x", (2, 28, 28), 1)) + 0.1
    d = np.zeros((1, 28, 28))
    d[0, 24:28, 0:4] = 1.0  # exactly the bottom-left pooling window
    inter, _ = bank_of(x, d, 2, 3, bank_w=np.eye(2).reshape(2, 2, 1, 1))
    assert bank_kernel(28, 28) == 4 and np.array_equal(inter.refined_mask, d)
    out = inter.bank
    assert out.shape == (2, 7, 7)
    assert (out[:, 6, 0] > 0.0).all()
    cleared = out.copy()
    cleared[:, 6, 0] = 0.0
    assert not cleared.any()
    assert np.allclose(out[:, 6, 0], x[:, 24:28, 0:4].mean(axis=(1, 2)),
                       rtol=1e-14, atol=0.0)


def test_focus_bank_validation_and_graph_mode():
    """A graph-node input gives a graph-node bank; a graph-node density is
    read by value, so it pools the same bank as its array."""
    x = seeded_uniform(4, "fb.g.x", (2, 8, 8), 1)
    d = np.zeros((1, 8, 8))
    d[0, 2:6, 1:4] = 1.0
    inter, _ = bank_of(x, d, 2, 4)
    graph, _ = bank_of(ad.Var(x), ad.Var(d), 2, 4)
    assert isinstance(graph.bank, ad.Var)
    assert graph.bank.value.shape == (2, 4, 4)
    assert np.array_equal(graph.bank.value, inter.bank)
