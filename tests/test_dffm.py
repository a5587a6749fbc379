"""Dual-frequency fusion: band masks, the enhancement block with its
spectrum split, and the multi-kernel forward."""

import numpy as np
import pytest

from densefocus import autodiff as ad
from densefocus import ops
from densefocus.density import DgbConfig, dgb_forward, dgb_params
from densefocus.dffm import (
    DEFAULT_KERNEL_SET, EdhParams, dffm_forward, dffm_params, edh, edh_params,
    frequency_masks,
)
from densefocus.errors import InvalidArgumentError
from densefocus.params import seeded_uniform
from densefocus.synthgen import SceneSpec, generate_scene

import oracles


def u(seed, name, shape, fan=4):
    return seeded_uniform(seed, name, shape, fan)


def unit_density(seed, h, w):
    d = np.abs(u(seed, f"dn.{h}x{w}", (1, h, w), 1))
    return d / (d.max() + 1e-9)


# ---------------------------------------------------------------------------
# frequency masks

def test_zero_projector_gives_half_masks():
    p = u(1, "fm.p", (3, 5, 5))
    d = unit_density(1, 5, 5)
    m_low, m_high = frequency_masks(p, d, np.zeros((1, 3, 1, 1)), np.zeros(1))
    assert np.array_equal(m_low, np.full((1, 5, 5), 0.5))
    assert np.array_equal(m_high, np.full((1, 5, 5), 0.5))


def test_zero_density_mask_is_sigmoid_of_bias():
    p = u(2, "fm.p0", (3, 4, 4))
    w = u(2, "fm.w0", (1, 3, 1, 1), 3)
    b = np.array([0.3])
    m_low, _ = frequency_masks(p, np.zeros((1, 4, 4)), w, b)
    assert np.allclose(m_low, ops.sigmoid(np.array(0.3)), rtol=1e-15)


def test_masks_complement_exactly():
    for seed in (1, 2, 3, 4, 5):
        p = u(seed, "fm.c.p", (4, 6, 6))
        d = unit_density(seed, 6, 6)
        w = u(seed, "fm.c.w", (1, 4, 1, 1), 4)
        b = u(seed, "fm.c.b", (1,), 4)
        m_low, m_high = frequency_masks(p, d, w, b)
        assert np.array_equal(m_low + m_high, np.ones((1, 6, 6)))
        assert ((m_low > 0.0) & (m_low < 1.0)).all()


def test_frequency_masks_shape_mismatch():
    with pytest.raises(InvalidArgumentError):
        frequency_masks(np.zeros((3, 4, 4)), np.zeros((1, 4, 5)),
                        np.zeros((1, 3, 1, 1)), np.zeros(1))


# ---------------------------------------------------------------------------
# enhancement block

def micro_point(seed, c=3, h=4, w=4):
    pooled = u(seed, "edh.pooled", (c, h, w))
    d_cal = 0.2 + 0.6 * np.abs(u(seed, "edh.dcal", (1, h, w), 1))
    return pooled, unit_density(seed, h, w), d_cal, edh_params(c, seed, tag="t")


def bands(pooled, density, params):
    """The path's own split: dct2(pooled) weighted by its band masks."""
    m_low, m_high = frequency_masks(pooled, density, params.mask_w, params.mask_b)
    spectrum = ops.dct2(pooled)
    return spectrum * m_low, spectrum * m_high


def hand_edh(low, high, pooled, d_cal, p):
    return oracles.hand_edh(low, high, pooled, d_cal,
                            {"ca_reduce": p.ca_reduce, "ca_expand": p.ca_expand,
                             "sa_w": p.sa_w, "mix_high": p.mix_high, "mix_low": p.mix_low})


def test_zero_mixers_give_uniform_affinity():
    pooled, density, d_cal, params = micro_point(4)
    params.mix_high = np.zeros((3, 3))
    params.mix_low = np.zeros((3, 3))
    got = edh(pooled, density, d_cal, params)
    ref = np.broadcast_to(pooled.mean(axis=0), (3, 4, 4)) + d_cal
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-14)


def test_edh_matches_hand_pipeline():
    for seed in (1, 2, 3):
        pooled, density, d_cal, params = micro_point(seed)
        got = edh(pooled, density, d_cal, params)
        ref = hand_edh(*bands(pooled, density, params), pooled, d_cal, params)
        assert got.shape == (3, 4, 4)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-14)


def affinity_of(low, high, d_cal, params):
    c = low.shape[0]
    l = d_cal.size
    f_low = oracles.hand_channel_attention(
        oracles.naive_idct2(low), params.ca_reduce, params.ca_expand)
    f_high = oracles.hand_spatial_attention(oracles.naive_idct2(high), params.sa_w)
    d_flat = d_cal.reshape(1, l)
    gh = (params.mix_high @ f_high.reshape(c, l)) * d_flat
    gl = (params.mix_low @ f_low.reshape(c, l)) * (1.0 - d_flat)
    return oracles.hand_softmax_rows(gh @ gl.T)


def test_affinity_rows_stochastic_and_argmax_scale_invariant():
    pooled, density, d_cal, params = micro_point(5)
    low, high = bands(pooled, density, params)
    a1 = affinity_of(low, high, d_cal, params)
    assert np.abs(a1.sum(axis=1) - 1.0).max() < 1e-12
    scaled = EdhParams(params.mask_w, params.mask_b, params.ca_reduce,
                       params.ca_expand, params.sa_w,
                       3.0 * params.mix_high, 3.0 * params.mix_low)
    a2 = affinity_of(low, high, d_cal, scaled)
    assert np.array_equal(a1.argmax(axis=1), a2.argmax(axis=1))
    # and the implementation agrees with the oracle at both scales
    for p in (params, scaled):
        got = edh(pooled, density, d_cal, p)
        assert np.allclose(got, hand_edh(low, high, pooled, d_cal, p),
                           rtol=1e-12, atol=1e-14)


def test_edh_params_validation():
    p = edh_params(8, seed=1, ca_reduction=4)
    assert p.ca_reduce.shape == (2, 8)
    assert p.ca_expand.shape == (8, 2)
    assert edh_params(2, seed=1).ca_reduce.shape == (1, 2)  # floor to one unit
    with pytest.raises(InvalidArgumentError):
        edh_params(0, seed=1)
    with pytest.raises(InvalidArgumentError):
        edh_params(4, seed=1, sa_kernel=4)
    for bad in (0, -3):
        with pytest.raises(InvalidArgumentError, match="ca_reduction"):
            edh_params(8, seed=1, ca_reduction=bad)


# ---------------------------------------------------------------------------
# full forward

def test_default_kernel_set_is_table_best():
    assert DEFAULT_KERNEL_SET == (3, 6, 9)


def test_shape_preserved_on_36():
    c = 4
    params = dffm_params(c, DEFAULT_KERNEL_SET, seed=6)
    p = u(6, "df.p36", (c, 36, 36))
    out = dffm_forward(p, unit_density(6, 36, 36), params)
    assert out.shape == (c, 36, 36)


def test_empty_kernel_set_is_pure_conv_path():
    c = 3
    params = dffm_params(c, (), seed=7)
    p = u(7, "df.p0", (c, 9, 9))
    out = dffm_forward(p, unit_density(7, 9, 9), params, kernel_set=())
    ref = ops.conv2d(ops.conv2d(p, params.conv_w, params.conv_b, 1, 1),
                     params.out_w, params.out_b, 1, 0)
    assert np.array_equal(out, ref)


def test_kernel_and_path_validation():
    c = 2
    params = dffm_params(c, (3, 6), seed=8)
    p = u(8, "df.pv", (c, 12, 12))
    d = unit_density(8, 12, 12)
    with pytest.raises(InvalidArgumentError):
        dffm_forward(p, d, params, kernel_set=(3, 13))
    with pytest.raises(InvalidArgumentError):
        dffm_forward(p, d, params, kernel_set=(0, 3))
    with pytest.raises(InvalidArgumentError):
        dffm_forward(p, d, params, kernel_set=(3, 6, 9))
    with pytest.raises(InvalidArgumentError):
        dffm_forward(np.zeros((12, 12)), d, params, kernel_set=(3, 6))


def test_coarser_kernels_cost_fewer_macs():
    c = 4
    p = u(9, "df.mac.p", (c, 63, 63))
    d = unit_density(9, 63, 63)
    counts = {}
    for ks in ((3, 6, 9), (3, 5, 7)):
        params = dffm_params(c, ks, seed=9)
        with ops.count_macs() as counter:
            dffm_forward(p, d, params, kernel_set=ks)
        counts[ks] = counter.macs
    assert counts[(3, 6, 9)] < counts[(3, 5, 7)]


def test_forward_deterministic_and_graph_mode():
    c = 3
    params = dffm_params(c, (2, 4), seed=10)
    p = u(10, "df.det.p", (c, 8, 8))
    d = unit_density(10, 8, 8)
    a = dffm_forward(p, d, params, kernel_set=(2, 4))
    b = dffm_forward(p, d, params, kernel_set=(2, 4))
    assert np.array_equal(a, b)
    g = dffm_forward(ad.Var(p), d, params, kernel_set=(2, 4))
    assert isinstance(g, ad.Var)
    assert np.array_equal(g.value, a)


def test_density_gradient_matches_a_central_difference():
    """A graph-node density gets its gradient through P * D and the D and
    1 - D gates: the tape's directional derivative matches the numeric one."""
    c, h, w = 4, 12, 12
    for seed in range(10):
        params = dffm_params(c, (3,), seed)
        x = u(seed, "df.dg.x", (c, h, w))
        d = unit_density(seed, h, w)
        weight = u(seed, "df.dg.w", (c, h, w))
        direction = u(seed, "df.dg.dir", (1, h, w), 1)

        def f(dd):
            return ad.sum_all(ad.multiply(dffm_forward(x, dd, params, kernel_set=(3,)),
                                          weight))

        node = ad.Var(d)
        ad.backward(f(node))
        tape = float(np.sum(node.grad * direction))
        eps = 1e-5
        numeric = (float(f(d + eps * direction)) - float(f(d - eps * direction))) / (2 * eps)
        assert abs(tape - numeric) <= 1e-6 * abs(numeric), seed


def test_fusion_on_a_predicted_density_reaches_the_density_branch():
    cfg = DgbConfig()
    image, _ = generate_scene(SceneSpec(
        width=64, height=64, n_clusters=2, objects_per_cluster=(3, 6),
        object_size=(3, 8), cluster_spread=7.0, seed=7000), image_id=1)
    leaves = {name: ad.Var(v) for name, v in dgb_params(cfg, 1, seed=7).items()}
    density = dgb_forward(image, leaves, cfg)
    z = dffm_forward(u(7, "df.chain.x", (4, 64, 64)), density,
                     dffm_params(4, (4,), seed=7), kernel_set=(4,))
    ad.backward(ad.sum_all(ad.multiply(z, u(7, "df.chain.w", (4, 64, 64)))))
    for name, leaf in leaves.items():
        assert leaf.grad is not None and np.any(leaf.grad != 0.0), name
