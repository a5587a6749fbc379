"""Seeded parameter initialization and parameter trees."""

import hashlib
import math

import numpy as np
import pytest

from densefocus.dafm import dafm_params, expected_agents
from densefocus.density import DgbConfig, calib_params, dgb_params
from densefocus.dffm import dffm_params
from densefocus.errors import InvalidArgumentError
from densefocus.params import seeded_uniform, tree_leaves, tree_replace
from densefocus.rng import Rng


def test_seeded_uniform_range_and_determinism():
    a = seeded_uniform(3, "w", (4, 5), 25)
    b = seeded_uniform(3, "w", (4, 5), 25)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0 / 5.0)


def test_seeded_uniform_reproduces_stream_in_c_order():
    arr = seeded_uniform(9, "conv.w", (2, 3), 16)
    rng = Rng(9).derive("conv.w")
    flat = [rng.uniform(-0.25, 0.25) for _ in range(6)]
    assert arr.flatten().tolist() == flat


def test_seeded_uniform_name_and_seed_sensitivity():
    base = seeded_uniform(3, "w", (8,), 4)
    assert not np.array_equal(base, seeded_uniform(4, "w", (8,), 4))
    assert not np.array_equal(base, seeded_uniform(3, "w2", (8,), 4))


def test_seeded_uniform_bad_fan_in():
    with pytest.raises(InvalidArgumentError):
        seeded_uniform(0, "w", (2,), 0)


def scalar_seeded_uniform(seed, name, shape, fan_in):
    """seeded_uniform as one Rng.uniform call per element, in C order."""
    bound = 1.0 / math.sqrt(fan_in)
    rng = Rng(seed).derive(name)
    return np.array([rng.uniform(-bound, bound) for _ in range(math.prod(shape))]
                    ).reshape(shape)


# (name, shape, fan_in) of every tensor src/ and bench/ draw at bench sizes:
# the infer features and the trees of dgb_params(DgbConfig(), 1, seed),
# calib_params(seed), dafm_params(16, 16, expected_agents(112, 112), seed)
# and dffm_params(16, (3, 6, 9), seed), then the gradcheck points
BENCH_DRAWS = [
    ("bench.infer.features", (16, 112, 112), 16),
    # density branch: dgb_params(DgbConfig(), 1, seed)
    ("enc0.w", (8, 1, 3, 3), 9), ("enc0.b", (8,), 9),
    ("enc1.w", (16, 8, 3, 3), 72), ("enc1.b", (16,), 72),
    ("enc2.w", (32, 16, 3, 3), 144), ("enc2.b", (32,), 144),
    ("dec0.w", (16, 32, 3, 3), 288), ("dec0.b", (16,), 288),
    ("dec1.w", (8, 16, 3, 3), 144), ("dec1.b", (8,), 144),
    ("dec2.w", (8, 8, 3, 3), 72), ("dec2.b", (8,), 72),
    ("reg.w", (1, 8, 3, 3), 72), ("reg.b", (1,), 72),
    # calib_params(seed)
    ("calib.w1", (4, 1, 3, 3), 9), ("calib.b1", (4,), 9),
    ("calib.w2", (1, 4, 1, 1), 4), ("calib.b2", (1,), 4),
    # dafm_params(16, 16, expected_agents(112, 112), seed)
    ("ifam.w_query", (16, 16), 16), ("ifam.w_key", (16, 16), 16),
    ("ifam.w_value", (16, 16), 16),
    ("ifam.bias_fwd", (49,), 16), ("ifam.bias_bwd", (49,), 16),
    ("dafm.bank_w", (16, 16, 1, 1), 16), ("dafm.bank_b", (16,), 16),
    ("dafm.dw_w", (16, 1, 3, 3), 9),
    ("dafm.pw_w", (16, 16, 1, 1), 16), ("dafm.pw_b", (16,), 16),
    # dffm_params(16, (3, 6, 9), seed)
    *[(f"edh{k}.{name}", shape, fan) for k in range(3) for name, shape, fan in (
        ("mask_w", (1, 16, 1, 1), 16), ("mask_b", (1,), 16),
        ("ca_reduce", (4, 16), 16), ("ca_expand", (16, 4), 4),
        ("sa_w", (1, 2, 7, 7), 98),
        ("mix_high", (16, 16), 16), ("mix_low", (16, 16), 16))],
    ("dffm.conv_w", (16, 16, 3, 3), 144), ("dffm.conv_b", (16,), 144),
    ("dffm.out_w", (16, 16, 1, 1), 16), ("dffm.out_b", (16,), 16),
    # densefocus gradcheck points
    ("check.ops.x", (2, 6, 6), 4), ("check.ops.w", (3, 2, 3, 3), 18),
    ("check.density.pred", (1, 8, 8), 4), ("check.density.gt", (1, 8, 8), 4),
    ("check.dafm.x", (3, 8, 8), 9), ("check.dafm.density", (1, 8, 8), 1),
    ("check.dafm.reduce", (3, 8, 8), 1),
    ("check.dffm.x", (4, 12, 12), 9), ("check.dffm.density", (1, 12, 12), 1),
    ("check.dffm.reduce", (4, 12, 12), 1),
    # degenerate shapes
    ("w", (), 1), ("w", (0,), 1),
]
BENCH_SEEDS = (1, 7)     # the infer and train_dgb weight seeds


@pytest.mark.parametrize("seed", BENCH_SEEDS)
def test_seeded_uniform_equals_the_scalar_uniform_loop(seed):
    for name, shape, fan_in in BENCH_DRAWS:
        got = seeded_uniform(seed, name, shape, fan_in)
        want = scalar_seeded_uniform(seed, name, shape, fan_in)
        assert got.shape == shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), name


def test_seeded_uniform_bench_draws_keep_their_bits():
    # integer ops and correctly rounded IEEE ops only, so the digest holds
    # on any platform
    digest = hashlib.sha256()
    for seed in BENCH_SEEDS:
        for name, shape, fan_in in BENCH_DRAWS:
            digest.update(seeded_uniform(seed, name, shape, fan_in).astype("<f8").tobytes())
    assert digest.hexdigest() == (
        "b031f437a63a55b5c76ed708fed8e348f62d05be11ec55c229ec9ea1d3093eb5")


def test_bench_draws_cover_the_bench_parameter_trees():
    drawn = {seeded_uniform(seed, *draw).tobytes()
             for seed in BENCH_SEEDS for draw in BENCH_DRAWS}
    trees = [dgb_params(DgbConfig(), 1, seed=7), calib_params(1),
             dafm_params(16, 16, expected_agents(112, 112), seed=1),
             dffm_params(16, (3, 6, 9), seed=1)]
    for tree in trees:
        for leaf in tree_leaves(tree):
            if leaf.shape == (16, 16) and np.array_equal(leaf, np.eye(16)):
                continue        # ifam.w_out is the identity when embed == C
            assert leaf.tobytes() in drawn


PARAM_TREES = {
    "dgb": lambda: dgb_params(DgbConfig(), 1, seed=3),
    "dafm": lambda: dafm_params(4, 3, 9, seed=3),
    "dffm": lambda: dffm_params(4, (3, 6, 9), seed=3),
    "calib": lambda: calib_params(3),
}


def assert_same_tree(a, b):
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same_tree(a[key], b[key])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_tree(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        for name in vars(a):
            assert_same_tree(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("module", sorted(PARAM_TREES))
def test_tree_round_trip_keeps_structure_and_leaf_order(module):
    tree = PARAM_TREES[module]()
    leaves = tree_leaves(tree)
    assert leaves and all(isinstance(leaf, np.ndarray) for leaf in leaves)
    rebuilt = tree_replace(tree, leaves)
    assert_same_tree(rebuilt, tree)
    assert [id(x) for x in tree_leaves(rebuilt)] == [id(x) for x in leaves]
    again = tree_leaves(PARAM_TREES[module]())
    assert [x.tobytes() for x in again] == [x.tobytes() for x in leaves]


def test_tree_leaf_order_follows_fields_lists_and_dicts():
    dgb = dgb_params(DgbConfig(), 1, seed=3)
    assert [id(x) for x in tree_leaves(dgb)] == [id(x) for x in dgb.values()]
    dafm = dafm_params(4, 3, 9, seed=3)
    ifam = dafm.ifam
    assert [id(x) for x in tree_leaves(dafm)] == [id(x) for x in (
        dafm.bank_w, dafm.bank_b, ifam.w_query, ifam.w_key, ifam.w_value,
        ifam.w_out, ifam.bias_fwd, ifam.bias_bwd, dafm.dw_w, dafm.pw_w, dafm.pw_b)]
    dffm = dffm_params(4, (3, 6, 9), seed=3)
    expected = tree_leaves(dffm.calib) + [
        leaf for path in dffm.paths for leaf in tree_leaves(path)] + [
        dffm.conv_w, dffm.conv_b, dffm.out_w, dffm.out_b]
    assert [id(x) for x in tree_leaves(dffm)] == [id(x) for x in expected]
    assert len(tree_leaves(dffm)) == 4 + 3 * 7 + 4


def test_tree_replace_swaps_leaves_without_touching_the_input():
    tree = dffm_params(4, (3, 6), seed=3)
    before = [x.copy() for x in tree_leaves(tree)]
    zeros = [np.zeros_like(x) for x in before]
    rebuilt = tree_replace(tree, zeros)
    assert all(not x.any() for x in tree_leaves(rebuilt))
    assert rebuilt.paths is not tree.paths
    assert all(np.array_equal(x, y) for x, y in zip(tree_leaves(tree), before))


@pytest.mark.parametrize("module", sorted(PARAM_TREES))
def test_tree_replace_rejects_a_wrong_leaf_count(module):
    tree = PARAM_TREES[module]()
    leaves = tree_leaves(tree)
    with pytest.raises(InvalidArgumentError, match="tree_replace"):
        tree_replace(tree, leaves[:-1])
    with pytest.raises(InvalidArgumentError, match="tree_replace"):
        tree_replace(tree, leaves + [leaves[0]])
