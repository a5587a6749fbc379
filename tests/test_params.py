"""Seeded parameter initialization and parameter trees."""

import numpy as np
import pytest

from densefocus.dafm import dafm_params
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
