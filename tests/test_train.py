"""Training demo and gradient-check cases over parameter trees."""

import dataclasses

import numpy as np

from densefocus.train import _gradcheck_cases, dafm_check_point, dffm_check_point


def case_points(module, seed):
    return {label: point for label, _, point in _gradcheck_cases(module, seed)}


def test_gradcheck_cases_differentiate_the_documented_leaves():
    _, _, dafm, _ = dafm_check_point(3)
    ifam = dafm.ifam
    expected = [getattr(ifam, f.name) for f in dataclasses.fields(ifam)] + [dafm.dw_w]
    point = case_points("dafm", 3)["dafm_forward/params"]
    assert len(point) == len(expected) == 7
    assert all(np.array_equal(a, b) for a, b in zip(point, expected))

    _, _, dffm, _ = dffm_check_point(3)
    path = dffm.paths[0]
    expected = [getattr(path, f.name) for f in dataclasses.fields(path)]
    point = case_points("dffm", 3)["dffm_forward/band-params"]
    assert len(point) == len(expected) == 7
    assert all(np.array_equal(a, b) for a, b in zip(point, expected))


def test_gradcheck_params_case_rebuilds_the_tree_it_flattened():
    for module, label in (("dafm", "dafm_forward/params"),
                          ("dffm", "dffm_forward/band-params")):
        cases = {lbl: (fn, point) for lbl, fn, point in _gradcheck_cases(module, 1)}
        fn, point = cases[label]
        x_fn, x_point = cases[f"{module}_forward/x"]
        assert np.array_equal(fn(*point), x_fn(*x_point))
