"""Training and gradient checks over parameter trees.

``train_demo`` fits the micro density branch by gradient descent, and
``_gradcheck_cases`` builds the seeded graphs that ``densefocus gradcheck``
compares against finite differences.  Both reach parameters only through
``tree_leaves``/``tree_replace``, whatever the module's layout.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import autodiff as ad
from .dafm import dafm_forward, dafm_params, expected_agents
from .density import DgbConfig, density_loss, dgb_forward, dgb_params, gt_density
from .dffm import dffm_forward, dffm_params
from .errors import InvalidArgumentError, NumericError
from .params import seeded_uniform, tree_leaves, tree_replace
from .synthgen import SceneSpec, generate_scene

GRADCHECK_TOLERANCE = 1e-5


def dafm_check_point(seed: int):
    """Seeded micro inputs for finite-difference checks of the focused
    attention block: features, density, parameters, reduction weights.  At a
    feature scale of 4, the finite differences read roundoff at some seeds."""
    x = 2.0 * seeded_uniform(seed, "check.dafm.x", (3, 8, 8), 9)
    d = np.abs(seeded_uniform(seed, "check.dafm.density", (1, 8, 8), 1))
    w_red = seeded_uniform(seed, "check.dafm.reduce", (3, 8, 8), 1)
    params = dafm_params(3, 3, expected_agents(8, 8), seed)
    return x, d, params, w_red


# Input / mix-projector scale factors giving well-conditioned affinity
# logits.  At unit scales the C x C softmax sits almost exactly at uniform,
# gradients fall below the 1e-6 finite-difference noise floor, and the
# comparison reads roundoff instead of the derivative.
_DFFM_POINT_SCALES = (24.0, 4.0)


def dffm_check_point(seed: int):
    """Seeded micro inputs for finite-difference checks of the fusion block.

    The parallel 3x3 conv path is zeroed (its output would inflate the
    scalar without carrying any band-parameter gradient) and the mix
    projectors are scaled so the affinity softmax stays responsive."""
    x_scale, mix_scale = _DFFM_POINT_SCALES
    x = x_scale * seeded_uniform(seed, "check.dffm.x", (4, 12, 12), 9)
    d = np.abs(seeded_uniform(seed, "check.dffm.density", (1, 12, 12), 1))
    w_red = seeded_uniform(seed, "check.dffm.reduce", (4, 12, 12), 1)
    p0 = dffm_params(4, (3,), seed)
    path = dataclasses.replace(p0.paths[0],
                               mix_high=mix_scale * p0.paths[0].mix_high,
                               mix_low=mix_scale * p0.paths[0].mix_low)
    params = dataclasses.replace(p0, paths=[path],
                                 conv_w=np.zeros_like(p0.conv_w),
                                 conv_b=np.zeros_like(p0.conv_b))
    return x, d, params, w_red


def _fields_case(params, names, scalar):
    """(fn, point) for differentiating ``scalar(params)`` in the leaves of
    the named fields of ``params``, field by field in the given order."""
    sub = {name: getattr(params, name) for name in names}

    def fn(*leaves):
        return scalar(dataclasses.replace(params, **tree_replace(sub, leaves)))
    return fn, tree_leaves(sub)


def _gradcheck_cases(module: str, seed: int):
    """Micro scalar graphs per module; yields (label, fn, point)."""

    def upoint(name, shape, fan=4):
        return seeded_uniform(seed, f"check.{name}", shape, fan)

    if module == "ops":
        x = upoint("ops.x", (2, 6, 6))
        w = upoint("ops.w", (3, 2, 3, 3), 18)
        yield ("conv2d", lambda xx, ww: ad.sum_all(ad.conv2d(xx, ww, None, 1, 1)),
               [x, w])
        yield ("dct2", lambda xx: ad.sum_all(ad.multiply(ad.dct2(xx), ad.dct2(xx))),
               [x])
        yield ("avg_pool", lambda xx: ad.sum_all(ad.avg_pool(xx, 4)), [x])
    elif module == "density":
        pred = upoint("density.pred", (1, 8, 8))
        gt = np.abs(upoint("density.gt", (1, 8, 8)))
        yield ("density_loss", lambda a, b: density_loss(a, b), [pred, gt])
    elif module == "dafm":
        x, d, params, w_red = dafm_check_point(seed)

        def f_x(xx):
            return ad.sum_all(ad.multiply(dafm_forward(xx, d, params), w_red))
        yield ("dafm_forward/x", f_x, [x])

        def f_params(p):
            return ad.sum_all(ad.multiply(dafm_forward(x, d, p), w_red))
        yield ("dafm_forward/params", *_fields_case(params, ("ifam", "dw_w"), f_params))
    elif module == "dffm":
        x, d, params, w_red = dffm_check_point(seed)

        def f_params(p):
            return ad.sum_all(ad.multiply(dffm_forward(x, d, p, (3,)), w_red))
        yield ("dffm_forward/band-params", *_fields_case(params, ("paths",), f_params))

        def f_x(xx):
            return ad.sum_all(ad.multiply(dffm_forward(xx, d, params, (3,)), w_red))
        yield ("dffm_forward/x", f_x, [x])
    else:
        raise InvalidArgumentError(f"gradcheck: unknown module {module!r}")


def train_demo(steps: int = 200, lr: float = 0.05, seed: int = 7):
    """Fit the micro density branch to 8 synthetic 64x64 scenes by plain
    gradient descent on the density loss.  Returns the loss trace, one entry
    per evaluated step (length steps + 1)."""
    if steps < 0:
        raise InvalidArgumentError(f"train_demo: steps must be >= 0, got {steps}")
    if not math.isfinite(lr) or lr < 0:
        raise InvalidArgumentError(f"train_demo: bad learning rate {lr}")
    cfg = DgbConfig()
    scenes = []
    for i in range(8):
        spec = SceneSpec(width=64, height=64, n_clusters=2,
                         objects_per_cluster=(3, 6), object_size=(3, 8),
                         cluster_spread=7.0, seed=seed * 1000 + i)
        image, annotations = generate_scene(spec, image_id=i + 1)
        target = gt_density(annotations, 64, 64).values
        scenes.append((image, target))
    params = dgb_params(cfg, 1, seed)

    def batch_loss(tree):
        acc = None
        for image, target in scenes:
            term = density_loss(dgb_forward(image, tree, cfg), target)
            acc = term if acc is None else ad.add(acc, term)
        return ad.scale(acc, 1.0 / len(scenes))

    trace = []
    for step in range(steps + 1):
        leaves = [ad.Var(p) for p in tree_leaves(params)]
        loss = batch_loss(tree_replace(params, leaves))
        value = float(loss.value)
        if not math.isfinite(value):
            raise NumericError(f"train_demo: loss became {value}")
        trace.append(value)
        if step < steps:
            ad.backward(loss)
            params = tree_replace(params, [p if v.grad is None else p - lr * v.grad
                                           for p, v in zip(tree_leaves(params), leaves)])
    return trace
