"""Seeded parameter initialization and parameter trees.

Initialization rule used throughout: each named tensor gets its own
SplitMix64 stream derived from ``(seed, name)`` and is filled in C order
with uniform draws on [-1/sqrt(fan_in), +1/sqrt(fan_in)].  Equal seeds give
bit-identical tensors, which is what lets the CLI ship parameters as a
seed-plus-hyperparameters JSON instead of a weight blob.

Every module keeps its parameters in a tree of dataclasses, lists and
dicts with arrays at the leaves.  :func:`tree_leaves` flattens any such
tree and :func:`tree_replace` rebuilds it, which is all a gradient step or
a finite-difference check needs, whatever the module.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator

import numpy as np

from .errors import InvalidArgumentError
from .rng import Rng


def seeded_uniform(seed: int, name: str, shape: tuple, fan_in: int) -> np.ndarray:
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] tensor on a per-name stream;
    a shape numpy cannot allocate raises InvalidArgumentError."""
    if fan_in < 1:
        raise InvalidArgumentError(f"seeded_uniform: fan_in must be >= 1, got {fan_in}")
    bound = 1.0 / math.sqrt(fan_in)
    try:
        draws = Rng(seed).derive(name).randoms(math.prod(shape))
        # lo + (hi - lo) * r, as Rng.uniform(-bound, bound) computes it
        return (-bound + (bound - -bound) * draws).reshape(shape)
    except (ValueError, MemoryError) as exc:
        raise InvalidArgumentError(
            f"seeded_uniform: cannot allocate {name} of shape {shape} ({exc})") from exc


def tree_leaves(tree) -> list:
    """The leaves of a parameter tree in a fixed order.

    Dataclass fields are walked in declaration order, list items in index
    order and dict values in insertion order; any other value is a leaf.
    """
    if dataclasses.is_dataclass(tree) and not isinstance(tree, type):
        return [leaf for f in dataclasses.fields(tree)
                for leaf in tree_leaves(getattr(tree, f.name))]
    if isinstance(tree, list):
        return [leaf for item in tree for leaf in tree_leaves(item)]
    if isinstance(tree, dict):
        return [leaf for value in tree.values() for leaf in tree_leaves(value)]
    return [tree]


def _rebuild(tree, leaves: Iterator):
    """``tree`` with its leaves drawn in order from ``leaves``."""
    if dataclasses.is_dataclass(tree) and not isinstance(tree, type):
        return dataclasses.replace(tree, **{f.name: _rebuild(getattr(tree, f.name), leaves)
                                            for f in dataclasses.fields(tree)})
    if isinstance(tree, list):
        return [_rebuild(item, leaves) for item in tree]
    if isinstance(tree, dict):
        return {key: _rebuild(value, leaves) for key, value in tree.items()}
    return next(leaves)


def tree_replace(tree, leaves):
    """A copy of ``tree`` whose leaves, in :func:`tree_leaves` order, are
    ``leaves``.  The containers are new; the input tree is left as it is."""
    leaves = list(leaves)
    expected = len(tree_leaves(tree))
    if len(leaves) != expected:
        raise InvalidArgumentError(
            f"tree_replace: got {len(leaves)} leaves for a tree of {expected}")
    return _rebuild(tree, iter(leaves))
