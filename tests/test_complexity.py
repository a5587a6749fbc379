"""Measured MAC counts for the attention variants."""

import numpy as np
import pytest

from densefocus import (Var, count_macs, dafm_forward, dafm_params, dffm_forward,
                        dffm_params, expected_agents)
from densefocus.complexity import measured_global_attention_macs, measured_ifam_macs
from densefocus.errors import InvalidArgumentError
from densefocus.params import seeded_uniform


def ifam_formula(h, w, c, d, n):
    # q/k/v projections (3 L·C·d) + bank projection (n·C·d) + stage 1
    # (2 n·L·d) + stage 2 (2 n·L·d) + output projection (L·d·C).
    length = h * w
    return 4 * length * c * d + n * c * d + 4 * n * length * d


def global_formula(h, w, c, d):
    length = h * w
    return 3 * length * c * d + 2 * length * length * d + length * d * c


def test_ifam_macs_match_hand_count():
    assert measured_ifam_macs(64, 64, 32, 32, 100) == ifam_formula(64, 64, 32, 32, 100)
    assert measured_ifam_macs(64, 64, 32, 32, 100) == 69_308_416
    assert measured_ifam_macs(16, 16, 8, 4, 9) == ifam_formula(16, 16, 8, 4, 9)


def test_global_macs_match_hand_count():
    assert (measured_global_attention_macs(64, 64, 32, 32)
            == global_formula(64, 64, 32, 32))
    assert measured_global_attention_macs(64, 64, 32, 32) == 1_090_519_040
    assert (measured_global_attention_macs(16, 16, 8, 4)
            == global_formula(16, 16, 8, 4))


def test_focused_attention_is_far_cheaper():
    focused = measured_ifam_macs(64, 64, 32, 32, 100)
    dense = measured_global_attention_macs(64, 64, 32, 32)
    assert focused < 0.25 * dense


def test_counts_are_deterministic():
    assert (measured_ifam_macs(32, 32, 8, 8, 25)
            == measured_ifam_macs(32, 32, 8, 8, 25))
    assert (measured_global_attention_macs(32, 32, 8, 8)
            == measured_global_attention_macs(32, 32, 8, 8))


def test_size_validation():
    with pytest.raises(InvalidArgumentError):
        measured_ifam_macs(0, 8, 4, 4, 9)
    with pytest.raises(InvalidArgumentError):
        measured_ifam_macs(8, 8, 4, 4, 0)
    with pytest.raises(InvalidArgumentError):
        measured_global_attention_macs(8, 0, 4, 4)


@pytest.mark.parametrize("forward", [
    lambda x, d: dffm_forward(x, d, dffm_params(8, (3, 6, 9), 1), (3, 6, 9)),
    lambda x, d: dafm_forward(x, d, dafm_params(8, 8, expected_agents(40, 40), 1)),
], ids=["dffm", "dafm"])
def test_mac_count_does_not_depend_on_input_type(forward):
    # a graph forward does the same multiply-adds as an inference forward
    x = seeded_uniform(1, "macs.x", (8, 40, 40), 4)
    d = abs(seeded_uniform(1, "macs.d", (1, 40, 40), 1))
    counts = []
    for inp in (x, Var(x)):
        with count_macs() as counter:
            forward(inp, d)
        counts.append(counter.macs)
    assert counts[0] == counts[1] > 0


def test_dafm_macs_per_pixel_stay_flat_from_32_to_256():
    # the agent bank is pooled to a 7x7 grid at every one of these sizes, so
    # the whole block, not only its attention pass, costs the same per pixel
    per_px = []
    for s in (32, 64, 128, 256):
        x = seeded_uniform(1, "macs.flat.x", (16, s, s), 16)
        d = np.zeros((1, s, s))
        d[0, s // 4:s // 2, s // 8:3 * s // 4] = 1.0
        with count_macs() as counter:
            dafm_forward(x, d, dafm_params(16, 16, expected_agents(s, s), 1))
        per_px.append(counter.macs / (s * s))
    assert max(per_px) <= 1.02 * min(per_px), per_px
