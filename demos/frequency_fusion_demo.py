"""Split features into frequency bands and fuse them under the density gate.

Walks one path of the fusion module by hand -- pooled copy, complementary
band masks, spectrum split -- then runs the full multi-kernel module and
reports how the energy divides between the bands.
"""

import numpy as np

from densefocus import ops
from densefocus.density import calib_params, calibrate_density
from densefocus.dffm import (DEFAULT_KERNEL_SET, dffm_forward, dffm_params,
                             frequency_masks, frequency_split)
from densefocus.params import seeded_uniform

h = w = 36
x = seeded_uniform(4, "demo.fusion.x", (4, h, w), 2)
density = np.abs(seeded_uniform(4, "demo.fusion.d", (1, h, w), 1))
d_cal = calibrate_density(density, calib_params(4))

params = dffm_params(4, DEFAULT_KERNEL_SET, seed=6)
path = params.paths[0]

m_low, m_high = frequency_masks(x, d_cal, path.mask_w, path.mask_b)
print(f"mask complement exact: {np.array_equal(m_low + m_high, np.ones_like(m_low))}")
print(f"low-mask mean {m_low.mean():.3f} (0.5 would be an even split)")

pair = frequency_split(x, m_low, m_high)
spectrum = ops.dct2(x)
e_total = float(np.sum(spectrum ** 2))
e_low = float(np.sum(pair.low ** 2))
e_high = float(np.sum(pair.high ** 2))
print(f"spectral energy: {100 * e_low / e_total:.1f}% low band, "
      f"{100 * e_high / e_total:.1f}% high band")
recon = ops.idct2(pair.low) + ops.idct2(pair.high)
print(f"band recomposition error {np.max(np.abs(recon - x)):.2e}")

fused = dffm_forward(x, d_cal, params, DEFAULT_KERNEL_SET)
print(f"fused {x.shape} -> {fused.shape} with kernels {DEFAULT_KERNEL_SET}")
print(f"output range [{fused.min():.3f}, {fused.max():.3f}]")

# the kernel set is a free knob; wider pyramids cost more
for ks in ((3,), (3, 6, 9), (3, 6, 9, 12)):
    with ops.count_macs() as counter:
        dffm_forward(x, d_cal, dffm_params(4, ks, 6), ks)
    print(f"  kernels {str(ks):<12} {counter.macs:>11,} MACs")
